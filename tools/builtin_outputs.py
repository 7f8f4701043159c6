"""Write the outputs of every builtin config of a fracasym source tree.

    python tools/builtin_outputs.py --src DIR OUT
    python tools/builtin_outputs.py --compare BASE OUT

For the source tree DIR (a checkout: DIR/src/fracasym), runs through the
CLI of that tree

* `fracasym solve ID` for each builtin without an `order` check, at its
  configured grid and at `--n-steps 32768`;
* `fracasym pin ID` for each of those builtins at the same two grids,
  writing the pin file to the run's directory: its JSON holds every
  measured value at full precision, where reports print 9 significant
  digits (`pin` refuses a study's `order` check);
* `fracasym study ID` for each builtin with one, at its configured grid and
  at `--n-steps 8192`: with the builtins' three levels the finest grid is
  then 32768 steps, 32 blocks of 1024 nodes whose history squares reach
  16384 nodes;
* `fracasym catalog`, the listing of builtins and catalog entries,

and writes, for each run, OUT/<command>_<ID>[_n<N>]/ holding `exit_code`,
`stdout`, `stderr` and the files the run wrote (CSV and report, or pin
JSON), with every `timing` line dropped from stdout and the report, and the
run's temporary directory named TMP in stdout and stderr.  Two trees give
the same outputs when `diff -r` of their OUT directories is empty: run it on
a change and on its base to check that the change keeps the builtins byte
for byte.

With `--compare BASE`, it writes nothing and prints one line for each CSV of
BASE whose copy in OUT differs: each column's largest difference relative
to the largest finite magnitude of the column in BASE (nan where a value
turned nan, or the copy is missing or of another shape), and then one line
for each differing pin JSON: each key's |new - old| / |old| (0 where equal,
nan where the key is missing on one side), so that a change that moves
outputs on purpose shows by how much.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

# the extra grid of every solve builtin and the extra coarsest grid of
# every study builtin
N_STEPS = {"solve": 32768, "study": 8192}


def _untimed(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("timing "))


def _runs(configs: Path):
    """(output directory name, CLI arguments) of every run, in a fixed order."""
    yield "catalog", ["catalog"]
    for path in sorted(configs.glob("*.json")):
        ident = path.stem
        checks = {check["name"] for check in json.loads(path.read_text())["checks"]}
        command = "study" if "order" in checks else "solve"  # order needs a study
        yield f"{command}_{ident}", [command, ident]
        n = N_STEPS[command]
        yield f"{command}_{ident}_n{n}", [command, ident, "--n-steps", str(n)]
        if command == "solve":
            yield f"pin_{ident}", ["pin", ident]
            yield f"pin_{ident}_n{n}", ["pin", ident, "--n-steps", str(n)]


def _csv_differences(base: Path, out: Path):
    """(CSV path relative to base, [(column, largest |difference| over the
    largest finite |value| of the column in base)]) for each CSV that
    differs; a difference is nan where one side is nan, or the other CSV
    missing or of another shape."""
    for path in sorted(base.rglob("*.csv")):
        other = out / path.relative_to(base)
        if other.exists() and other.read_bytes() == path.read_bytes():
            continue
        names = path.read_text().partition("\n")[0].split(",")
        old = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        new = np.loadtxt(other, delimiter=",", skiprows=1, ndmin=2) if other.exists() else None
        if new is None or new.shape != old.shape:
            new = np.full_like(old, np.nan)
        same = (new == old) | (np.isnan(new) & np.isnan(old))
        with np.errstate(invalid="ignore"):  # inf - inf, where same holds
            diff = np.where(same, 0.0, np.abs(new - old)).max(axis=0)
        top = np.abs(np.where(np.isfinite(old), old, 0.0)).max(axis=0)
        yield path.relative_to(base), list(zip(names, diff / np.where(top > 0.0, top, 1.0)))


def _leaves(obj: dict, prefix: str = ""):
    """(dotted key, value) of every leaf of a JSON object."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _json_differences(base: Path, out: Path):
    """(pin JSON path relative to base, [(key, |new - old| / |old|)]) for each
    JSON that differs, over the keys of base and then those only in the
    copy; 0 where the values are equal, nan where one side lacks the key or
    the copy is missing."""
    for path in sorted(base.rglob("*.json")):
        other = out / path.relative_to(base)
        if other.exists() and other.read_bytes() == path.read_bytes():
            continue
        old = dict(_leaves(json.loads(path.read_text())))
        new = dict(_leaves(json.loads(other.read_text()))) if other.exists() else {}

        def move(key):
            if key not in old or key not in new:
                return math.nan
            if new[key] == old[key]:
                return 0.0
            return abs(new[key] - old[key]) / abs(old[key]) if old[key] else math.inf

        yield path.relative_to(base), [(key, move(key)) for key in {**old, **new}]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    tree = parser.add_mutually_exclusive_group(required=True)
    tree.add_argument("--src", type=Path, help="the source tree")
    tree.add_argument("--compare", type=Path, metavar="BASE",
                      help="an OUT directory to compare OUT with, writing nothing")
    parser.add_argument("out", type=Path, help="the directory to write, which must not "
                        "exist; with --compare, the one to compare with BASE")
    args = parser.parse_args(argv)
    if args.compare:
        for path, columns in chain(_csv_differences(args.compare, args.out),
                                   _json_differences(args.compare, args.out)):
            print(f"{path}: " + ", ".join(f"{name} {rel:.2g}" for name, rel in columns))
        return 0
    src = (args.src / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    args.out.mkdir(parents=True)
    for name, cli_args in _runs(src / "fracasym" / "configs"):
        dest = args.out / name
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = [] if cli_args == ["catalog"] else ["--out-dir", tmp]
            if cli_args[0] == "pin":
                out_dir += ["--expectations-dir", tmp]
            run = subprocess.run(
                [sys.executable, "-m", "fracasym.cli", *cli_args, *out_dir],
                cwd=tmp, env=env, capture_output=True, text=True)
            dest.mkdir()
            for path in sorted(Path(tmp).iterdir()):
                if path.suffix == ".txt":
                    (dest / path.name).write_text(_untimed(path.read_text()))
                else:
                    shutil.copyfile(path, dest / path.name)
        (dest / "exit_code").write_text(f"{run.returncode}\n")
        (dest / "stdout").write_text(_untimed(run.stdout).replace(tmp, "TMP"))
        (dest / "stderr").write_text(run.stderr.replace(tmp, "TMP"))
        print(f"{name}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
