"""Write the outputs of every builtin config of a fracasym source tree.

    python tools/builtin_outputs.py --src DIR OUT

For the source tree DIR (a checkout: DIR/src/fracasym), runs through the
CLI of that tree

* `fracasym solve ID` for each builtin without an `order` check, at its
  configured grid and at `--n-steps 32768`;
* `fracasym study ID` for each builtin with one,

and writes, for each run, OUT/<command>_<ID>[_n32768]/ holding `exit_code`,
`stdout`, `stderr` and the files the run wrote (CSV and report), with every
`timing` line dropped from stdout and the report.  Two trees give the same
outputs when `diff -r` of their OUT directories is empty: run it on a change
and on its base to check that the change keeps the builtins byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

N_STEPS = 32768  # the extra grid of every solve builtin


def _untimed(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("timing "))


def _runs(configs: Path):
    """(output directory name, CLI arguments) of every run, in a fixed order."""
    for path in sorted(configs.glob("*.json")):
        ident = path.stem
        checks = {check["name"] for check in json.loads(path.read_text())["checks"]}
        if "order" in checks:  # an order check needs a refinement study
            yield f"study_{ident}", ["study", ident]
        else:
            yield f"solve_{ident}", ["solve", ident]
            yield f"solve_{ident}_n{N_STEPS}", ["solve", ident, "--n-steps", str(N_STEPS)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True, help="the source tree")
    parser.add_argument("out", type=Path, help="the directory to write, which must not exist")
    args = parser.parse_args(argv)
    src = (args.src / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    args.out.mkdir(parents=True)
    for name, cli_args in _runs(src / "fracasym" / "configs"):
        dest = args.out / name
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run(
                [sys.executable, "-m", "fracasym.cli", *cli_args, "--out-dir", tmp],
                cwd=tmp, env=env, capture_output=True, text=True)
            dest.mkdir()
            for path in sorted(Path(tmp).iterdir()):
                if path.suffix == ".txt":
                    (dest / path.name).write_text(_untimed(path.read_text()))
                else:
                    shutil.copyfile(path, dest / path.name)
        (dest / "exit_code").write_text(f"{run.returncode}\n")
        (dest / "stdout").write_text(_untimed(run.stdout))
        (dest / "stderr").write_text(run.stderr)
        print(f"{name}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
