"""Command-line interface.

    fracasym solve  CONFIG [--t-end F] [--n-steps N] [--seed N] [--out-dir D]
    fracasym study  CONFIG [--t-end F] [--n-steps N] [--seed N] [--out-dir D]
    fracasym pin    CONFIG [--expectations-dir D] [--out-dir D]
    fracasym catalog

CONFIG is either a path to a JSON experiment file or a builtin config id
(see `fracasym catalog`).  Exit codes: 0 when every check passes or is
skipped (a regression check off its pinned grid), 2 when a bound
hypothesis is violated, 1 for usage/solver/config/IO failures or plain
check failures.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from types import FunctionType

from . import harness
from .errors import ConfigError, FracasymError, StepFailure


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="config file path or builtin id")
    parser.add_argument("--t-end", type=float, default=None,
                        help="override grid.t_end")
    parser.add_argument("--n-steps", type=int, default=None,
                        help="override grid.n_steps")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="directory for csv/report artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracasym",
        description="fractional IVP solving, bound evaluation and asymptotic checks")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("solve", help="run an experiment's checks"))
    _add_common(sub.add_parser("study", help="run a refinement study"))

    pin = sub.add_parser("pin", help="record measured values as pinned expectations")
    _add_common(pin)
    pin.add_argument("--expectations-dir", type=Path, default=None,
                     help="where to write the pin file (default: the package's "
                          "expectations directory)")

    sub.add_parser("catalog", help="list builtin configs and catalog entries")
    return parser


def _load(args) -> harness.ExperimentConfig:
    path = Path(args.config)
    if path.exists():
        config = harness.load_config(path)
    else:
        config = harness.load_builtin_config(args.config)
    grid = dict(config.grid)
    if args.t_end is not None:
        grid["t_end"] = args.t_end
    if args.n_steps is not None:
        grid["n_steps"] = args.n_steps
    seed = config.seed if args.seed is None else args.seed
    # validated again, so that a bad override is a config error like a bad file
    return harness.load_config({
        "id": config.ident, "problem": config.problem, "grid": grid,
        "checks": list(config.checks), "output": config.output, "seed": seed})


# the code names of the comprehensions, which Python before 3.12 runs in frames of their own
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _innermost(exc: BaseException) -> str:
    """module.function of the innermost fracasym frame exc passed through; a
    nested function is named by the __qualname__ of the function that runs
    the frame's code, as in bounds.linear_class_bound.<locals>.<lambda>, and
    a comprehension by the function around it."""
    frame, tb = None, exc.__traceback__
    while tb is not None:
        if (tb.tb_frame.f_globals.get("__name__", "").startswith("fracasym.")
                and tb.tb_frame.f_code.co_name not in _COMPREHENSIONS):
            frame = tb.tb_frame
        tb = tb.tb_next
    if frame is None:
        return "cli.main"
    code = frame.f_code
    name = next((ref.__qualname__ for ref in gc.get_referrers(code)
                 if isinstance(ref, FunctionType) and ref.__code__ is code), code.co_name)
    return f"{frame.f_globals['__name__'].removeprefix('fracasym.')}.{name}"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, a hypothesis code
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "catalog":
            sys.stdout.write(harness.list_catalog())
            return 0

        config = _load(args)
        if args.command == "solve":
            report = harness.run(config, out_dir=args.out_dir)
        elif args.command == "study":
            report = harness.convergence_study(config, out_dir=args.out_dir)
        else:  # pin
            exp_dir = args.expectations_dir
            if exp_dir is None:
                exp_dir = Path(__file__).parent / "expectations"
            path = harness.pin(config, exp_dir, out_dir=args.out_dir)
            sys.stdout.write(f"pinned expectations written to {path}\n")
            return 0

        sys.stdout.write(report.render())
        return report.exit_code
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except StepFailure as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 1
    except FracasymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:  # an overflow of huge config numbers
        sys.stderr.write(f"error: {type(exc).__name__} in {_innermost(exc)}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
