"""Config-driven experiment runner.

A single JSON document describes a problem, a grid, the checks to evaluate
and the output artifacts.  Unknown keys anywhere in the document are
errors; silent typo tolerance is how wrong experiments get published.

Checks report one verdict line each.  A failed integrability/divergence
hypothesis marks the check FAILED-HYPOTHESIS and the run continues; a
solver failure aborts the run.  A regression check on a grid other than
the one its pin was taken on reports SKIP, which is no verdict.
Exit-code contract (used by the CLI): 0 all checks pass or are skipped,
2 any hypothesis violation, 1 anything else.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, catalog
from .asymptotics import (boundedness_verdict, lhopital_lemma_term, lhopital_residual,
                          power_slope, slope_window_start)
from .bounds import growth_envelope_constants, improper_tail, uniform_bound_constant
from .errors import ConfigError, DomainError, HypothesisViolation
from .fracops import trapezoid_table
from .grid import GridFunction, as_values
from .solvers import ProblemKind, residual_check, solve_direct, solve_sequential

__all__ = [
    "ExperimentConfig",
    "CheckResult",
    "RunReport",
    "load_config",
    "load_builtin_config",
    "run",
    "convergence_study",
    "pin",
    "list_catalog",
]

CSV_HEADER = "tau,x,dbeta_x,dalpha_x,bound_curve,x_over_tau_alpha"
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    ident: str
    problem: dict
    grid: dict
    checks: tuple
    output: dict
    seed: int

    @property
    def t_end(self) -> float:
        return self.grid["t_end"]

    @property
    def n_steps(self) -> int:
        return self.grid["n_steps"]

    @property
    def refinement_levels(self) -> int:
        return self.grid.get("refinement_levels", 1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | FAILED-HYPOTHESIS | SKIP <reason>, which is no verdict
    measured: object
    expected: object
    tolerance: object

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    @property
    def skipped(self) -> bool:
        return self.status.startswith("SKIP")

    def line(self) -> str:
        return (f"CHECK {self.name}: {self.status} measured={_fmt(self.measured)} "
                f"expected={_fmt(self.expected)} tol={_fmt(self.tolerance)}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


@dataclass
class RunReport:
    config: ExperimentConfig
    checks: list[CheckResult] = field(default_factory=list)
    measured: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    info_lines: list[str] = field(default_factory=list)
    csv_path: Path | None = None
    report_path: Path | None = None

    @property
    def overall_pass(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    @property
    def exit_code(self) -> int:
        if any(c.status == "FAILED-HYPOTHESIS" for c in self.checks):
            return 2
        return 0 if self.overall_pass else 1

    def render(self) -> str:
        echo = json.dumps({"problem": self.config.problem,
                           "grid": self.config.grid}, sort_keys=True)
        lines = [
            f"experiment: {self.config.ident}",
            f"seed: {self.config.seed}",
            f"grid: t_end={self.config.t_end:g} n_steps={self.config.n_steps}",
            f"config: {echo}",
        ]
        lines.extend(self.info_lines)
        lines.extend(c.line() for c in self.checks)
        lines.append("timing " + " ".join(
            f"{k}={v:.3f}s" for k, v in self.timings.items()))
        lines.append(f"OVERALL: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# config values

def _object(d, where: str, required=(), optional=()) -> dict:
    """A copy of d, which must be a dict with every `required` key and no
    key outside `required` and `optional`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - {*required, *optional}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where} is missing required key {key!r}")
    return dict(d)


def _number(value, where: str, kind=float):
    """value, a JSON number and no boolean, as a finite float, or with kind=int
    as an int; an int must also be integral, so that 512.9 is not cut to 512."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, the infinities, an int past a float
        raise ConfigError(f"{where} must be finite, got {value!r}")
    number = float(value)
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


def _fn_ref(d, where: str, factory=None) -> dict:
    """A catalog reference {"name", "params"}; every parameter is a number.
    With a factory, the reference must also build."""
    ref = _object(d, where, ("name",), ("params",))
    if not isinstance(ref["name"], str):  # a list would reach the catalog's dict lookup
        raise ConfigError(f"{where}.name must be a string, got {ref['name']!r}")
    params = ref.get("params")
    if params is not None:
        if not isinstance(params, dict):
            raise ConfigError(f"{where}.params must be an object")
        ref["params"] = {k: _number(v, f"{where}.params.{k}") for k, v in params.items()}
    if factory is not None:
        factory(ref["name"], ref.get("params"))
    return ref


# The finest grid a config may ask for, n_steps * 2**(refinement_levels - 1)
_MAX_FINEST_STEPS = 2 ** 24

# How load reads the value of a grid or check key: a number must lie in its
# range, as load's errors state it (NaN and infinities never load); a string
# must be one of its words; a catalog reference must build.
_RANGES = {
    "t_end": ("> 0", lambda v: v > 0),
    "n_steps": (">= 2", lambda v: v >= 2),
    "refinement_levels": (">= 1", lambda v: v >= 1),
    "tolerance": ("> 0", lambda v: v > 0),
    "window_fraction": ("in (0, 0.9]", lambda v: 0 < v <= 0.9),
    "q": ("> 1", lambda v: v > 1),
    "tau0": ('> 0 or "step"', lambda v: v > 0),
    "split": (">= 0", lambda v: v >= 0),
    "weight_power": ("finite", lambda v: True),
    "min_order": ("finite", lambda v: True),
}
_WORDS = {"tau0": ("step",), "variant": ("corrected", "literal"),
          "expect": ("converges", "diverges", "inconclusive")}
_REFS = {"phi": catalog.make_phi, "phi1": catalog.make_phi, "phi2": catalog.make_phi,
         "weight": catalog.make_integrand, "integrand": catalog.make_integrand}


def _value(key: str, value, where: str):
    if key in _REFS:
        return _fn_ref(value, where, _REFS[key])
    if key == "key" and not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    if value in _WORDS.get(key, ()) or key == "key":  # a regression key: see _load_config
        return value
    if key not in _RANGES:
        raise ConfigError(f"{where} must be one of {list(_WORDS[key])}, got {value!r}")
    text, test = _RANGES[key]
    number = _number(value, where, int if key in ("n_steps", "refinement_levels") else float)
    if not test(number):
        raise ConfigError(f"{where} must be {text}, got {value!r}")
    return number


# --------------------------------------------------------------------------
# check evaluators: (check, _Context) -> (CheckResult, the values named by the
# check's `produces`, in order); the check holds the catalog objects it names

@dataclass
class _Context:
    config: ExperimentConfig
    sol: object  # the finest solution of a study
    measured: dict
    expectations: dict
    orders: list | None = None  # a study's empirical orders
    errors: list | None = None  # a study's max error at each level, finest last
    bound_curve: np.ndarray | None = None  # the CSV's bound_curve column


def _verdict(name: str, ok: bool, measured, expected, tol) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", measured, expected, tol)


def _threshold_result(check: dict, measured: float) -> CheckResult:
    tol = check["tolerance"]
    return _verdict(check["name"], measured <= tol, measured, 0.0, tol)


def _max_error(sol, exact) -> float:
    return float(np.max(np.abs(sol.x.values - exact(sol.x.taus))))


def _closed_form(check, ctx):
    if ctx.errors:  # a study has measured the finest level's error already
        err = ctx.errors[-1]
    else:
        err = _max_error(ctx.sol, catalog.exact_solution(ctx.config.problem))
    return _threshold_result(check, err), (err,)


def _residual(check, ctx):
    defect = residual_check(ctx.sol)
    return _threshold_result(check, defect), (defect,)


def _slope(check, ctx):
    est = power_slope(ctx.sol, check["window_fraction"])
    rel_spread = est.spread / max(abs(est.accelerated), 1e-300)
    return _threshold_result(check, rel_spread), (est.accelerated, est.raw_tail, est.spread)


def _lhopital(check, ctx):
    # the verdict bounds the lemma term; the raw residual also holds
    # the initial-value term b1/T^alpha, which no grid removes
    lemma = lhopital_lemma_term(ctx.sol)
    return _threshold_result(check, abs(lemma)), (lhopital_residual(ctx.sol), lemma)


def _weight_grid(weight, sol) -> GridFunction:
    """The check's weight on the solution's grid, which it must be finite on."""
    taus = sol.x.taus
    with np.errstate(all="ignore"):  # a pole at 0 is a verdict, not a warning
        values = as_values(weight.fn(taus), taus.shape)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise HypothesisViolation(f"weight {weight.ident} must be finite on the grid, "
                                  f"got {values[bad[0]]} at tau = {taus[bad[0]]:g}")
    return GridFunction(sol.x.t_end, values)


def _bound_envelope(check, ctx):
    sol, tol, weight = ctx.sol, check["tolerance"], check["weight"]
    tail = improper_tail(weight, weight_power=sol.spec.alpha, split=1.0)
    if tail.verdict != "converges":
        raise HypothesisViolation(
            f"weighted tail integral of {weight.ident} must converge "
            f"(verdict: {tail.verdict})")
    pgrid = _weight_grid(weight, sol)
    bound = growth_envelope_constants(sol.spec.b1, sol.spec.b2, sol.spec.alpha, pgrid,
                                      check["phi"], tail_integral=tail.finite_estimate)
    ctx.bound_curve = bound.curve.values
    ratio = float(np.max(np.abs(sol.x.values) / ctx.bound_curve))
    return (_verdict("bound_envelope", ratio <= 1.0 + tol, ratio, 1.0, tol),
            (bound.constants["C1"], bound.constants["C2"], ratio))


def _boundedness(check, ctx):
    sol, tol, weight = ctx.sol, check["tolerance"], check["weight"]
    hgrid = _weight_grid(weight, sol)
    tau0 = sol.x.step if check["tau0"] == "step" else check["tau0"]
    bound = uniform_bound_constant(sol.spec.alpha, sol.spec.beta, sol.spec.b1, hgrid,
                                   check["phi1"], check["phi2"], tau0, q=check["q"],
                                   variant=check["variant"])
    verdict = boundedness_verdict(sol, bound, tolerance=tol)
    c = bound.constants["C"]
    ratio = max(verdict.sup_x, verdict.sup_dbeta) / c if c > 0 else math.inf
    if bound.curve is not None:
        ctx.bound_curve = bound.curve.values
    return (_verdict("boundedness", verdict.within_bound, ratio, 1.0, tol),
            (verdict.sup_x, verdict.sup_dbeta, c))


def _hypothesis(check, ctx):
    est = improper_tail(check["integrand"], check["weight_power"], check["split"])
    expect = check["expect"]
    return _verdict("hypothesis", est.verdict == expect, est.verdict, expect, "exact"), ()


def _order(check, ctx):
    measured = min(ctx.orders)  # every order is inf when the errors are at round-off
    shown = "exact" if math.isinf(measured) else measured
    min_order = check["min_order"]
    return _verdict("order", measured >= min_order, shown, min_order, "-"), ()


def _regression(check, ctx):
    key, tol = check["key"], check["tolerance"]
    val, pinned = ctx.measured.get(key), ctx.expectations.get(key)
    if val is None:
        return CheckResult(f"regression_{key}", "FAIL", "not-measured", pinned, tol), ()
    # a pin holds for the grid it was taken on; the measured values move with h
    grid = ctx.expectations.get("grid")
    if grid not in (None, {"n_steps": ctx.config.n_steps, "t_end": ctx.config.t_end}):
        status = f"SKIP pinned at t_end={grid['t_end']:g} n_steps={grid['n_steps']}"
        return CheckResult(f"regression_{key}", status, val, pinned, tol), ()
    if pinned is None:
        return CheckResult(f"regression_{key}", "FAIL", val, "missing-pin", tol), ()
    ok = abs(val - pinned) <= tol * max(abs(pinned), 1e-300)
    return _verdict(f"regression_{key}", ok, val, pinned, tol), ()


class _Check(NamedTuple):
    evaluate: Callable
    required: tuple = ()  # keys besides "name"
    optional: dict = {}  # key -> default, filled in at load
    produces: tuple = ()  # measured values a later regression check may pin
    commands: tuple = ("run",)  # the runner functions that evaluate the check
    kind: ProblemKind | None = None  # the only problem kind the check applies to
    min_t_end: float = 0.0  # the shortest grid.t_end the check can be evaluated on
    reads_solution: bool = True  # False: evaluated before the solve


_CHECKS = {
    "closed_form": _Check(_closed_form, ("tolerance",), produces=("closed_form_error",),
                          commands=("run", "convergence_study")),
    "residual": _Check(_residual, ("tolerance",), produces=("integral_defect",)),
    "slope": _Check(_slope, ("tolerance",), {"window_fraction": 0.25},
                    ("slope_accelerated", "slope_raw", "slope_spread"), min_t_end=10.0),
    "lhopital": _Check(_lhopital, ("tolerance",),
                       produces=("lhopital_residual", "lhopital_lemma_term")),
    "bound_envelope": _Check(_bound_envelope, ("tolerance", "phi", "weight"),
                             produces=("envelope_c1", "envelope_c2", "envelope_ratio"),
                             kind=ProblemKind.SEQUENTIAL, min_t_end=1.0),
    "boundedness": _Check(_boundedness, ("tolerance", "q", "phi1", "phi2", "weight"),
                          {"tau0": "step", "variant": "corrected"},
                          ("sup_x", "sup_dbeta", "bound_constant"),
                          kind=ProblemKind.DIRECT),
    "hypothesis": _Check(_hypothesis, ("integrand", "expect"),
                         {"weight_power": 0.0, "split": 1.0}, reads_solution=False),
    "order": _Check(_order, ("min_order",), commands=("convergence_study",)),
    "regression": _Check(_regression, ("key", "tolerance")),
}


# --------------------------------------------------------------------------
# config loading and validation

def load_config(source) -> ExperimentConfig:
    """Parse and validate a config from a dict or a JSON file path.

    Every number the runner reads is converted here, so a malformed document
    of any shape raises ConfigError before anything is solved.
    """
    try:
        return _load_config(source)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        # json.JSONDecodeError and the catalog's DomainError are ValueErrors;
        # a catalog constant of huge parameters overflows
        raise ConfigError(f"malformed config: {type(exc).__name__}: {exc}") from exc


def _load_config(source) -> ExperimentConfig:
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    doc = _object(source, "config", ("id", "problem", "grid", "checks"), ("output", "seed"))
    ident = doc["id"]
    # the id names the pin file and the expectations
    if not isinstance(ident, str) or not ident or "/" in ident or "\\" in ident:
        raise ConfigError(f"id must be a non-empty string without a path separator, "
                          f"got {ident!r}")

    problem = _object(doc["problem"], "problem", ("kind", "alpha", "b1", "rhs"),
                      ("beta", "b2"))
    for key in ("alpha", "beta", "b1", "b2"):
        if key in problem:
            problem[key] = _number(problem[key], f"problem.{key}")
    problem["rhs"] = _fn_ref(problem["rhs"], "problem.rhs")
    spec = catalog.build_problem_spec(problem)  # validates kind/orders/rhs parameters

    grid = _object(doc["grid"], "grid", ("t_end", "n_steps"), ("refinement_levels",))
    for key, value in grid.items():
        grid[key] = _value(key, value, f"grid.{key}")
    shift = grid.get("refinement_levels", 1) - 1
    # a shift, since 2**(refinement_levels - 1) itself may not fit in memory
    if grid["n_steps"] > _MAX_FINEST_STEPS >> shift:
        raise ConfigError(f"grid: the finest grid, n_steps * 2**(refinement_levels - 1), "
                          f"must have at most 2**24 = {_MAX_FINEST_STEPS} steps")
    # a step below the smallest normal float rounds node 1 onto tau = 0
    if grid["t_end"] / (grid["n_steps"] << shift) < sys.float_info.min:
        raise ConfigError(f"grid: the finest step, t_end / (n_steps * 2**(refinement_levels "
                          f"- 1)), must be at least {sys.float_info.min:g}")

    if not isinstance(doc["checks"], list):
        raise ConfigError("checks must be a list")
    checks = []
    produced: set[str] = set()
    for i, check in enumerate(doc["checks"]):
        where = f"checks[{i}]"
        if not isinstance(check, dict):
            raise ConfigError(f"{where} must be an object")
        name = check.get("name")
        if not isinstance(name, str) or name not in _CHECKS:
            raise ConfigError(f"{where}: unknown check {name!r}; known: "
                              f"{sorted(_CHECKS)}")
        table = _CHECKS[name]
        check = {**table.optional,
                 **_object(check, where, ("name", *table.required), table.optional)}
        checks.append(check)
        for key, value in check.items():
            if key != "name":
                check[key] = _value(key, value, f"{where}.{key}")
        # rules that read the problem, the grid or the preceding checks
        if table.kind not in (None, spec.kind):
            raise ConfigError(f"{where}: {name} applies to {table.kind.value} problems only")
        if grid["t_end"] < table.min_t_end:
            raise ConfigError(f"{where}: {name} needs grid.t_end >= {table.min_t_end:g}")
        try:  # the rules the evaluators themselves state
            if name == "boundedness":
                tau0 = (grid["t_end"] / grid["n_steps"] if check["tau0"] == "step"
                        else check["tau0"])
                bounds.singular_convolution_constant(spec.alpha, spec.beta, check["q"], tau0)
            if name == "slope":
                slope_window_start(grid["n_steps"], check["window_fraction"])
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if name == "order" and grid.get("refinement_levels", 1) < 2:
            raise ConfigError(f"{where}: order needs grid.refinement_levels >= 2")
        if name == "closed_form" and catalog.exact_solution(problem) is None:
            raise ConfigError(f"{where}: problem has no exact solution in the catalog")
        if name == "regression" and check["key"] not in produced:
            raise ConfigError(
                f"{where}: regression key {check['key']!r} is not produced by "
                f"any preceding check")
        produced.update(table.produces)

    output = _object(doc.get("output", {}), "output", optional=("csv_path", "report_path"))
    for key, path in output.items():
        if not isinstance(path, str):
            raise ConfigError(f"output.{key} must be a string")
    return ExperimentConfig(
        ident=ident,
        problem=problem,
        grid=grid,
        checks=tuple(checks),
        output=output,
        seed=_number(doc.get("seed", 0), "seed", int),
    )


def load_builtin_config(ident: str) -> ExperimentConfig:
    if ident not in catalog.BUILTIN_CONFIGS:
        raise ConfigError(f"unknown builtin config {ident!r}; known: "
                          f"{catalog.builtin_config_ids()}")
    text = resources.files("fracasym.configs").joinpath(f"{ident}.json").read_text()
    return load_config(json.loads(text))


def load_expectations(ident: str) -> dict:
    """Pinned regression values for a config id, with the grid they were
    pinned on under "grid"; empty when none exist."""
    ref = resources.files("fracasym.expectations").joinpath(f"{ident}.json")
    return json.loads(ref.read_text()) if ref.is_file() else {}


# --------------------------------------------------------------------------
# the runner

def run(config: ExperimentConfig, out_dir=None,
        expectations: dict[str, float] | None = None) -> RunReport:
    """Solve, evaluate the configured checks, write artifacts."""
    report, (sol,), early = _solved(config, "run", [config.n_steps])
    if expectations is None:
        expectations = load_expectations(config.ident)
    return _finish(report, _Context(config, sol, report.measured, expectations), out_dir,
                   early)


def _solved(config: ExperimentConfig, command: str, levels: list[int]):
    # a check the command cannot evaluate is rejected first, so it costs no solve
    for check in config.checks:
        if command not in _CHECKS[check["name"]].commands:
            raise ConfigError(f"check {check['name']!r} is not valid for {command}()")
    report = RunReport(config=config)
    t0 = time.perf_counter()
    # checks that read no solution go first, so that their errors cost no
    # solve; _finish reports every check in config order
    early = {i: _evaluate(check, _Context(config, None, report.measured, {}))
             for i, check in enumerate(config.checks)
             if not _CHECKS[check["name"]].reads_solution}
    early_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    spec = catalog.build_problem_spec(config.problem)
    # the solver names are looked up when called, so a wrapper set on this
    # module (as perfbench's tracer does) sees every solve
    solve = solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential
    # every level slices its weights from one table per order, built at the finest
    weights = trapezoid_table(max(levels))
    sols = [solve(spec, config.t_end, n, weights=weights) for n in levels]
    report.timings["solve"] = time.perf_counter() - t0
    report.timings["checks"] = early_s
    return report, sols, early


def _evaluate(check: dict, ctx: _Context) -> CheckResult:
    """The check's result on ctx; a violated hypothesis is a result too."""
    table = _CHECKS[check["name"]]
    try:
        built = {k: _REFS[k](v["name"], v.get("params")) if k in _REFS else v
                 for k, v in check.items()}
        result, values = table.evaluate(built, ctx)
        ctx.measured.update(zip(table.produces, values, strict=True))
    except HypothesisViolation as exc:
        result = CheckResult(check["name"], "FAILED-HYPOTHESIS", str(exc),
                             "hypothesis holds", "-")
    return result


def _finish(report: RunReport, ctx: _Context, out_dir, early: dict) -> RunReport:
    """Evaluate the configured checks on ctx, except the results in early
    (by check index), then write the artifacts."""
    t0 = time.perf_counter()
    for i, check in enumerate(report.config.checks):
        report.checks.append(early[i] if i in early else _evaluate(check, ctx))
    report.timings["checks"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    report.csv_path = _resolve_out(report.config.output.get("csv_path"), out_dir)
    if report.csv_path is not None:
        _write_csv(report.csv_path, ctx.sol, ctx.bound_curve)
    report.report_path = _resolve_out(report.config.output.get("report_path"), out_dir)
    if report.report_path is not None:
        report.report_path.write_text(report.render())
    report.timings["write"] = time.perf_counter() - t0
    return report


# --------------------------------------------------------------------------
# artifacts

def _resolve_out(path_str: str | None, out_dir) -> Path | None:
    if not path_str:
        return None
    path = Path(out_dir or "", path_str)  # an absolute path_str ignores out_dir
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, sol, bound_curve) -> None:
    from ._csvformat import format_rows  # imported on the first write, not with harness

    taus = sol.x.taus
    alpha = sol.spec.alpha
    n = taus.size
    curve = bound_curve if bound_curve is not None else np.full(n, np.nan)
    ratio = np.full(n, np.nan)
    ratio[1:] = sol.x.values[1:] / taus[1:] ** alpha
    cols = (taus, sol.x.values, sol.dbeta_x.values, sol.dalpha_x.values, curve, ratio)
    with path.open("wb") as out:
        out.write(CSV_HEADER.encode() + b"\n")
        # formatting a chunk of rows at a time bounds the memory the text takes
        for start in range(0, n, _CSV_CHUNK_ROWS):
            out.write(format_rows(np.column_stack(
                [col[start:start + _CSV_CHUNK_ROWS] for col in cols])))


# --------------------------------------------------------------------------
# convergence study

def convergence_study(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Run the problem on refinement_levels doubling grids against the
    catalog exact solution; report max errors and empirical orders."""
    exact = catalog.exact_solution(config.problem)
    if exact is None:
        raise ConfigError(f"config {config.ident!r} has no exact solution to study")
    levels = [config.n_steps * 2 ** k for k in range(config.refinement_levels)]
    report, sols, early = _solved(config, "convergence_study", levels)
    errors = [_max_error(sol, exact) for sol in sols]

    for n, e in zip(levels, errors):
        report.info_lines.append(f"level n_steps={n} max_error={e:.9e}")
    orders = []
    at_roundoff = all(e < 1e-12 for e in errors)
    for i in range(len(errors) - 1):
        if errors[i + 1] == 0.0 or at_roundoff:
            orders.append(math.inf)
        else:
            orders.append(math.log2(errors[i] / errors[i + 1]))
        label = "exact" if math.isinf(orders[-1]) else f"{orders[-1]:.4f}"
        report.info_lines.append(f"order {levels[i]}->{levels[i + 1]}: {label}")

    return _finish(report, _Context(config, sols[-1], report.measured, {}, orders, errors),
                   out_dir, early)


# --------------------------------------------------------------------------
# pin + catalog listing

def pin(config: ExperimentConfig, expectations_dir: Path, out_dir=None) -> Path:
    """Run the experiment skipping regression checks and write the measured
    values as the pinned expectations for this config id, with the grid
    (t_end, n_steps) they hold for.

    Pins are meant to be generated once, reviewed and committed; rerunning
    pin on purpose is how expectations get refreshed.
    """
    stripped = dataclasses.replace(config, output={}, checks=tuple(
        c for c in config.checks if c["name"] != "regression"))
    report = run(stripped, out_dir=out_dir, expectations={})
    path = _resolve_out(f"{config.ident}.json", expectations_dir)
    payload = {k: v for k, v in sorted(report.measured.items())
               if isinstance(v, float) and math.isfinite(v)}
    payload["grid"] = {"n_steps": config.n_steps, "t_end": config.t_end}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def list_catalog() -> str:
    """Human-readable listing of everything configs can reference."""
    lines = ["builtin experiment configs:"]
    for ident in catalog.builtin_config_ids():
        lines.append(f"  {ident}: {catalog.BUILTIN_CONFIGS[ident]}")
    for header, table in (("right-hand sides (problem.rhs.name):", catalog.RHS),
                          ("comparison functions (phi.name):", catalog.PHI),
                          ("weight/tail integrands (weight.name, integrand.name):",
                           catalog.INTEGRANDS)):
        lines.append(header)
        lines.extend(f"  {ident}: {text}" for ident, (_, text) in sorted(table.items()))
    lines.append("checks: " + ", ".join(sorted(_CHECKS)))
    return "\n".join(lines) + "\n"
