"""Config-driven experiment runner.

A single JSON document describes a problem, a grid, the checks to evaluate
and the output artifacts.  Unknown keys anywhere in the document are
errors; silent typo tolerance is how wrong experiments get published.

Checks report one verdict line each.  A failed integrability/divergence
hypothesis marks the check FAILED-HYPOTHESIS and the run continues; a
solver failure aborts the run.  Exit-code contract (used by the CLI):
0 all checks pass, 2 any hypothesis violation, 1 anything else.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import catalog
from ._core import backend_name
from .asymptotics import (boundedness_verdict, improper_tail, lhopital_lemma_term,
                          lhopital_residual, power_slope)
from .bounds import growth_envelope_constants, uniform_bound_constant
from .errors import ConfigError, HypothesisViolation
from .grid import GridFunction
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

class _Check(NamedTuple):
    required: tuple = ()  # keys besides "name"
    optional: tuple = ()
    produces: tuple = ()  # measured values a later regression check may pin


_CHECKS = {
    "closed_form": _Check(("tolerance",), produces=("closed_form_error",)),
    "residual": _Check(("tolerance",), produces=("integral_defect",)),
    "slope": _Check(("tolerance",), ("window_fraction",),
                    ("slope_accelerated", "slope_raw", "slope_spread")),
    "lhopital": _Check(("tolerance",),
                       produces=("lhopital_residual", "lhopital_lemma_term")),
    "bound_envelope": _Check(("tolerance", "phi", "weight"),
                             produces=("envelope_c1", "envelope_c2", "envelope_ratio")),
    "boundedness": _Check(("tolerance", "q", "phi1", "phi2", "weight"), ("tau0", "variant"),
                          ("sup_x", "sup_dbeta", "bound_constant")),
    "hypothesis": _Check(("integrand", "expect"), ("weight_power", "split")),
    "order": _Check(("min_order",)),
    "regression": _Check(("key", "tolerance")),
}
# check keys that hold a number, in whichever check they appear
_CHECK_NUMBERS = ("tolerance", "window_fraction", "q", "weight_power", "split", "min_order")

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
    status: str  # PASS | FAIL | FAILED-HYPOTHESIS
    measured: object
    expected: object
    tolerance: object

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

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
        return all(c.passed for c in self.checks)

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
            f"backend: {backend_name()}",
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
# config loading and validation

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
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _fn_ref(d, where: str) -> dict:
    """A catalog reference {"name", "params"}; every parameter is a number."""
    ref = _object(d, where, ("name",), ("params",))
    params = ref.get("params")
    if params is not None:
        if not isinstance(params, dict):
            raise ConfigError(f"{where}.params must be an object")
        ref["params"] = {k: _number(v, f"{where}.params.{k}") for k, v in params.items()}
    return ref


def load_config(source) -> ExperimentConfig:
    """Parse and validate a config from a dict or a JSON file path.

    Every number the runner reads is converted here, so a malformed document
    of any shape raises ConfigError before anything is solved.
    """
    try:
        return _load_config(source)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # json.JSONDecodeError and the catalog's DomainError are ValueErrors
        raise ConfigError(f"malformed config: {type(exc).__name__}: {exc}") from exc


def _load_config(source) -> ExperimentConfig:
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    elif isinstance(source, dict):
        doc = source
    else:
        raise ConfigError(f"cannot load config from {type(source).__name__}")
    doc = _object(doc, "config", ("id", "problem", "grid", "checks"), ("output", "seed"))

    problem = _object(doc["problem"], "problem", ("kind", "alpha", "b1", "rhs"),
                      ("beta", "b2"))
    for key in ("alpha", "beta", "b1", "b2"):
        if key in problem:
            problem[key] = _number(problem[key], f"problem.{key}")
    problem["rhs"] = _fn_ref(problem["rhs"], "problem.rhs")
    catalog.build_problem_spec(problem)  # validates kind/orders/rhs parameters

    grid = _object(doc["grid"], "grid", ("t_end", "n_steps"), ("refinement_levels",))
    grid["t_end"] = _number(grid["t_end"], "grid.t_end")
    grid["n_steps"] = _number(grid["n_steps"], "grid.n_steps", int)
    if not 0 < grid["t_end"] < math.inf:
        raise ConfigError("grid.t_end must be positive and finite")
    if grid["n_steps"] < 2:
        raise ConfigError("grid.n_steps must be >= 2")
    if "refinement_levels" in grid:
        grid["refinement_levels"] = _number(grid["refinement_levels"],
                                            "grid.refinement_levels", int)
        if grid["refinement_levels"] < 1:
            raise ConfigError("grid.refinement_levels must be >= 1")

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
        check = _object(check, where, ("name", *table.required), table.optional)
        checks.append(check)
        for key in _CHECK_NUMBERS:
            if key in check:
                check[key] = _number(check[key], f"{where}.{key}")
        if "tolerance" in check and not check["tolerance"] > 0:
            raise ConfigError(f"{where}: tolerance must be positive")
        for ref in ("phi", "phi1", "phi2", "weight", "integrand"):
            if ref in check:
                check[ref] = _fn_ref(check[ref], f"{where}.{ref}")
                make = catalog.make_phi if ref.startswith("phi") else catalog.make_weight
                make(check[ref]["name"], check[ref].get("params"))
        if name == "boundedness":
            if not check["q"] > 1:
                raise ConfigError(f"{where}: q must exceed 1")
            if check.get("tau0", "step") != "step":
                check["tau0"] = _number(check["tau0"], f"{where}.tau0")
            if check.get("variant", "corrected") not in ("corrected", "literal"):
                raise ConfigError(f"{where}: variant must be 'corrected' or 'literal'")
        if name == "hypothesis" and check["expect"] not in ("converges", "diverges",
                                                            "inconclusive"):
            raise ConfigError(f"{where}: expect must name a verdict")
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
        ident=str(doc["id"]),
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


def load_expectations(ident: str, directory: Path | None = None) -> dict[str, float]:
    """Pinned regression values for a config id; empty when none exist."""
    if directory is not None:
        path = Path(directory) / f"{ident}.json"
        return json.loads(path.read_text()) if path.exists() else {}
    try:
        ref = resources.files("fracasym.expectations").joinpath(f"{ident}.json")
        if ref.is_file():
            return json.loads(ref.read_text())
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    return {}


# --------------------------------------------------------------------------
# the runner

def run(config: ExperimentConfig, out_dir=None,
        expectations: dict[str, float] | None = None) -> RunReport:
    """Solve, evaluate the configured checks, write artifacts."""
    report = RunReport(config=config)
    if expectations is None:
        expectations = load_expectations(config.ident)

    t0 = time.perf_counter()
    spec = catalog.build_problem_spec(config.problem)
    sol = _solve(spec, config.t_end, config.n_steps)
    report.timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bound_curve = None
    for check in config.checks:
        result, curve = _evaluate_check(check, config, sol, report.measured,
                                        expectations)
        report.checks.append(result)
        if curve is not None:
            bound_curve = curve
    report.timings["checks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _write_artifacts(report, sol, bound_curve, out_dir)
    report.timings["write"] = time.perf_counter() - t0
    return report


def _solve(spec, t_end: float, n_steps: int):
    # the solver names are looked up when called, so a wrapper set on this
    # module (as perfbench's tracer does) sees every solve
    solve = solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential
    return solve(spec, t_end, n_steps)


def _evaluate_check(check: dict, config: ExperimentConfig, sol, measured_registry,
                    expectations):
    name = check["name"]
    try:
        if name == "closed_form":
            exact = catalog.exact_solution(config.problem)
            err = float(np.max(np.abs(sol.x.values - exact(sol.x.taus))))
            measured_registry["closed_form_error"] = err
            return _threshold_result(name, err, check["tolerance"]), None

        if name == "residual":
            defect = residual_check(sol)
            measured_registry["integral_defect"] = defect
            return _threshold_result(name, defect, check["tolerance"]), None

        if name == "slope":
            est = power_slope(sol, check.get("window_fraction", 0.25))
            measured_registry["slope_accelerated"] = est.accelerated
            measured_registry["slope_raw"] = est.raw_tail
            measured_registry["slope_spread"] = est.spread
            rel_spread = est.spread / max(abs(est.accelerated), 1e-300)
            return _threshold_result(name, rel_spread, check["tolerance"]), None

        if name == "lhopital":
            # the verdict bounds the lemma term; the raw residual also holds
            # the initial-value term b1/T^alpha, which no grid removes
            lemma = lhopital_lemma_term(sol)
            measured_registry["lhopital_residual"] = lhopital_residual(sol)
            measured_registry["lhopital_lemma_term"] = lemma
            return _threshold_result(name, abs(lemma), check["tolerance"]), None

        if name == "bound_envelope":
            return _check_bound_envelope(check, config, sol, measured_registry)

        if name == "boundedness":
            return _check_boundedness(check, config, sol, measured_registry)

        if name == "hypothesis":
            integrand = check["integrand"]
            est = improper_tail(integrand["name"], check.get("weight_power", 0.0),
                                check.get("split", 1.0), integrand.get("params"))
            ok = est.verdict == check["expect"]
            return CheckResult(name, "PASS" if ok else "FAIL",
                               est.verdict, check["expect"], "exact"), None

        if name == "regression":
            key = check["key"]
            val = measured_registry.get(key)
            pinned = expectations.get(key)
            tol = check["tolerance"]
            if val is None:
                return CheckResult(f"regression_{key}", "FAIL", "not-measured",
                                   pinned, tol), None
            if pinned is None:
                return CheckResult(f"regression_{key}", "FAIL", val,
                                   "missing-pin", tol), None
            ok = abs(val - pinned) <= tol * max(abs(pinned), 1e-300)
            return CheckResult(f"regression_{key}", "PASS" if ok else "FAIL",
                               val, pinned, tol), None
    except HypothesisViolation as exc:
        return CheckResult(name, "FAILED-HYPOTHESIS", str(exc), "hypothesis holds",
                           "-"), None
    raise ConfigError(f"check {name!r} is not valid for run()")


def _threshold_result(name: str, measured: float, tol: float) -> CheckResult:
    status = "PASS" if measured <= tol else "FAIL"
    return CheckResult(name, status, measured, 0.0, tol)


def _check_bound_envelope(check, config, sol, measured_registry):
    spec = sol.spec
    phi = catalog.make_phi(check["phi"]["name"], check["phi"].get("params"))
    weight = catalog.make_weight(check["weight"]["name"],
                                 check["weight"].get("params"))
    taus = sol.x.taus
    pgrid = GridFunction(sol.x.t_end, np.array([weight.fn(t) for t in taus]))
    tail = improper_tail(weight, weight_power=spec.alpha, split=1.0)
    if tail.verdict != "converges":
        raise HypothesisViolation(
            f"weighted tail integral of {weight.ident} must converge "
            f"(verdict: {tail.verdict})")
    bound = growth_envelope_constants(spec.b1, spec.b2, spec.alpha, pgrid, phi,
                                      tail_integral=tail.finite_estimate)
    curve = bound.curve.values
    ratio = float(np.max(np.abs(sol.x.values) / curve))
    measured_registry["envelope_c1"] = bound.constants["C1"]
    measured_registry["envelope_c2"] = bound.constants["C2"]
    measured_registry["envelope_ratio"] = ratio
    tol = check["tolerance"]
    status = "PASS" if ratio <= 1.0 + tol else "FAIL"
    return CheckResult("bound_envelope", status, ratio, 1.0, tol), curve


def _check_boundedness(check, config, sol, measured_registry):
    spec = sol.spec
    phi1 = catalog.make_phi(check["phi1"]["name"], check["phi1"].get("params"))
    phi2 = catalog.make_phi(check["phi2"]["name"], check["phi2"].get("params"))
    weight = catalog.make_weight(check["weight"]["name"],
                                 check["weight"].get("params"))
    taus = sol.x.taus
    hgrid = GridFunction(sol.x.t_end, np.array([weight.fn(t) for t in taus]))
    tau0 = sol.x.step if check.get("tau0", "step") == "step" else check["tau0"]
    bound = uniform_bound_constant(spec, hgrid, phi1, phi2, tau0, q=check["q"],
                                   variant=check.get("variant", "corrected"))
    tol = check["tolerance"]
    verdict = boundedness_verdict(sol, bound, tolerance=tol)
    c = bound.constants["C"]
    measured_registry["sup_x"] = verdict.sup_x
    measured_registry["sup_dbeta"] = verdict.sup_dbeta
    measured_registry["bound_constant"] = c
    ratio = max(verdict.sup_x, verdict.sup_dbeta) / c if c > 0 else math.inf
    status = "PASS" if verdict.within_bound else "FAIL"
    curve = bound.curve.values if bound.curve is not None else None
    return CheckResult("boundedness", status, ratio, 1.0, tol), curve


# --------------------------------------------------------------------------
# artifacts

def _resolve_out(path_str: str | None, out_dir) -> Path | None:
    if not path_str:
        return None
    path = Path(path_str)
    if not path.is_absolute() and out_dir is not None:
        path = Path(out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifacts(report: RunReport, sol, bound_curve, out_dir) -> None:
    config = report.config
    csv_path = _resolve_out(config.output.get("csv_path"), out_dir)
    if csv_path is not None:
        _write_csv(csv_path, sol, bound_curve)
        report.csv_path = csv_path
    report_path = _resolve_out(config.output.get("report_path"), out_dir)
    if report_path is not None:
        report_path.write_text(report.render())
        report.report_path = report_path


def _write_csv(path: Path, sol, bound_curve) -> None:
    taus = sol.x.taus
    alpha = sol.spec.alpha
    n = taus.size
    curve = bound_curve if bound_curve is not None else np.full(n, np.nan)
    ratio = np.full(n, np.nan)
    ratio[1:] = sol.x.values[1:] / taus[1:] ** alpha
    cols = (taus, sol.x.values, sol.dbeta_x.values, sol.dalpha_x.values, curve, ratio)
    table = np.column_stack(cols)
    row_fmt = ",".join(["%.16e"] * len(cols)) + "\n"
    with path.open("w", encoding="utf-8") as out:
        out.write(CSV_HEADER + "\n")
        # formatting a chunk of rows at a time bounds the memory the text takes
        for start in range(0, n, _CSV_CHUNK_ROWS):
            rows = table[start:start + _CSV_CHUNK_ROWS].tolist()
            out.write("".join([row_fmt % tuple(row) for row in rows]))


# --------------------------------------------------------------------------
# convergence study

def convergence_study(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Run the problem on refinement_levels doubling grids against the
    catalog exact solution; report max errors and empirical orders."""
    exact = catalog.exact_solution(config.problem)
    if exact is None:
        raise ConfigError(f"config {config.ident!r} has no exact solution to study")
    spec = catalog.build_problem_spec(config.problem)
    report = RunReport(config=config)

    t0 = time.perf_counter()
    errors = []
    levels = [config.n_steps * 2 ** k for k in range(config.refinement_levels)]
    finest_sol = None
    for n in levels:
        sol = _solve(spec, config.t_end, n)
        errors.append(float(np.max(np.abs(sol.x.values - exact(sol.x.taus)))))
        finest_sol = sol
    report.timings["solve"] = time.perf_counter() - t0

    orders = []
    at_roundoff = all(e < 1e-12 for e in errors)
    for i in range(len(errors) - 1):
        if errors[i + 1] == 0.0 or at_roundoff:
            orders.append(math.inf)
        else:
            orders.append(math.log2(errors[i] / errors[i + 1]))
    for n, e in zip(levels, errors):
        report.info_lines.append(f"level n_steps={n} max_error={e:.9e}")
    for i, o in enumerate(orders):
        label = "exact" if math.isinf(o) else f"{o:.4f}"
        report.info_lines.append(
            f"order {levels[i]}->{levels[i + 1]}: {label}")

    for check in config.checks:
        name = check["name"]
        if name == "closed_form":
            measured = errors[-1]
            report.measured["closed_form_error"] = measured
            report.checks.append(_threshold_result(name, measured, check["tolerance"]))
        elif name == "order":
            min_order = check["min_order"]
            measured = min(orders) if orders else math.inf
            status = "PASS" if (at_roundoff or measured >= min_order) else "FAIL"
            shown = "exact" if math.isinf(measured) else measured
            report.checks.append(CheckResult(name, status, shown, min_order, "-"))
        else:
            raise ConfigError(f"check {name!r} is not valid for convergence_study()")

    t0 = time.perf_counter()
    _write_artifacts(report, finest_sol, None, out_dir)
    report.timings["write"] = time.perf_counter() - t0
    return report


# --------------------------------------------------------------------------
# pin + catalog listing

def pin(config: ExperimentConfig, expectations_dir: Path, out_dir=None) -> Path:
    """Run the experiment skipping regression checks and write the measured
    values as the pinned expectations for this config id.

    Pins are meant to be generated once, reviewed and committed; rerunning
    pin on purpose is how expectations get refreshed.
    """
    stripped = ExperimentConfig(
        ident=config.ident, problem=config.problem, grid=config.grid,
        checks=tuple(c for c in config.checks if c["name"] != "regression"),
        output={}, seed=config.seed)
    report = run(stripped, out_dir=out_dir, expectations={})
    path = Path(expectations_dir) / f"{config.ident}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in sorted(report.measured.items())
               if isinstance(v, float) and math.isfinite(v)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def list_catalog() -> str:
    """Human-readable listing of everything configs can reference."""
    from .asymptotics import integrand_ids

    lines = ["builtin experiment configs:"]
    for ident in catalog.builtin_config_ids():
        lines.append(f"  {ident}: {catalog.BUILTIN_CONFIGS[ident]}")
    lines.append("right-hand sides (problem.rhs.name):")
    for ident in catalog.rhs_ids():
        lines.append(f"  {ident}: {catalog.RHS_DESCRIPTIONS[ident]}")
    lines.append("comparison functions (phi.name):")
    lines.append("  constant [value], identity, power [exponent], "
                 "power_plus_one [exponent]")
    lines.append("weight/tail integrands (weight.name, integrand.name):")
    for ident in integrand_ids():
        lines.append(f"  {ident}")
    lines.append("checks: " + ", ".join(sorted(_CHECKS)))
    return "\n".join(lines) + "\n"
