"""The benchmark's workloads: their inputs, one operation each, and the
correctness gate every operation passes through.

Both are closed loops with one client in the benchmark's own process: each
operation starts when the previous one has finished.

solve_large   in-process `harness.run` at N = 32768 with CSV output.  The
              O(N^2) history sums in `_core.pc_sums` dominate.
sweep_small   in-process `harness.convergence_study` on manufactured
              problems drawn from the seed, N = 256, 512, 1024.  The same
              kernels as many short calls, so per-call and per-step costs
              dominate; the closed-form solution is the accuracy reference.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracasym import harness

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Relative tolerance of the reference comparisons, applied to each value's
# scale.  It accepts reorderings of the history sums (about 1e-12) and more
# accurate quadrature weights (about 1e-7 at N = 32768), and rejects any
# change that moves a result by a millionth of its size.
RTOL = 1e-6


@dataclass
class Op:
    key: str
    steps: int
    wall: float
    failures: list[str] = field(default_factory=list)
    traced: bool = False


_REFERENCE_DATA: dict[int, list[np.ndarray]] = {}


def reference_loop(sizes) -> float:
    """Wall time of one pass of a fixed history-sum loop that uses no
    fracasym code.

    For each n in sizes, at every step m = 1..n (every n // 8192-th step
    when n > 8192) it forms the four sums of a sequential predictor-corrector
    step, sum_{j<m} w[m-j] * f[j] over four weight vectors, with the
    reversed-view numpy dot products the numpy kernels use, on fixed random
    data.  Its working set is that of the solver's history sums at the same
    n.  Timed in alternation with the operations, it measures how fast the
    shared host runs at the time.
    """
    for n in sizes:
        if n not in _REFERENCE_DATA:
            rng = np.random.default_rng(n)
            _REFERENCE_DATA[n] = [rng.random(n + 1) for _ in range(4)] + [rng.random(n)]
    t0 = time.perf_counter()
    for n in sizes:
        w1, w2, w3, w4, f = _REFERENCE_DATA[n]
        for m in range(1, n + 1, max(1, n // 8192)):
            float(np.dot(w1[1:m + 1][::-1], f[:m]))
            float(np.dot(w2[1:m][::-1], f[1:m]))
            float(np.dot(w3[1:m + 1][::-1], f[:m]))
            float(np.dot(w4[1:m][::-1], f[1:m]))
    return time.perf_counter() - t0


def grid_steps(config) -> int:
    """Grid steps one run or study of `config` solves (every level of a study)."""
    return config.n_steps * (2 ** config.refinement_levels - 1)


def load_references(workload: str) -> dict:
    return json.loads(REFERENCES.read_text()).get(workload, {}) if REFERENCES.is_file() else {}


def _timed(fn, tracer):
    """Run fn as one operation; inside an "op" span when tracing."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    with tracer.span("op") as i:
        out = fn()
    return out, tracer.cols["end"][i] - tracer.cols["start"][i]


def compare(observed: dict, ref: dict, rtol: float = RTOL) -> list[str]:
    """Differences between an operation's observed outputs and its reference.

    Keys `measured` and `samples` hold numbers compared within rtol times the
    reference's scale (`scale` per measured value, `col_scale` per CSV
    column); every other key must match exactly.
    """
    failures = []
    for key, want in ref.items():
        if key in ("scale", "col_scale"):
            continue
        got = observed.get(key)
        if key == "measured":
            for name, value in want.items():
                tol = rtol * ref["scale"][name]
                if name not in got or not abs(got[name] - value) <= tol:
                    failures.append(f"measured {name}={got.get(name)} vs {value} (tol {tol:.3g})")
        elif key == "samples":
            for row, values in want.items():
                for col, (g, v) in enumerate(zip(got.get(row, [None] * len(values)), values)):
                    tol = rtol * (ref["col_scale"][col] or 0.0)
                    if (g is None) != (v is None) or (v is not None and not abs(g - v) <= tol):
                        failures.append(f"csv row {row} col {col}: {g} vs {v}")
        elif got != want:
            failures.append(f"{key}: {got!r} vs reference {want!r}")
    return failures


class Workload:
    name = ""
    size = 0  # the N the workload solves at, for the environment stamp
    ref_sizes: tuple[int, ...] = ()  # grid sizes of the reference loop

    def __init__(self, seed: int, smoke: bool, tmp: Path | None):
        self.seed, self.smoke, self.tmp = seed, smoke, tmp
        self.inputs: list[str] = []
        self.closed_form_err_max = float("nan")

    def load(self) -> None:
        """Build the workload's configs (what set-up time covers)."""
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Gated operations run before timing starts."""
        raise NotImplementedError

    def run(self, key: str, tracer=None) -> Op:
        raise NotImplementedError

    def scaling_ops(self) -> None:
        """Extra traced solves that widen the N range of the scaling fit."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# solve_large

_ENVELOPE = {"name": "bound_envelope", "tolerance": 1e-9,
             "phi": {"name": "power", "params": {"exponent": 0.5}},
             "weight": {"name": "exp_decay", "params": {"rate": 1.0}}}
_BOUNDEDNESS = {"name": "boundedness", "tolerance": 1e-9, "q": 4.0,
                "phi1": {"name": "power_plus_one", "params": {"exponent": 0.6}},
                "phi2": {"name": "power_plus_one",
                         "params": {"exponent": 0.3333333333333333}},
                "weight": {"name": "exp_decay", "params": {"rate": 1.0}},
                "tau0": "step", "variant": "corrected"}
# Problems of two builtin configs with benchmark-owned checks.  The builtin
# regression checks are left out: their pins hold values for the builtin N.
# example63 itself is not used: its trajectory is identically zero.
LARGE_PROBLEMS = {
    "sl_example46": ("example46", [
        {"name": "slope", "tolerance": 0.01, "window_fraction": 0.25},
        {"name": "lhopital", "tolerance": 0.1},
        _ENVELOPE,
        {"name": "residual", "tolerance": 1e-2}]),
    "sl_example63_forced": ("example63_forced", [_BOUNDEDNESS]),
}
# measured values that are differences of solution quantities are compared
# relative to the size of that quantity (a CSV column), not to themselves
_DIFFERENCE_SCALE = {"integral_defect": 1, "slope_spread": 5, "lhopital_residual": 5}
_CSV_SAMPLES = 17


def _number(text: str):
    v = float(text)
    return None if np.isnan(v) else v


def large_observed(report, csv_path: Path) -> dict:
    lines = csv_path.read_text().splitlines() if csv_path.is_file() else [""]
    rows = lines[1:]
    picks = sorted(set(np.linspace(0, max(len(rows) - 1, 0), _CSV_SAMPLES).round().astype(int)))
    samples = {str(i): [_number(v) for v in rows[i].split(",")] for i in picks if rows}
    col_scale = []
    for col in zip(*samples.values()):
        finite = [abs(v) for v in col if v is not None]
        col_scale.append(max(finite) if finite else None)
    measured = {k: v for k, v in report.measured.items() if isinstance(v, float)}
    scale = {k: (col_scale[_DIFFERENCE_SCALE[k]] if k in _DIFFERENCE_SCALE else abs(v))
             for k, v in measured.items()}
    return {"exit_code": report.exit_code,
            "checks": [[c.name, c.status] for c in report.checks],
            "header": lines[0], "rows": len(rows), "samples": samples,
            "col_scale": col_scale, "measured": measured, "scale": scale}


class SolveLarge(Workload):
    name = "solve_large"

    def load(self):
        self.size = 4096 if self.smoke else 32768
        self.ref_sizes = (self.size,)
        self.configs = {key: self._config(key, self.size) for key in LARGE_PROBLEMS}
        self.inputs = sorted(self.configs, reverse=self.seed % 2 == 1)
        # accuracy probe: a manufactured sequential problem at the same N
        self.probe = harness.load_config({
            "id": "sl_probe",
            "problem": {"kind": "sequential", "alpha": 0.5, "beta": 0.25, "b1": 0.0,
                        "b2": 0.0, "rhs": {"name": "manufactured_power_mu",
                                           "params": {"mu": 2.0}}},
            "grid": {"t_end": 1.0, "n_steps": self.size},
            "checks": [{"name": "closed_form", "tolerance": 1e-5}]})
        self.refs = load_references(self.name).get(str(self.size), {})

    def _config(self, key, n, csv=True):
        base_id, checks = LARGE_PROBLEMS[key]
        base = harness.load_builtin_config(base_id)
        return harness.load_config({
            "id": key, "problem": base.problem,
            "grid": {"t_end": base.t_end, "n_steps": n}, "checks": checks,
            "output": {"csv_path": f"{key}.csv"} if csv else {}, "seed": base.seed})

    def warmup(self):
        report, wall = _timed(lambda: harness.convergence_study(self.probe), None)
        op = Op("sl_probe", self.size, wall)
        if report.exit_code != 0:
            op.failures.append(f"accuracy probe failed: {[c.line() for c in report.checks]}")
        self.closed_form_err_max = report.measured["closed_form_error"]
        return [op]

    def observe(self, key, tracer=None):
        config = self.configs[key]
        csv_path = self.tmp / config.output["csv_path"]
        csv_path.unlink(missing_ok=True)
        report, wall = _timed(lambda: harness.run(config, out_dir=self.tmp), tracer)
        return large_observed(report, csv_path), wall

    def run(self, key, tracer=None):
        observed, wall = self.observe(key, tracer)
        if key not in self.refs:
            return Op(key, self.size, wall, [f"no reference for {key} at N={self.size}"])
        return Op(key, self.size, wall, compare(observed, self.refs[key]))

    def scaling_ops(self):
        for n in (self.size // 4, self.size // 2):
            for key in self.inputs:
                harness.run(self._config(key, n, csv=False))


# --------------------------------------------------------------------------
# sweep_small

_SWEEP_TOLERANCE = {"direct": 1e-6, "sequential": 1e-3}  # largest seen: 1.6e-7, 4.5e-4


class SweepSmall(Workload):
    name = "sweep_small"
    size = 1024
    ref_sizes = (256, 512, 1024)

    def load(self):
        # alpha is stratified over (0.3, 0.9) per kind, so the largest error
        # of a cycle (set by the largest sequential alpha) barely moves with
        # the seed.
        per_kind = 2 if self.smoke else 64
        rng = np.random.default_rng(self.seed)
        alphas = {kind: rng.permutation(0.3 + 0.6 * (np.arange(per_kind) + rng.random(per_kind))
                                        / per_kind)
                  for kind in ("direct", "sequential")}
        self.configs = {}
        for i in range(2 * per_kind):
            kind = ("direct", "sequential")[i % 2]
            alpha = float(alphas[kind][i // 2])
            beta = alpha * float(rng.uniform(0.05, 0.95))
            problem = {"kind": kind, "alpha": alpha, "beta": beta, "b1": 0.0,
                       "rhs": {"name": "manufactured_power_mu", "params": {"mu": 2.0}}}
            if kind == "sequential":
                problem["b2"] = 0.0
            key = f"sweep{i:03d}"
            self.configs[key] = harness.load_config({
                "id": key, "problem": problem,
                "grid": {"t_end": 1.0, "n_steps": 256, "refinement_levels": 3},
                "checks": [{"name": "closed_form", "tolerance": _SWEEP_TOLERANCE[kind]},
                           {"name": "order", "min_order": 1.0}]})
        self.inputs = list(self.configs)
        self.errors: dict[str, float] = {}

    def warmup(self):
        ops = [self.run(key) for key in self.inputs]
        self.closed_form_err_max = max(self.errors.values())
        return ops

    def run(self, key, tracer=None):
        config = self.configs[key]
        report, wall = _timed(lambda: harness.convergence_study(config), tracer)
        op = Op(key, grid_steps(config), wall)
        if report.exit_code != 0:
            op.failures.append("checks failed: " + "; ".join(c.line() for c in report.checks))
        err = report.measured.get("closed_form_error")
        if self.errors.setdefault(key, err) != err:
            op.failures.append(f"closed-form error {err!r} differs from first run "
                               f"{self.errors[key]!r}")
        return op


WORKLOADS = {w.name: w for w in (SolveLarge, SweepSmall)}
