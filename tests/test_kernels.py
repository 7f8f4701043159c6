"""The names perfbench patches.

perfbench times the kernel layer by replacing `solvers.kernels` and
`fracops.kernels` with wrappers, so the module must stay reachable under
that name from both, and the whole-grid operators must be called through it.
`perfbench/spans.py` also replaces harness, solver, bound and asymptotics
entry points by name; a traced run checks that every one of them exists
and is reached through that name.
"""

import importlib.util
import types
from pathlib import Path

import numpy as np

import fracasym
import fracasym.fracops as fracops
import fracasym.solvers as solvers
from fracasym import harness
from fracasym.grid import GridFunction

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

KERNEL_NAMES = ("pc_sums", "trap_apply", "conv_lower")


def test_solvers_and_fracops_share_one_kernels_module():
    assert fracasym.kernels is solvers.kernels is fracops.kernels
    assert fracasym.backend_name() == "python"  # the benchmark stamps it
    for name in KERNEL_NAMES:
        assert callable(getattr(solvers.kernels, name))


def test_fracops_calls_the_kernels_through_the_module_name(monkeypatch):
    calls = []

    def recording(name):
        fn = getattr(fracops.kernels, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fracops, "kernels", types.SimpleNamespace(
        **{name: recording(name) for name in KERNEL_NAMES}))
    g = GridFunction(2.0, np.linspace(0.0, 1.0, 65) ** 2)

    fracops.rl_integral(g, 0.5)
    assert calls == ["trap_apply"]
    calls.clear()
    fracops.caputo_derivative(g, 0.5)
    assert calls == ["conv_lower"]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_patches_and_restores_every_name(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    before = harness.run
    config = harness.load_config({
        "id": "traced",
        "problem": {"kind": "sequential", "alpha": 0.5, "beta": 0.25, "b1": 1.0,
                    "b2": 1.0, "rhs": {"name": "exp_decay_power",
                                       "params": {"rate": 1.0, "exponent": 0.5}}},
        "grid": {"t_end": 20.0, "n_steps": 128},
        "checks": [{"name": "residual", "tolerance": 1.0},
                   {"name": "slope", "tolerance": 1.0},
                   {"name": "lhopital", "tolerance": 1.0},
                   {"name": "bound_envelope", "tolerance": 1.0,
                    "phi": {"name": "power", "params": {"exponent": 0.5}},
                    "weight": {"name": "exp_decay", "params": {"rate": 1.0}}},
                   {"name": "hypothesis", "expect": "converges",
                    "integrand": {"name": "exp_decay"}}],
        "output": {"csv_path": "traced.csv"},
    })
    with spans.instrumented(tracer):
        assert harness.run is not before
        report = harness.run(config, out_dir=tmp_path)
    assert harness.run is before
    assert report.exit_code == 0
    seen = set(tracer.table()["names"])
    for name in ("harness.run", "solvers.solve_sequential", "solvers.residual_check",
                 "rhs", "fracops.weights", "fracops.rl_integral", "core.trap_apply",
                 "bounds.quad", "bounds.growth_envelope_constants",
                 "asymptotics.power_slope", "asymptotics.lhopital_residual",
                 "asymptotics.improper_tail"):
        assert name in seen, name
