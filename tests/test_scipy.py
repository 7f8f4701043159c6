"""The scipy boundary.

scipy is imported on the first call of `fracasym._scipy.quad` or `brentq`,
so a run that never integrates adaptively or inverts a Bihari transform
never loads it; the corrector never does either.
perfbench counts the quadratures of the bound and improper-tail checks
by wrapping `bounds.quad`, so every adaptive quadrature of a check must
go through that module attribute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.integrate

import fracasym.bounds as bounds
from fracasym import harness

SRC = Path(__file__).resolve().parents[1] / "src"

# the test suite imports scipy itself, so the imports are watched in a
# fresh interpreter
_PROBE = """
import json, sys, tempfile
import fracasym, fracasym.cli
from fracasym import catalog, cli, harness
from fracasym.catalog import signed_power
from fracasym.solvers import ProblemKind, ProblemSpec, RightHandSide, solve_direct

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with tempfile.TemporaryDirectory() as tmp:
    for ident in catalog.builtin_config_ids():
        harness.load_builtin_config(ident)
    codes = [cli.main(["catalog"]),
             cli.main(["study", "manufactured_tau2", "--n-steps", "64", "--out-dir", tmp])]
    # a stiff right-hand side without partials: the corrector's own sweeps
    stiff = RightHandSide(lambda t, u, v: 5.0 * signed_power(v, 1.0 / 3.0) + 1.0)
    solve_direct(ProblemSpec(ProblemKind.DIRECT, 0.6, 0.4, 0.0, stiff), 2.0, 128)
    before = scipy_loaded()
    codes.append(cli.main(["solve", "example46", "--n-steps", "256", "--out-dir", tmp]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_loaded()}))
"""


def test_scipy_is_loaded_only_by_the_checks_that_need_it():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                          capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    # example46's regression pins hold at its configured N, not at 256
    assert result["codes"] == [0, 0, 1]
    assert result["before"] == []
    assert "scipy.integrate" in result["after"]


def _builtin_check(ident, check_name):
    return next(c for c in harness.load_builtin_config(ident).checks
                if c["name"] == check_name)


def _run_one_check(ident, check):
    config = harness.load_builtin_config(ident)
    doc = {"id": ident, "problem": config.problem,
           "grid": dict(config.grid, n_steps=256), "checks": [check]}
    return harness.run(harness.load_config(doc), expectations={})


def _recording(calls, fn):
    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return recording


def test_bound_checks_integrate_through_the_module_name(monkeypatch):
    # _scipy.quad looks scipy.integrate.quad up on each call, so the second
    # wrapper sees every adaptive quadrature, whichever module asked for it
    calls, scipy_calls = [], []
    monkeypatch.setattr(bounds, "quad", _recording(calls, bounds.quad))
    monkeypatch.setattr(scipy.integrate, "quad",
                        _recording(scipy_calls, scipy.integrate.quad))
    cases = (("example46", _builtin_check("example46", "bound_envelope")),
             ("example63_forced", _builtin_check("example63_forced", "boundedness")),
             ("example46", {"name": "hypothesis", "integrand": {"name": "exp_decay"},
                            "expect": "converges"}))
    for ident, check in cases:
        calls.clear()
        scipy_calls.clear()
        report = _run_one_check(ident, check)
        assert [c.name for c in report.checks] == [check["name"]]
        assert report.checks[0].status == "PASS"
        assert calls, f"{check['name']} made no call through bounds.quad"
        assert len(scipy_calls) == len(calls), check["name"]
