"""The tanh-sinh rule of `fracasym._quadrature` on integrals known exactly,
its warnings, and the one module name every package quadrature goes through.

This file imports no scipy, so that the rule is tested where scipy is not
installed.  perfbench counts the quadratures of the bound and improper-tail
checks by wrapping `bounds.quad`, so every quadrature of a check must go
through that module attribute.
"""

import math
import warnings

import pytest

from fracasym import _quadrature, bounds, harness
from fracasym.asymptotics import improper_tail
from fracasym.catalog import make_integrand


@pytest.mark.parametrize("p", [-0.95, -0.9, -0.5, 0.5])
def test_power_with_an_endpoint_singularity(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _quadrature.quad(lambda s: s ** p, 0.0, 1.0)
    assert value == pytest.approx(1.0 / (1.0 + p), rel=1e-13)


def test_a_power_below_the_reach_of_the_rule_warns():
    # about 3e-6 of the integral of s^-0.98 lies nearer 0 than the last node
    with pytest.warns(RuntimeWarning, match="at the last node is .* of the integral"):
        value = _quadrature.quad(lambda s: s ** -0.98, 0.0, 1.0)
    assert value == pytest.approx(50.0, rel=1e-5)


def test_levels_that_never_agree_warn():
    with pytest.warns(RuntimeWarning, match="no two of its 9 levels agree"):
        value = _quadrature.quad(lambda s: math.sin(1.0 / s), 1e-4, 1.0)
    assert math.isfinite(value)


def test_a_declared_power_at_zero_is_taken_out_of_the_first_piece():
    # the plain rule would be 8e-4 short and warn: no float lies near enough to 0
    integrand = make_integrand("power_exp", {"exponent": -0.99})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = improper_tail(integrand, split=0.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(math.gamma(0.01), rel=1e-12)


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
    # every quad call reads the level-0 node table once, looked up on each
    # call, so the second wrapper sees every quadrature, whichever module
    # asked for it
    calls, core_calls = [], []
    monkeypatch.setattr(bounds, "quad", _recording(calls, bounds.quad))
    monkeypatch.setattr(_quadrature, "_table", _recording(core_calls, _quadrature._table))
    cases = (("example46", _builtin_check("example46", "bound_envelope")),
             ("example63_forced", _builtin_check("example63_forced", "boundedness")),
             ("example46", {"name": "hypothesis", "integrand": {"name": "exp_decay"},
                            "expect": "converges"}),
             # the first piece from 0 integrates the factor of a declared power
             ("example46", {"name": "hypothesis", "split": 0.0,
                            "integrand": {"name": "power_exp",
                                          "params": {"exponent": -0.99}},
                            "expect": "converges"}))
    for ident, check in cases:
        calls.clear()
        core_calls.clear()
        report = _run_one_check(ident, check)
        assert [c.name for c in report.checks] == [check["name"]]
        assert report.checks[0].status == "PASS"
        assert calls, f"{check['name']} made no call through bounds.quad"
        assert core_calls.count((0,)) == len(calls), check["name"]
