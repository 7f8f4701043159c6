import math

import numpy as np
import pytest

from fracasym import (BoundReport, ConfigError, DomainError, GridFunction,
                      boundedness_verdict, gamma_fn, improper_tail,
                      integrable_limit_check, lhopital_residual, power_slope,
                      solve_direct, solve_sequential)
from fracasym.bounds import TailIntegrand
from fracasym.catalog import make_integrand, make_rhs
from fracasym.solvers import ProblemKind, ProblemSpec, Solution

GAMMA_1_5 = 0.8862269254527580
SQRT_GAMMA_TAIL = 0.5072822338117733  # integral of sqrt(s) e^-s over [1, inf)


def synthetic_solution(fn, alpha=0.5, beta=0.25, t_end=400.0, n=2048):
    """Wrap an explicit trajectory in a Solution for estimator tests."""
    x = GridFunction.from_callable(fn, t_end, n)
    zeros = GridFunction(t_end, np.zeros(n + 1))
    spec = ProblemSpec(ProblemKind.DIRECT, alpha, beta, float(x.values[0]),
                       make_rhs("zero", None, alpha, "direct"))
    return Solution(x=x, dbeta_x=zeros, dalpha_x=zeros, spec=spec,
                    rhs_history=np.zeros(n + 1),
                    corrector_iterations=np.zeros(n + 1, dtype=int))


# --------------------------------------------------------------------------
# power_slope

def test_slope_exact_power():
    sol = synthetic_solution(lambda t: 3.0 * t ** 0.5)
    est = power_slope(sol)
    assert est.raw_tail == pytest.approx(3.0, abs=1e-12)
    assert est.accelerated == pytest.approx(3.0, abs=1e-9)
    assert est.spread <= 1e-12


def test_slope_shifted_power():
    sol = synthetic_solution(lambda t: t ** 0.5 + 1.0, t_end=400.0)
    est = power_slope(sol)
    assert est.raw_tail == pytest.approx(1.0 + 1.0 / 20.0, rel=1e-12)
    assert abs(est.accelerated - 1.0) < abs(est.raw_tail - 1.0)


def test_slope_window_validation():
    sol = synthetic_solution(lambda t: t ** 0.5, n=2048)
    with pytest.raises(DomainError):
        power_slope(sol, window_fraction=0.0)
    with pytest.raises(DomainError):
        power_slope(sol, window_fraction=0.95)
    short = synthetic_solution(lambda t: t ** 0.5, t_end=5.0)
    with pytest.raises(DomainError):
        power_slope(short)
    tiny = synthetic_solution(lambda t: t ** 0.5, n=4)
    with pytest.raises(DomainError):
        power_slope(tiny, window_fraction=0.25)


# --------------------------------------------------------------------------
# lhopital_residual

def test_lhopital_pure_power_is_exact():
    # x = c tau^alpha arises from the zero-source sequential problem with
    # b1 = 0; both sides of the identity then agree exactly
    spec = ProblemSpec(ProblemKind.SEQUENTIAL, 0.5, 0.25, 0.0,
                       make_rhs("zero", None, 0.5, "sequential"), b2=2.0)
    sol = solve_sequential(spec, 100.0, 1024)
    assert lhopital_residual(sol) <= 1e-12


def test_lhopital_zero_source_closed_form():
    # with b1 != 0 the residual is |b1| / T^alpha
    spec = ProblemSpec(ProblemKind.SEQUENTIAL, 0.5, 0.25, 2.0,
                       make_rhs("zero", None, 0.5, "sequential"), b2=1.0)
    for t_end in (100.0, 400.0):
        sol = solve_sequential(spec, t_end, 1024)
        assert lhopital_residual(sol) == pytest.approx(2.0 / t_end ** 0.5, rel=1e-10)


# --------------------------------------------------------------------------
# improper_tail

def test_tail_weighted_exponential():
    est = improper_tail(make_integrand("exp_decay", {"rate": 1.0}),
                        weight_power=0.5, split=1.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(SQRT_GAMMA_TAIL, rel=1e-6)
    assert est.finite_estimate <= GAMMA_1_5


def test_tail_slow_power_diverges():
    est = improper_tail(make_integrand("power", {"exponent": -0.5}),
                        weight_power=0.0, split=1.0)
    assert est.verdict == "diverges"
    assert math.isinf(est.finite_estimate)


def test_tail_exponential_from_zero():
    est = improper_tail(make_integrand("exp_decay", {"rate": 1.0}),
                        weight_power=0.0, split=0.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(1.0, rel=1e-6)


def test_tail_fast_power_analytic_tail():
    est = improper_tail(make_integrand("power", {"exponent": -1.5}),
                        weight_power=0.0, split=1.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("p", [-1.0, -0.9, -0.5, 0.0, 1.0])
def test_tail_never_converges_at_critical_powers(p):
    est = improper_tail(make_integrand("power", {"exponent": p}),
                        weight_power=0.0, split=1.0)
    assert est.verdict == "diverges"


@pytest.mark.parametrize("name, params, weight_power", [
    ("exp_decay", {}, -1.5),
    ("exp_decay", {}, -1.0),
    ("power", {"exponent": -3.0}, 0.0),
    ("power_exp", {"exponent": -0.5}, -0.5),
])
def test_tail_from_zero_diverges_at_zero(name, params, weight_power):
    # s^p with p <= -1 is not integrable at 0, whatever the tail does
    est = improper_tail(make_integrand(name, params), weight_power=weight_power, split=0.0)
    assert est == (math.inf, "diverges")


@pytest.mark.parametrize("tail_exponent", [-1.0, -1.5])
def test_tail_untagged_declared_power_diverges_at_zero(tail_exponent):
    # the declared power rules at 0 whatever the tag: no piece [0, 1] is integrated
    unk = TailIntegrand("u", lambda s: np.exp(-s), "unknown", tail_exponent)
    assert improper_tail(unk, split=0.0) == (math.inf, "diverges")


def test_tail_small_exponential_is_summed_to_its_settle_rule():
    # every piece lies below 1e-10, and the sum still runs until it settles
    est = improper_tail(TailIntegrand("e", lambda s: 1e-11 * np.exp(-s), "exponential"),
                        split=1.0)
    assert est.verdict == "converges"
    assert abs(est.finite_estimate - 1e-11 / math.e) < 2e-18


def test_tail_power_remainder_carries_the_factor():
    # int_1^inf 5 s^-1.05 ds = 5 / 0.05; the pieces never settle, so the
    # remainder past 2^65 is a tenth of the total
    est = improper_tail(TailIntegrand("p", lambda s: 5.0, "power", -1.05), split=1.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(100.0, rel=1e-13)


def test_tail_power_exp_from_zero():
    est = improper_tail(make_integrand("power_exp", {"exponent": -0.5}), split=0.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(math.sqrt(math.pi), rel=1e-6)  # Gamma(1/2)


def test_tail_overflowing_integrand_names_the_piece():
    with pytest.raises(DomainError, match=r"piece \[4, 8\]"):
        improper_tail(make_integrand("exp_decay"), weight_power=400.0)


def test_tail_piece_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match=r"piece \[1e\+308, inf\] .* no finite upper end"):
        improper_tail(make_integrand("exp_decay"), split=1e308)


def test_tail_unknown_class_shrinking():
    unk = TailIntegrand("custom", lambda s: math.exp(-s), "unknown")
    est = improper_tail(unk, split=0.0)
    assert est.verdict == "converges"
    assert est.finite_estimate == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("split", [0.0, 1.0])
def test_tail_unknown_zero_integrand_converges_to_zero(split):
    est = improper_tail(TailIntegrand("zero", lambda s: 0.0, "unknown"), split=split)
    assert est == (0.0, "converges")


def test_tail_unknown_class_settles_below_the_piece_tolerance():
    # two pieces in a row at most 1e-12 (1 + |total|): the total of
    # 1/(1+s^2) is not cut off at a piece of 1e-10
    unk = TailIntegrand("lorentz", lambda s: 1.0 / (1.0 + s * s), "unknown")
    est = improper_tail(unk, split=0.0)
    assert est.verdict == "converges"
    assert abs(est.finite_estimate - math.pi / 2) < 1e-11


def test_tail_unknown_class_nonshrinking_is_inconclusive():
    unk = TailIntegrand("custom", lambda s: 1.0 / math.sqrt(1.0 + s), "unknown")
    est = improper_tail(unk, split=1.0)
    assert est.verdict == "inconclusive"


def test_tail_unknown_integrand_name():
    with pytest.raises(ConfigError, match="unknown integrand 'mystery'"):
        make_integrand("mystery")


# --------------------------------------------------------------------------
# averaged-integral limit

@pytest.mark.parametrize("tau", [0.0, 0.4 / 64])  # 0.4 / 64 rounds to node 0
def test_limit_check_input_checks(tau):
    g = GridFunction(1.0, np.ones(65))
    with pytest.raises(DomainError, match="limit check requires tau > 0"):
        integrable_limit_check(g, 0.5, [tau], 1.0)


def test_limit_check_zero_function():
    f = GridFunction.from_callable(lambda t: np.zeros_like(t), 100.0, 512)
    resids = integrable_limit_check(f, 1.0, [10.0, 50.0], 0.0)
    assert resids == [0.0, 0.0]


def test_limit_check_exponential():
    f = GridFunction.from_callable(lambda t: np.exp(-t), 500.0, 8192)
    resids = integrable_limit_check(f, 1.0, [50.0, 100.0, 200.0, 400.0, 500.0], 1.0)
    assert resids[-1] < 1e-2
    assert all(a > b for a, b in zip(resids, resids[1:]))
    # closed form: J^2 f(tau)/tau = 1 - (1 - e^-tau)/tau, up to the
    # trapezoid bias of order h^2 in the inner quadrature
    assert resids[0] == pytest.approx((1.0 - math.exp(-50.0)) / 50.0, rel=0.02)


# --------------------------------------------------------------------------
# boundedness verdict

def test_boundedness_trivial():
    spec = ProblemSpec(ProblemKind.DIRECT, 0.5, 0.25, 1.0,
                       make_rhs("zero", None, 0.5, "direct"))
    sol = solve_direct(spec, 20.0, 128)
    report = BoundReport(constants={"C": 1.0, "tau0": 0.5})
    verdict = boundedness_verdict(sol, report)
    assert verdict.sup_x == 1.0
    assert verdict.sup_dbeta == 0.0
    assert verdict.within_bound


def test_boundedness_linear_growth_fails():
    sol = synthetic_solution(lambda t: t, t_end=100.0, n=512)
    report = BoundReport(constants={"C": 5.0, "tau0": 1.0})
    verdict = boundedness_verdict(sol, report)
    assert verdict.sup_x == 100.0
    assert not verdict.within_bound


def test_boundedness_tolerance_moves_the_verdict():
    sol = synthetic_solution(lambda t: t, t_end=100.0, n=512)
    report = BoundReport(constants={"C": 99.99, "tau0": 1.0})
    assert not boundedness_verdict(sol, report).within_bound
    assert boundedness_verdict(sol, report, tolerance=1e-3).within_bound
