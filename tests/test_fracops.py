import math

import numpy as np
import pytest

from fracasym import (DomainError, GridFunction, caputo_derivative,
                      composition_residual, exact_power_rule, gamma_fn,
                      rl_integral, semigroup_residual)
from fracasym.fracops import (rectangle_coefficients, trapezoid_coefficients,
                              trapezoid_table)

# frozen oracle constants (20+ digit values computed with mpmath)
INV_GAMMA_1_5 = 1.1283791670955126
GAMMA_1_5 = 0.8862269254527580


def power_grid(exponent, n, t_end=1.0):
    return GridFunction.from_callable(lambda t: t ** exponent, t_end, n)


# --------------------------------------------------------------------------
# exact_power_rule: the oracle itself

def test_power_rule_plain_integral():
    # integral of 1 over [0, 2]
    assert exact_power_rule("integral", 1.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_power_rule_annihilates_constants():
    for alpha in (0.1, 0.5, 0.9):
        assert exact_power_rule("caputo", alpha, 1.0, 3.0) == 0.0


def test_power_rule_half_order():
    assert exact_power_rule("integral", 0.5, 1.0, 1.0) == pytest.approx(
        INV_GAMMA_1_5, rel=1e-12)
    # half-derivative of tau at tau=1: Gamma(2)/Gamma(1.5)
    assert exact_power_rule("caputo", 0.5, 2.0, 1.0) == pytest.approx(
        INV_GAMMA_1_5, rel=1e-12)
    # half-derivative of sqrt(tau): constant Gamma(1.5)
    assert exact_power_rule("caputo", 0.5, 1.5, 0.37) == pytest.approx(
        GAMMA_1_5, rel=1e-12)


def test_power_rule_domain_errors():
    with pytest.raises(DomainError):
        exact_power_rule("caputo", 0.7, 0.5, 1.0)  # beta - alpha <= 0
    with pytest.raises(DomainError):
        exact_power_rule("integral", 0.5, 0.0, 1.0)  # beta must be positive
    with pytest.raises(DomainError):
        exact_power_rule("integral", 0.5, 1.0, 0.0)  # tau must be positive
    with pytest.raises(DomainError):
        exact_power_rule("derivative", 0.5, 1.0, 1.0)  # unknown kind


# --------------------------------------------------------------------------
# quadrature weights

def test_trapezoid_weights_nonnegative():
    for mu in (0.1, 0.3, 0.5, 0.7, 1.0, 1.5):
        a, c = trapezoid_coefficients(mu, 256)
        assert np.all(a[1:] >= 0.0)
        assert np.all(c[1:] >= 0.0)


@pytest.mark.parametrize("mu", [0.05, 0.25, 0.5, 2.0 / 3.0, 1.0, 1.25, 1.6])
@pytest.mark.parametrize("n", [3, 100, 4097, 2 ** 18])
def test_trapezoid_weights_match_the_three_power_closed_form(mu, n):
    # the weights take each power k^(mu+1) once; against the closed form
    # with its three powers per weight, term by term in Python floats, to
    # rounding in the size of the terms (numpy's vectorized power need not
    # round as the scalar one does)
    a, c = trapezoid_coefficients(mu, n)
    assert a[0] == c[0] == 0.0
    picks = sorted({*range(1, min(n, 300) + 1), *np.linspace(1, n, 200).astype(int)})
    for k in picks:
        terms = ((k + 1.0) ** (mu + 1.0), 2.0 * k ** (mu + 1.0), (k - 1.0) ** (mu + 1.0))
        want = terms[0] - terms[1] + terms[2]
        assert abs(a[k] - want) <= 1e-15 * sum(terms), k
        terms = ((k - 1.0) ** (mu + 1.0), k ** mu * abs(k - mu - 1.0))
        want = (k - 1.0) ** (mu + 1.0) - k ** mu * (k - mu - 1.0)
        assert abs(c[k] - want) <= 1e-15 * sum(terms), k


@pytest.mark.parametrize("mu", np.random.default_rng(32).uniform(0.0, 2.0, 8).tolist())
def test_trapezoid_weights_of_a_shorter_grid_are_leading_entries(mu):
    # an entry depends on k and mu alone, so a study's coarser levels march
    # on the leading entries of the finest level's weights; this must hold
    # bit for bit, or the levels of a study differ from standalone solves
    long_a, long_c = trapezoid_coefficients(mu, 2 ** 15)
    table = trapezoid_table(2 ** 15)
    for n in (2, 3, 1023, 1025, 8192):
        a, c = trapezoid_coefficients(mu, n)
        assert np.array_equal(a, long_a[:n + 1]) and np.array_equal(c, long_c[:n + 1]), n
        sliced_a, sliced_c = table(mu, n)
        assert np.array_equal(sliced_a, a) and np.array_equal(sliced_c, c), n


def test_rectangle_weights_nonnegative():
    for mu in (0.2, 0.5, 1.0, 1.7):
        b = rectangle_coefficients(mu, 128)
        assert np.all(b[1:] > 0.0)


def test_order_one_reduces_to_plain_trapezoid():
    g = GridFunction.from_callable(lambda t: np.cos(t), 2.0, 64)
    out = rl_integral(g, 1.0).values
    h = g.step
    ref = np.concatenate(([0.0], np.cumsum(0.5 * h * (g.values[1:] + g.values[:-1]))))
    assert np.allclose(out, ref, rtol=1e-13, atol=1e-15)


# --------------------------------------------------------------------------
# rl_integral against the power-rule oracle

def test_integral_of_zero():
    g = GridFunction.from_callable(lambda t: np.zeros_like(t), 1.0, 32)
    assert np.all(rl_integral(g, 0.5).values == 0.0)


def test_integral_of_one_order_one():
    g = GridFunction.from_callable(lambda t: np.ones_like(t), 3.0, 48)
    assert np.allclose(rl_integral(g, 1.0).values, g.taus, rtol=1e-13, atol=1e-14)


def test_half_integral_of_one_at_one():
    g = GridFunction.from_callable(lambda t: np.ones_like(t), 1.0, 4096)
    got = rl_integral(g, 0.5).values[-1]
    want = exact_power_rule("integral", 0.5, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_integral_power_rule_tail_accuracy(alpha, beta):
    n = 2048
    g = power_grid(beta - 1.0, n)
    got = rl_integral(g, alpha).values
    taus = g.taus
    mask = taus >= 0.25
    want = np.array([exact_power_rule("integral", alpha, beta, t) for t in taus[mask]])
    rel = np.max(np.abs(got[mask] - want) / want)
    assert rel < 5e-5


def test_integral_power_rule_convergence_order():
    # half-power integrand: product-trapezoid converges at order 1.5
    errs = []
    for n in (512, 1024, 2048):
        g = power_grid(0.5, n)
        got = rl_integral(g, 0.5).values
        taus = g.taus
        mask = taus >= 0.25
        want = np.array([exact_power_rule("integral", 0.5, 1.5, t) for t in taus[mask]])
        errs.append(np.max(np.abs(got[mask] - want)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5 - 0.05


def test_integral_linearity():
    rng = np.random.default_rng(7)
    n = 128
    gv = rng.normal(size=n + 1)
    hv = rng.normal(size=n + 1)
    a, b = 1.7, -0.4
    g = GridFunction(1.0, gv)
    h = GridFunction(1.0, hv)
    combo = GridFunction(1.0, a * gv + b * hv)
    lhs = rl_integral(combo, 0.6).values
    rhs = a * rl_integral(g, 0.6).values + b * rl_integral(h, 0.6).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_integral_positivity():
    rng = np.random.default_rng(11)
    g = GridFunction(1.0, rng.uniform(0.0, 3.0, size=257))
    assert np.all(rl_integral(g, 0.4).values >= 0.0)


# --------------------------------------------------------------------------
# caputo_derivative

def test_caputo_constant_exactly_zero():
    g = GridFunction.from_callable(lambda t: 7.5 * np.ones_like(t), 2.0, 128)
    for alpha in (0.2, 0.5, 0.8, 1.0):
        assert np.all(caputo_derivative(g, alpha).values == 0.0)


def test_caputo_linear_at_one():
    g = power_grid(1.0, 2048)
    got = caputo_derivative(g, 0.5).values[-1]
    want = exact_power_rule("caputo", 0.5, 2.0, 1.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_caputo_half_power_is_constant():
    g = power_grid(0.5, 4096)
    vals = caputo_derivative(g, 0.5).values
    taus = g.taus
    mask = taus >= 0.25
    assert np.max(np.abs(vals[mask] - GAMMA_1_5)) < 5e-6


def test_caputo_order_one_is_backward_difference():
    g = GridFunction.from_callable(lambda t: t ** 3, 1.0, 32)
    out = caputo_derivative(g, 1.0).values
    ref = np.concatenate(([0.0], np.diff(g.values) / g.step))
    assert np.allclose(out, ref, rtol=1e-13, atol=1e-15)


def test_caputo_rejects_orders_outside_unit_interval():
    g = power_grid(1.0, 16)
    with pytest.raises(DomainError):
        caputo_derivative(g, 1.5)
    with pytest.raises(DomainError):
        caputo_derivative(g, 0.0)


# --------------------------------------------------------------------------
# semigroup and composition residuals

def test_semigroup_zero_function():
    g = GridFunction.from_callable(lambda t: np.zeros_like(t), 1.0, 64)
    assert semigroup_residual(g, 0.3, 0.4) == 0.0


def test_semigroup_cos_regression():
    # origin-layer dominated: the nested route interpolates a tau^0.3 kink
    g = GridFunction.from_callable(np.cos, 1.0, 2048)
    resid = semigroup_residual(g, 0.3, 0.4)
    assert resid == pytest.approx(9.788273370423062e-04, rel=1e-6)


def test_semigroup_smooth_decreases_under_refinement():
    resids = []
    for n in (512, 1024, 2048):
        g = GridFunction.from_callable(np.sin, 1.0, n)
        resids.append(semigroup_residual(g, 0.3, 0.4))
    assert resids[0] > resids[1] > resids[2]


def test_semigroup_constant_matches_power_rule_route():
    # inner route: J^0.25 applied to the discretized J^0.25 of 1;
    # the residual must equal the recomputed two-route difference
    n = 512
    g = GridFunction.from_callable(lambda t: np.ones_like(t), 1.0, n)
    resid = semigroup_residual(g, 0.25, 0.25)
    nested = rl_integral(rl_integral(g, 0.25), 0.25).values
    taus = g.taus
    direct = np.concatenate(
        ([0.0], [exact_power_rule("integral", 0.5, 1.0, t) for t in taus[1:]]))
    direct_grid = rl_integral(g, 0.5).values
    # discretized outer route vs exact closed form agree closely
    assert np.max(np.abs(direct_grid - direct)) < 1e-4
    assert resid == pytest.approx(np.max(np.abs(nested - direct_grid)), abs=1e-15)


def test_semigroup_chained_above_one():
    g = GridFunction.from_callable(np.sin, 1.0, 1024)
    resid = semigroup_residual(g, 0.9, 0.9)  # composite order 1.8 via chained step
    assert resid < 1e-4


def test_composition_constant_exact():
    g = GridFunction.from_callable(lambda t: 4.2 * np.ones_like(t), 1.0, 64)
    assert composition_residual(g, 0.7, 0.3) == 0.0


def test_composition_equal_orders_identity():
    g = power_grid(1.5, 256)
    assert composition_residual(g, 0.6, 0.6) == 0.0


def test_composition_power_function():
    g = power_grid(1.5, 2048)
    resid = composition_residual(g, 0.7, 0.3)
    assert resid < 1e-3
    # each side also matches the power-rule oracle away from the origin
    lhs = caputo_derivative(g, 0.3).values
    taus = g.taus
    mask = taus >= 0.25
    want = np.array([exact_power_rule("caputo", 0.3, 2.5, t) for t in taus[mask]])
    assert np.max(np.abs(lhs[mask] - want) / want) < 1e-4


def test_composition_halves_under_doubling():
    r1 = composition_residual(power_grid(1.5, 1024), 0.7, 0.3)
    r2 = composition_residual(power_grid(1.5, 2048), 0.7, 0.3)
    assert r2 <= r1 / 2.0


def test_composition_rejects_beta_above_alpha():
    g = power_grid(1.5, 64)
    with pytest.raises(DomainError):
        composition_residual(g, 0.3, 0.7)
