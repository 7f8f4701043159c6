import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracasym import (ClassViolation, DomainError, GridFunction,
                      HypothesisViolation, bihari_bound, bihari_inverse,
                      bihari_transform, convolution_holder_constant, gamma_fn,
                      growth_envelope_constants, improper_tail, linear_class_bound,
                      lipschitz_growth_constant, lq_bihari_bound,
                      singular_convolution_constant, uniform_bound_constant)
from fracasym import bounds, catalog
from fracasym.bounds import (ComparisonFunction, LipschitzClassFunction,
                             bihari_bound_curve, reciprocal_tail_verdict)
from fracasym.catalog import make_integrand, make_phi, make_rhs
from fracasym.grid import as_values
from fracasym.solvers import ProblemKind, ProblemSpec

from _oracles import nonlinear_equality, random_piecewise_linear

# frozen oracle constants
E_HALF = 1.6487212707001282
LINEAR_CLASS_CLOSED_FORM = 3.0709921475079446  # (2 - 1/e) * e^(1 - 1/e)
INV_GAMMA_1_5 = 1.1283791670955126
K1_EXAMPLE = 2.1945578401244843  # alpha=2/3, beta=1/3, q=4, tau0=1


def const_grid(value, t_end=2.0, n=256):
    return GridFunction.from_callable(lambda t: np.full_like(t, value), t_end, n)


# --------------------------------------------------------------------------
# transform and inverse

def test_transform_identity():
    phi = ComparisonFunction(lambda s: s, xi0=1.0)
    assert bihari_transform(phi, math.e) == pytest.approx(1.0, rel=1e-10)
    assert bihari_transform(phi, 1.0) == 0.0


def test_transform_square_root():
    phi = ComparisonFunction(lambda s: s ** 0.5, xi0=1.0)
    assert bihari_transform(phi, 4.0) == pytest.approx(2.0, rel=1e-10)


def test_transform_rejects_below_base():
    phi = ComparisonFunction(lambda s: s, xi0=1.0)
    with pytest.raises(DomainError):
        bihari_transform(phi, 0.5)


@pytest.mark.parametrize("xi", [math.inf, math.nan])
def test_transform_takes_finite_arguments_only(xi):
    phi = ComparisonFunction(lambda s: s, xi0=1.0)
    with pytest.raises(DomainError, match="outside the transform's domain"):
        bihari_transform(phi, xi)


def test_inverse_identity():
    phi = ComparisonFunction(lambda s: s, xi0=1.0)
    assert bihari_inverse(phi, 1.0) == pytest.approx(math.e, rel=1e-10)
    assert bihari_inverse(phi, 0.0) == 1.0


def test_inverse_square_root():
    phi = ComparisonFunction(lambda s: s ** 0.5, xi0=1.0)
    assert bihari_inverse(phi, 2.0) == pytest.approx(4.0, rel=1e-10)


def test_inverse_blowup_signal():
    # finite-range transform: reciprocal integral of s^2 converges, so large
    # targets are unreachable and the bound is reported as +inf
    phi = ComparisonFunction(lambda s: s ** 2, xi0=1.0, name="s^2")
    assert bihari_inverse(phi, 0.5) == pytest.approx(2.0, rel=1e-9)  # 1 - 1/xi = y
    assert math.isinf(bihari_inverse(phi, 2.0))


def test_inverse_of_an_infinite_target_is_infinite():
    phi = ComparisonFunction(lambda s: s, xi0=1.0)
    assert bihari_inverse(phi, math.inf) == math.inf


def test_inverse_blowup_with_numpy_target_and_overflowing_phi_does_not_warn():
    # the climb steps by (y - E) phi: 1e10 * 1e300 overflows a float, which
    # a numpy y would turn into a RuntimeWarning (an error under this suite)
    square = ComparisonFunction(lambda s: s ** 2, xi0=1.0, name="s^2")
    exp = ComparisonFunction(math.exp, xi0=1.0, name="exp")  # math.exp raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bihari_inverse(square, np.float64(1e10)) == math.inf
        assert bihari_inverse(exp, np.float64(1.0)) == math.inf
    assert type(bihari_inverse(square, np.float64(0.5))) is float


def test_roundtrip_property():
    rng = np.random.default_rng(3)
    for _ in range(12):
        r = rng.uniform(0.2, 1.0)
        phi = ComparisonFunction(lambda s, r=r: s ** r, xi0=10 ** rng.uniform(-8, -1))
        xi = 10 ** rng.uniform(-2, 3)
        if xi <= phi.xi0:
            continue
        y = bihari_transform(phi, xi)
        assert bihari_inverse(phi, y) == pytest.approx(xi, rel=1e-8)


def test_class_validation_rejects_superlinear():
    with pytest.raises(ClassViolation):
        ComparisonFunction(lambda s: s ** 2, name="s^2").validate()
    # phi(s)/s = 1 + s/K rises by 100/K over the lattice, past the 1e-12 slack
    for k in (1e10, 1e12, 1e13):
        with pytest.raises(ClassViolation, match="sub-homogeneity fails"):
            ComparisonFunction(lambda s, k=k: s + s * s / k, name=f"s+s^2/{k:g}").validate()


def test_class_validation_rejects_decreasing():
    with pytest.raises(ClassViolation):
        ComparisonFunction(lambda s: 1.0 / (1.0 + s), name="dec").validate()


def test_class_validation_rejects_nan():
    # every comparison with NaN is false, so positivity is checked as vals > 0
    with pytest.raises(ClassViolation, match="phi: not positive on sampled range"):
        ComparisonFunction(lambda s: math.nan).validate()


# the catalog's parameters for each comparison function; a new entry must add its own
_PHI_PARAMS = {"constant": {}, "identity": {}, "power": {"exponent": 0.3},
               "power_plus_one": {"exponent": 0.6}}


@pytest.mark.parametrize("name", sorted(catalog.PHI))
def test_catalog_phi_is_elementwise(name):
    # one call on an array gives, after the shared broadcast, the scalar calls'
    # values: numpy's power may differ from a float's by an ulp
    phi = make_phi(name, _PHI_PARAMS[name])
    ss = np.geomspace(1e-6, 100.0, 512)
    vals = as_values(phi.fn(ss), ss.shape)
    assert vals.shape == ss.shape
    np.testing.assert_array_max_ulp(vals, [phi(float(s)) for s in ss], maxulp=4)


def test_class_validation_accepts_catalog():
    for name, params in (("identity", None), ("power", {"exponent": 0.5}),
                         ("power_plus_one", {"exponent": 0.6}),
                         ("constant", {"value": 2.0})):
        make_phi(name, params).validate()


# --------------------------------------------------------------------------
# nonlinear two-branch bound

def test_bihari_trivial_constant():
    phi = make_phi("identity")
    g = const_grid(0.0)
    assert bihari_bound(1.3, 0.0, 1.0, 0.0, g, phi, 0.7) == pytest.approx(
        1.3, rel=1e-9)


def test_bihari_gronwall_closed_form():
    phi = make_phi("identity")
    g = const_grid(1.0)
    got = bihari_bound(1.0, 0.0, 1.0, 0.0, g, phi, 0.5)
    assert got == pytest.approx(E_HALF, rel=1e-6)


def test_bihari_gronwall_reduction_general():
    # phi = identity, c2 = 0: bound equals |c1| exp(|c3| int_0^tau g)
    rng = np.random.default_rng(5)
    fn, _, _ = random_piecewise_linear(rng, 2.0)
    g = GridFunction.from_callable(lambda t: fn(t), 2.0, 512)
    phi = make_phi("identity")
    c1, c3 = 0.8, 0.6
    for tau in (0.3, 0.6, 0.9):
        want = c1 * math.exp(c3 * g.integral_to(tau))
        got = bihari_bound(c1, 0.0, c3, 0.0, g, phi, tau)
        assert got == pytest.approx(want, rel=1e-6)


def test_bihari_dominates_equality_oracle():
    rng = np.random.default_rng(11)
    fn, _, _ = random_piecewise_linear(rng, 2.0, lo=0.1, hi=1.5)
    n = 512
    g = GridFunction.from_callable(lambda t: fn(t), 2.0, n)
    phi = make_phi("power", {"exponent": 0.5})
    c1, c2, c3, gamma = 0.7, 0.5, 0.8, 0.5
    z = nonlinear_equality(g.taus, g.values, lambda s: np.abs(s) ** 0.5,
                           c1, c2, c3, gamma)
    idx = np.arange(16, n + 1, 16)
    curve = bihari_bound_curve(c1, c2, c3, gamma, g, phi, taus=g.taus[idx])
    assert np.all(z[idx] <= curve * (1.0 + 1e-9))


def test_bihari_curve_blows_up_where_the_transform_range_ends():
    # phi(s) = s + s^2/K is in the class on the range validate() samples, but
    # its transform from xi0 = 1 is bounded by log(1 + K): the curve with
    # c1 = 1, c2 = 0 and g = 1 is Einv(c3 tau), finite before
    # tau* = log(1 + K)/c3 and inf from there on, past 1 as well
    big = 1e16
    phi = ComparisonFunction(lambda s: s + s * s / big, xi0=1.0, name="s+s^2/K")
    c3 = 40.0
    g = const_grid(1.0)
    curve = bihari_bound_curve(1.0, 0.0, c3, 0.0, g, phi)
    t_star = math.log1p(big) / c3
    before = g.taus < t_star
    assert 0.5 < t_star < 1.0 and before.sum() > 100
    # E(xi) = log(xi / (1 + xi/K)) + log(1 + 1/K), so Einv(y) = u / (1 - u/K)
    # with u = e^y / (1 + 1/K)
    u = np.exp(c3 * g.taus[before]) / (1.0 + 1.0 / big)
    np.testing.assert_allclose(curve[before], u / (1.0 - u / big), rtol=1e-9)
    assert np.all(np.isinf(curve[~before]))
    assert np.any(g.taus[~before] >= 1.0)


def test_bihari_monotone_in_coefficients():
    phi = make_phi("power", {"exponent": 0.5})
    g = const_grid(0.7)
    base = bihari_bound(1.0, 0.3, 0.5, 0.5, g, phi, 1.5)
    assert bihari_bound(1.5, 0.3, 0.5, 0.5, g, phi, 1.5) >= base
    assert bihari_bound(1.0, 0.3, 0.9, 0.5, g, phi, 1.5) >= base
    g_bigger = const_grid(1.0)
    assert bihari_bound(1.0, 0.3, 0.5, 0.5, g_bigger, phi, 1.5) >= base


# one grid for each guard; the last grid ends a rounding short of 1, so
# tau = 1 is on it but the integral over [0, 1] is not
@pytest.mark.parametrize("gamma, taus, t_end, message", [
    (-0.5, None, 2.0, "gamma must be >= 0"),
    (0.5, [0.5, 0.2], 2.0, "evaluation times must be ascending"),
    (0.5, [0.5, 4.0], 2.0, "evaluation times extend past the grid"),
    (0.5, [0.5, 1.0], 1.0 - 1e-13, "grid must cover [0, 1] for times >= 1"),
])
def test_bihari_curve_guards(gamma, taus, t_end, message):
    phi = make_phi("identity")
    g = const_grid(1.0, t_end=t_end)
    with pytest.raises(DomainError, match=re.escape(message)):
        bihari_bound_curve(1.0, 0.0, 1.0, gamma, g, phi,
                           taus=None if taus is None else np.array(taus))


def test_bihari_rejects_negative_g():
    phi = make_phi("identity")
    g = GridFunction(1.0, [-1.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        bihari_bound(1.0, 0.0, 1.0, 0.0, g, phi, 0.5)


# --------------------------------------------------------------------------
# linear class bound

def zero_lip():
    return LipschitzClassFunction(lambda t, s: 0.0, lambda t: 0.0, name="0")


def exp_lip():
    return LipschitzClassFunction(lambda t, s: np.exp(-t) * s,
                                  lambda t: np.exp(-t), name="e^-t s")


def test_linear_class_trivial():
    h = const_grid(0.0)
    got = linear_class_bound(2.0, 1.0, 1.0, 1.0, 1.5, zero_lip(), zero_lip(), h, 2.0)
    assert got == pytest.approx(2.0 * 2.0 ** 1.5, rel=1e-12)


def test_linear_class_closed_form():
    h = const_grid(0.0)
    got = linear_class_bound(1.0, 1.0, 1.0, 1.0, 0.0, exp_lip(), zero_lip(), h, 1.0)
    assert got == pytest.approx(LINEAR_CLASS_CLOSED_FORM, rel=1e-9)


def test_linear_class_rejects_nonpositive_coefficients():
    h = const_grid(0.0)
    with pytest.raises(DomainError):
        linear_class_bound(0.0, 1.0, 1.0, 1.0, 0.0, zero_lip(), zero_lip(), h, 1.0)


def test_lipschitz_class_validation():
    with pytest.raises(ClassViolation):
        LipschitzClassFunction(lambda t, s: -s, lambda t: 1.0, name="neg").validate()
    with pytest.raises(ClassViolation):
        # slope 2 exceeds the declared majorant 1
        LipschitzClassFunction(lambda t, s: 2.0 * s, lambda t: 1.0,
                               name="fast").validate()


# per time, the majorant's sign, monotonicity, the majorant bound, then F's
# sign; the first time that fails names its first failure, and NaN fails each
@pytest.mark.parametrize("fn, majorant, message", [
    (lambda t, s: math.nan, lambda t: 1.0, "negative or NaN at tau=0.0001"),
    (lambda t, s: s, lambda t: math.nan, "majorant negative or NaN at tau=0.0001"),
    (lambda t, s: -1.0, lambda t: 0.0, "negative or NaN at tau=0.0001"),
    (lambda t, s: -s, lambda t: -1.0, "majorant negative or NaN at tau=0.0001"),
    (lambda t, s: np.where(t < 1, 2 * s, -s), lambda t: 1.0,
     "majorant bound fails at tau=0.0001"),
    (lambda t, s: np.where(t < 1, s, -s), lambda t: np.where(t < 1, 1.0, -1.0),
     "majorant negative or NaN at tau=2.2"),
    (lambda t, s: np.where(t < 1, s, -s), lambda t: np.where(t < 0.01, 1.0, -1.0),
     "majorant negative or NaN at tau=0.0148"),
], ids=["nan_F", "nan_majorant", "negative_F", "negative_majorant", "bound_before_monotone",
        "later_negative_majorant", "negative_majorant_before_monotone"])
def test_lipschitz_class_validation_names_the_first_failure(fn, majorant, message):
    with pytest.raises(ClassViolation, match=re.escape(f"F: {message}")):
        LipschitzClassFunction(fn, majorant).validate()


def test_validate_calls_each_function_once():
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    ComparisonFunction(counted(_quarter_power)).validate()
    assert calls == ["_quarter_power"]
    calls.clear()
    LipschitzClassFunction(counted(_decay), counted(_decay_majorant)).validate()
    assert sorted(calls) == ["_decay", "_decay_majorant"]


# --------------------------------------------------------------------------
# Hoelder convolution constant

def test_holder_constant_values():
    assert convolution_holder_constant(1.0, 0.0, 2.0) == pytest.approx(1.0, rel=1e-12)
    # (Gamma(3)Gamma(1)/Gamma(4))^(1/2) = sqrt(1/3)
    assert convolution_holder_constant(1.0, 1.0, 2.0) == pytest.approx(
        math.sqrt(1.0 / 3.0), rel=1e-12)


def test_holder_constant_sharp_on_constant_g():
    # g = 1, upsilon = lam = 1, r = 2: LHS = tau^2/2, kernel norm sqrt(1/3);
    # the inequality must hold and with the sharp Cauchy-Schwarz ratio
    c = convolution_holder_constant(1.0, 1.0, 2.0)
    tau = 1.7
    lhs = tau ** 2 / 2.0
    rhs = c * tau ** 1.5 * tau ** 0.5
    assert lhs <= rhs
    assert lhs / rhs == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)


def test_holder_preconditions():
    with pytest.raises(DomainError):
        convolution_holder_constant(0.4, 0.0, 2.0)   # upsilon <= 1/r
    with pytest.raises(DomainError):
        convolution_holder_constant(1.0, -0.7, 3.0)  # lam + 1 <= 1/r
    with pytest.raises(DomainError):
        convolution_holder_constant(1.0, 0.0, 1.0)   # r must exceed 1


# --------------------------------------------------------------------------
# L^q bound

def test_lq_zero_integral_literal():
    p1 = make_phi("power", {"exponent": 0.5})
    p2 = make_phi("power", {"exponent": 0.3})
    h = const_grid(0.0, t_end=5.0)
    got = lq_bihari_bound(2.0, 0.0, 3.0, h, p1, p2, 5.0, variant="literal")
    assert got == pytest.approx((2.0 ** 2 * 2.0) ** (1.0 / 3.0), rel=1e-6)


def test_lq_constant_phi_closed_form():
    one = ComparisonFunction(lambda s: 1.0, xi0=1e-10, name="const 1")
    h = GridFunction.from_callable(lambda t: np.exp(-t), 10.0, 512)
    got = lq_bihari_bound(1.5, 2.0, 2.0, h, one, one, 10.0, variant="literal")
    ihq = GridFunction(10.0, h.values ** 2).integral_to(10.0)
    assert got == pytest.approx(math.sqrt(2 * 1.5 + 2 * 2.0 * ihq), rel=1e-8)


def test_lq_corrected_uses_k1_power():
    p1 = make_phi("power", {"exponent": 0.4})
    p2 = make_phi("power", {"exponent": 0.3})
    h = const_grid(0.0, t_end=5.0)
    q = 3.0
    lit = lq_bihari_bound(2.0, 0.0, q, h, p1, p2, 5.0, variant="literal")
    cor = lq_bihari_bound(2.0, 0.0, q, h, p1, p2, 5.0, variant="corrected")
    assert lit == pytest.approx((2.0 ** (q - 1) * 2.0) ** (1 / q), rel=1e-6)
    assert cor == pytest.approx((2.0 ** (q - 1) * 2.0 ** q) ** (1 / q), rel=1e-6)


@pytest.mark.parametrize("variant, k1", [("literal", 1e308), ("corrected", 1e300)])
def test_lq_names_an_overflowing_constant(variant, k1):
    # 2^(q-1) k1 is inf in the literal variant; k1^q raises in the corrected
    p1 = make_phi("power", {"exponent": 0.4})
    h = const_grid(0.0)
    with pytest.raises(DomainError, match=re.escape("L^q bound constant 2^(q-1) K overflows")):
        lq_bihari_bound(k1, 1.0, 4.0, h, p1, p1, 1.0, variant=variant)


def test_lq_rejects_bad_variant():
    p1 = make_phi("power", {"exponent": 0.4})
    h = const_grid(0.0)
    with pytest.raises(DomainError):
        lq_bihari_bound(1.0, 1.0, 2.0, h, p1, p1, 1.0, variant="loose")


# --------------------------------------------------------------------------
# growth envelope

def test_growth_envelope_zero_weight():
    P = const_grid(0.0, t_end=5.0)
    phi = make_phi("power", {"exponent": 0.5})
    rep = growth_envelope_constants(1.0, 1.0, 0.5, P, phi, tail_integral=0.0)
    base = 1.0 + INV_GAMMA_1_5
    assert rep.constants["C1"] == pytest.approx(base, rel=1e-9)
    assert rep.constants["C2"] == pytest.approx(base, rel=1e-9)
    taus = rep.curve.taus
    want = np.where(taus < 1.0, rep.constants["C1"],
                    rep.constants["C2"] * taus ** 0.5)
    assert np.allclose(rep.curve.values, want)


def test_growth_envelope_gronwall_cross_check():
    phi = make_phi("identity")
    P = GridFunction.from_callable(lambda t: np.exp(-t), 50.0, 2048)
    tail = 0.5072822338117733  # improper integral of sqrt(s) e^-s over [1, inf)
    rep = growth_envelope_constants(1.0, 1.0, 0.5, P, phi, tail_integral=tail)
    ga1 = gamma_fn(1.5)
    base = 1.0 + 1.0 / ga1
    i01 = P.integral_to(1.0)
    c1 = base * math.exp(i01 / ga1)
    a = base + (1.0 / ga1) * c1 * i01
    c2 = a * math.exp(tail / ga1)
    assert rep.constants["C1"] == pytest.approx(c1, rel=1e-6)
    assert rep.constants["C2"] == pytest.approx(c2, rel=1e-6)


def test_growth_envelope_requires_unit_interval():
    P = const_grid(0.0, t_end=0.5)
    phi = make_phi("identity")
    with pytest.raises(DomainError):
        growth_envelope_constants(1.0, 1.0, 0.5, P, phi, tail_integral=0.0)


def test_growth_envelope_names_an_overflowing_first_branch():
    # b2 = 1e300 puts E(base) past the transform's float range: C1 = inf
    P = const_grid(1.0, t_end=5.0)
    phi = make_phi("power", {"exponent": 0.5})
    with pytest.raises(DomainError, match="^growth envelope constant C1 overflows a float$"):
        growth_envelope_constants(1.0, 1e300, 0.5, P, phi, tail_integral=0.0)


def test_growth_envelope_names_an_overflowing_second_branch():
    # phi = identity: C1 = base e^600 and A = base + 600 C1 are finite, but
    # C2 = A e^(tail/Gamma(1.5)) with tail = 100 is not
    ga1 = gamma_fn(1.5)
    P = const_grid(600.0 * ga1, t_end=2.0)
    phi = make_phi("identity")
    with pytest.raises(DomainError, match="^growth envelope constant C2 overflows a float$"):
        growth_envelope_constants(1.0, 1.0, 0.5, P, phi, tail_integral=100.0)


def test_growth_envelope_divergent_tail_is_hypothesis_violation():
    P = const_grid(1.0, t_end=5.0)
    phi = make_phi("power", {"exponent": 0.5})
    with pytest.raises(HypothesisViolation):
        growth_envelope_constants(1.0, 1.0, 0.5, P, phi, tail_integral=math.inf)


# --------------------------------------------------------------------------
# majorant-class growth constant

def test_lipschitz_growth_trivial():
    rep = lipschitz_growth_constant(1.0, 1.0, 0.5, 0.25, zero_lip(), zero_lip())
    assert rep.constants["C3"] == pytest.approx(INV_GAMMA_1_5, rel=1e-12)
    assert rep.constants["C"] == pytest.approx(rep.constants["C2"], rel=1e-12)
    assert rep.constants["C2"] == pytest.approx(INV_GAMMA_1_5, rel=1e-12)


def test_lipschitz_growth_c3_picks_larger_reciprocal():
    # Gamma(1.5) < Gamma(1.25), so 1/Gamma(alpha+1) is the max here
    rep = lipschitz_growth_constant(0.0, 1.0, 0.5, 0.25, zero_lip(), zero_lip())
    assert rep.constants["C3"] == pytest.approx(
        max(1.0 / gamma_fn(1.5), 1.0 / gamma_fn(1.25)), rel=1e-13)
    assert rep.constants["C3"] > 1.0 / gamma_fn(1.25)


def test_lipschitz_growth_exponential_closed_form():
    # F1(s,u) = e^-s u with b1 = 1: C = (C2 + C3) exp(C3 Gamma(1.5)) = 2 e / Gamma(1.5)
    rep = lipschitz_growth_constant(1.0, 1.0, 0.5, 0.25, exp_lip(), zero_lip())
    want = 2.0 * math.e / gamma_fn(1.5)
    assert rep.constants["C"] == pytest.approx(want, rel=1e-9)


def test_lipschitz_growth_divergent_majorant():
    lazy = LipschitzClassFunction(lambda t, s: s, lambda t: 1.0, name="const-N")
    with pytest.raises(HypothesisViolation):
        lipschitz_growth_constant(1.0, 1.0, 0.5, 0.25, lazy, zero_lip())


def test_sequential_trajectory_obeys_majorant_envelope():
    rhs = make_rhs("exp_decay_power", {"rate": 1.0, "exponent": 1.0}, 0.5,
                   "sequential")
    spec = ProblemSpec(ProblemKind.SEQUENTIAL, 0.5, 0.25, 1.0, rhs, b2=1.0)
    from fracasym import solve_sequential
    sol = solve_sequential(spec, 200.0, 4096)
    rep = lipschitz_growth_constant(1.0, 1.0, 0.5, 0.25, exp_lip(), zero_lip())
    c = rep.constants["C"]
    taus = sol.x.taus
    envelope = abs(spec.b1) + c * taus ** 0.5
    assert np.all(np.abs(sol.x.values) <= envelope * (1 + 1e-9))
    mask = taus > 0
    weighted = taus[mask] ** 0.25 * np.abs(sol.dbeta_x.values[mask])
    assert np.all(weighted <= envelope[mask] * (1 + 1e-9))


# --------------------------------------------------------------------------
# singular convolution constant and the uniform bound

def test_singular_convolution_value():
    got = singular_convolution_constant(2 / 3, 1 / 3, 4.0, 1.0)
    assert got == pytest.approx(K1_EXAMPLE, rel=1e-12)


def test_singular_convolution_monotone_in_tau0():
    k_small = singular_convolution_constant(2 / 3, 1 / 3, 4.0, 0.5)
    k_large = singular_convolution_constant(2 / 3, 1 / 3, 4.0, 4.0)
    assert k_small >= k_large


def test_singular_convolution_precondition():
    with pytest.raises(DomainError):
        singular_convolution_constant(2 / 3, 1 / 3, 2.5, 1.0)  # q <= 1/(alpha-beta)


def test_conjugate_exponent_equivalence():
    # p(alpha-1) + 1 > 0 is the same condition as q*alpha > 1
    for q in (1.5, 2.0, 4.0, 8.0):
        p = q / (q - 1.0)
        for alpha in (0.1, 0.3, 0.6, 0.9):
            assert (p * (alpha - 1.0) + 1.0 > 0.0) == (q * alpha > 1.0)


def test_uniform_bound_zero_weight():
    h = const_grid(0.0, t_end=10.0)
    p1 = make_phi("power", {"exponent": 0.6})
    p2 = make_phi("power", {"exponent": 1 / 3})
    rep = uniform_bound_constant(2 / 3, 1 / 3, 1.0, h, p1, p2, tau0=0.1, q=4.0)
    assert rep.constants["C"] == 1.0


def test_uniform_bound_rejects_bad_variant_for_a_zero_weight():
    # a zero weight takes C = |b1| without the L^q bound, after the variant check
    phi = make_phi("constant", {"value": 1.0})
    for value in (0.0, 1.0):
        with pytest.raises(DomainError, match="variant must be 'corrected' or 'literal'"):
            uniform_bound_constant(2 / 3, 1 / 3, 1.0, const_grid(value), phi, phi,
                                   tau0=1.0, q=8.0, variant="loose")


def test_uniform_bound_finite_for_damped_weight():
    h = GridFunction.from_callable(lambda t: np.exp(-t), 200.0, 2048)
    p1 = make_phi("power", {"exponent": 0.6})
    p2 = make_phi("power", {"exponent": 1 / 3})
    rep = uniform_bound_constant(2 / 3, 1 / 3, 1.0, h, p1, p2, tau0=h.step, q=4.0)
    assert math.isfinite(rep.constants["C"])
    assert rep.constants["C"] >= 1.0
    assert rep.curve is not None


def test_uniform_bound_is_the_lq_bound_of_its_constants():
    # example63_forced's boundedness check on its weight grid
    taus = np.linspace(0.0, 50.0, 2049)
    h = GridFunction(50.0, make_integrand("exp_decay", {"rate": 1.0}).fn(taus))
    p1 = make_phi("power_plus_one", {"exponent": 0.6})
    p2 = make_phi("power_plus_one", {"exponent": 1 / 3})
    rep = uniform_bound_constant(2 / 3, 1 / 3, 1.0, h, p1, p2, tau0=h.step, q=4.0)
    k2 = rep.constants["K1"] ** 4.0
    assert rep.constants["C"] == lq_bihari_bound(1.0, k2, 4.0, h, p1, p2, h.t_end)


def test_uniform_bound_divergence_hypothesis():
    h = GridFunction.from_callable(lambda t: np.exp(-t), 20.0, 256)
    linear = make_phi("power", {"exponent": 1.0})
    with pytest.raises(HypothesisViolation):
        uniform_bound_constant(0.9, 0.2, 1.0, h, linear, linear, tau0=0.1, q=2.0)


def test_reciprocal_tail_verdicts():
    assert reciprocal_tail_verdict(lambda s: s ** (14.0 / 15.0)) == "diverges"
    assert reciprocal_tail_verdict(lambda s: s) == "diverges"
    assert reciprocal_tail_verdict(lambda s: s ** 2) == "converges"
    # 1/fn = e^s overflows a float from s = 710 on, so on the verdict's first piece
    with pytest.raises(DomainError, match=r"piece \[3\.43597e\+10, 6\.87195e\+10\]$"):
        reciprocal_tail_verdict(lambda s: 1.0 / math.exp(s))


def test_reciprocal_tail_verdict_integrates_only_the_pieces_it_reads(monkeypatch):
    pieces = []
    quad = bounds.quad
    monkeypatch.setattr(bounds, "quad", lambda f, a, b: pieces.append((a, b)) or quad(f, a, b))
    assert reciprocal_tail_verdict(lambda s: s) == "diverges"
    assert pieces == [(2.0 ** k, 2.0 ** (k + 1)) for k in range(35, 44)]


def test_reciprocal_tail_verdict_between_its_thresholds_is_inconclusive():
    # the piece of 1/(s log s) on [2^k, 2^(k+1)] is log((k+1)/k), so the
    # ratios of the pieces from 2^35 on lie between 0.95 and 0.999; those of
    # 1/s^r are 2^(1-r): 0.99931 and 0.99903 for these two convergent powers
    for fn in (lambda s: s * math.log(s), lambda s: s ** 1.001, lambda s: s ** 1.0014):
        assert reciprocal_tail_verdict(fn) == "inconclusive"


def test_reciprocal_tail_verdict_of_a_vanishing_reciprocal_converges():
    assert reciprocal_tail_verdict(lambda s: math.inf) == "converges"


# --------------------------------------------------------------------------
# class arguments that cannot be hashed

class Unhashable:
    """A callable that defines __eq__, and so has no __hash__."""

    def __init__(self, fn):
        self.fn = fn

    def __eq__(self, other):
        return isinstance(other, Unhashable) and other.fn is self.fn

    def __call__(self, *args):
        return self.fn(*args)


def _quarter_power(s):
    return s ** 0.25


def _decay(tau, s):
    return np.exp(-tau) * s


def _decay_majorant(tau):
    return np.exp(-tau)


# each bound on a phi and an F, returning its constants
@pytest.mark.parametrize("bound", [
    lambda phi, F: bihari_bound(1.0, 0.5, 1.0, 0.5, const_grid(1.0), phi, 1.5),
    lambda phi, F: growth_envelope_constants(1.0, 1.0, 0.5, const_grid(1.0), phi,
                                             1.0).constants,
    lambda phi, F: lq_bihari_bound(1.0, 1.0, 2.0, const_grid(1.0), phi, phi, 1.5),
    lambda phi, F: uniform_bound_constant(
        2 / 3, 1 / 3, 1.0, GridFunction.from_callable(lambda t: np.exp(-t), 20.0, 256),
        phi, phi, tau0=0.1, q=4.0).constants,
    lambda phi, F: linear_class_bound(1.0, 1.0, 1.0, 1.0, 0.5, F, F, const_grid(1.0), 1.5),
    lambda phi, F: lipschitz_growth_constant(1.0, 1.0, 0.6, 0.3, F, F).constants,
], ids=["bihari_bound", "growth_envelope_constants", "lq_bihari_bound",
        "uniform_bound_constant", "linear_class_bound", "lipschitz_growth_constant"])
def test_bounds_take_unhashable_class_arguments(bound):
    phi = ComparisonFunction(Unhashable(_quarter_power), name="s^(1/4)")
    F = LipschitzClassFunction(Unhashable(_decay), Unhashable(_decay_majorant))
    with pytest.raises(TypeError, match="unhashable"):
        hash(phi)
    with pytest.raises(TypeError, match="unhashable"):
        hash(F)
    plain_phi = ComparisonFunction(_quarter_power, name="s^(1/4)")
    plain_F = LipschitzClassFunction(_decay, _decay_majorant)
    assert bound(phi, F) == bound(plain_phi, plain_F)


# --------------------------------------------------------------------------
# input checks and layering

_PHI = ComparisonFunction(lambda s: s, xi0=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ComparisonFunction(lambda s: s, xi0=0.0), DomainError, "xi0 must be positive"),
    (lambda: bihari_transform(ComparisonFunction(lambda s: -1.0), 2.0), ClassViolation,
     "phi: non-positive value -1.0 at s="),
    (lambda: bihari_inverse(_PHI, -1.0), DomainError, "transform inverse needs y >= 0"),
    (lambda: linear_class_bound(1.0, 1.0, 1.0, 1.0, -0.5, zero_lip(), zero_lip(),
                                const_grid(1.0), 1.0), DomainError, "gamma must be >= 0"),
    (lambda: lq_bihari_bound(1.0, 1.0, 1.0, const_grid(1.0), _PHI, _PHI, 1.0), DomainError,
     "q must exceed 1"),
    (lambda: lq_bihari_bound(1.0, -1.0, 2.0, const_grid(1.0), _PHI, _PHI, 1.0), DomainError,
     "k1 and k2 must be non-negative"),
    (lambda: growth_envelope_constants(1.0, 1.0, 1.0, const_grid(1.0), _PHI, 1.0),
     DomainError, r"alpha must lie in \(0, 1\)"),
    (lambda: lipschitz_growth_constant(1.0, 1.0, 0.5, 0.5, zero_lip(), zero_lip()),
     DomainError, "need 0 < beta < alpha < 1"),
    (lambda: singular_convolution_constant(0.5, 0.5, 4.0, 1.0), DomainError,
     "need 0 <= beta < alpha < 1"),
    (lambda: singular_convolution_constant(2 / 3, 1 / 3, 4.0, 0.0), DomainError,
     "tau0 must be positive"),
    (lambda: improper_tail(make_integrand("exp_decay"), split=-1.0), DomainError,
     "split must be >= 0"),
], ids=["xi0", "transform-phi", "inverse-y", "linear-gamma", "lq-q", "lq-k", "envelope-alpha",
        "lipschitz-orders", "singular-orders", "singular-tau0", "tail-split"])
def test_bound_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("gamma, expected", [(0.5, 0.0), (0.0, 2.0)])
def test_linear_class_bound_at_tau_zero(gamma, expected):
    F = zero_lip()
    assert linear_class_bound(2.0, 1.0, 1.0, 1.0, gamma, F, F, const_grid(1.0), 0.0) == expected


def _package_imports(path: Path) -> set[str]:
    """The package modules that a source file imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "fracasym"):  # from the package, its modules by name
                found.update(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return {name.removeprefix("fracasym").strip(".").split(".")[0]
            for name in found if name.startswith((".", "fracasym"))}


def test_the_bound_layer_imports_no_solver_and_owns_the_improper_integrals():
    src = Path(bounds.__file__).parent
    assert _package_imports(src / "bounds.py") <= {"_quadrature", "errors", "gamma", "grid"}
    names = {alias.name for node in ast.walk(ast.parse((src / "asymptotics.py").read_text()))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"quad", "dyadic_pieces", "improper_tail", "TailIntegrand"}
