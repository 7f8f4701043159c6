"""The in-package quadrature and root finder against scipy as the oracle.

`fracasym._quadrature` ports QUADPACK's qags and Brent's method, so on the
integrands and equations the bounds hand it, it should agree with scipy's
`quad` and `brentq` to well within their tolerances.
"""

import math
from itertools import islice

import pytest
import scipy.integrate
import scipy.optimize

from fracasym import _quadrature, bounds
from fracasym.asymptotics import make_integrand
from fracasym.catalog import make_phi

OPTS = bounds._QUAD_OPTS


def _scipy_quad(f, a, b):
    return scipy.integrate.quad(f, a, b, **OPTS)[0]


@pytest.mark.parametrize("p", [-0.5, -0.9, -0.99, 0.5])
def test_power_with_an_endpoint_singularity(p):
    # bisection without the epsilon algorithm is 23 % short at p = -0.99
    value, error = _quadrature.quad(lambda s: s ** p, 0.0, 1.0, **OPTS)
    assert value == pytest.approx(1.0 / (p + 1.0), rel=1e-11)
    assert error < 1e-11 * value


@pytest.mark.parametrize("name, params", [("power", {"exponent": 0.5}),
                                          ("power", {"exponent": 1.0}),
                                          ("power_plus_one", {"exponent": 0.5}),
                                          ("power_plus_one", {"exponent": 1.0})])
def test_bihari_integrand_in_log_coordinates(name, params):
    phi = make_phi(name, params)

    def integrand(u):
        s = math.exp(u)
        return s / phi(s)

    a, b = math.log(1e-8), math.log(1e6)
    value, _ = _quadrature.quad(integrand, a, b, **OPTS)
    assert value == pytest.approx(_scipy_quad(integrand, a, b), rel=1e-11, abs=0)
    assert bounds.bihari_transform(phi, 1e6) == value


@pytest.mark.parametrize("name, params, weight_power, lo", [
    ("exp_decay", {"rate": 1.0}, 0.0, 0.0),
    ("exp_decay", {"rate": 0.5}, 2.0, 1.0),
    ("power_exp", {"exponent": -0.5, "rate": 1.0}, 0.0, 0.0),
    ("power_exp", {"exponent": 1.5, "rate": 2.0}, -0.9, 0.0),
])
def test_dyadic_pieces_of_tail_integrands(name, params, weight_power, lo):
    fn = make_integrand(name, params).fn

    def f(s):
        return s ** weight_power * fn(s)

    for hi, value in islice(bounds.dyadic_pieces(f, lo), 12):
        assert value == pytest.approx(_scipy_quad(f, lo, hi), rel=1e-11, abs=0), (lo, hi)
        lo = hi


@pytest.mark.parametrize("f, a", [(lambda s: math.exp(-s), 0.0),
                                  (lambda s: 1.0 / (1.0 + s * s), 0.0),
                                  (lambda s: s ** -0.5 * math.exp(-s), 0.0),
                                  (lambda s: s ** -1.01, 1.0),
                                  (lambda s: s ** 2 * math.exp(-0.5 * s), 3.0)])
def test_infinite_upper_limit(f, a):
    value, _ = _quadrature.quad(f, a, math.inf, **OPTS)
    assert value == pytest.approx(_scipy_quad(f, a, math.inf), rel=1e-11, abs=0)


@pytest.mark.parametrize("name, params, y", [("power", {"exponent": 0.5}, 3.0),
                                             ("power", {"exponent": 0.5}, 800.0),
                                             ("power_plus_one", {"exponent": 0.8}, 12.0),
                                             ("identity", {}, 40.0)])
def test_brentq_against_scipy_on_the_transform(name, params, y):
    phi = make_phi(name, params)

    def f(xi):
        return bounds.bihari_transform(phi, xi) - y

    lo, hi = phi.xi0, 1.0
    while f(hi) < 0:
        lo, hi = hi, 8.0 * hi
    tols = dict(xtol=1e-300, rtol=1e-13, maxiter=300)
    root = _quadrature.brentq(f, lo, hi, **tols)
    assert root == pytest.approx(scipy.optimize.brentq(f, lo, hi, **tols), rel=1e-13)
    assert bounds.bihari_inverse(phi, y) == pytest.approx(root, rel=1e-13)


def test_brentq_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _quadrature.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-13,
                           maxiter=100)


@pytest.mark.parametrize("b", [800.0, math.inf])
def test_an_integrand_overflow_propagates_from_the_integrand(b):
    def integrand(u):
        return math.exp(u)

    with pytest.raises(OverflowError) as info:
        _quadrature.quad(integrand, 0.0, b, **OPTS)
    assert info.traceback[-1].name == "integrand"


def test_the_panel_limit_warns_and_returns_the_estimate():
    with pytest.warns(RuntimeWarning, match="panel limit"):
        value, error = _quadrature.quad(lambda s: math.sin(1.0 / s), 1e-3, 1.0,
                                        epsabs=1e-14, epsrel=1e-11, limit=5)
    assert math.isfinite(value) and error > 1e-11 * abs(value)
    assert value == pytest.approx(_scipy_quad(lambda s: math.sin(1.0 / s), 1e-3, 1.0),
                                  abs=error)
