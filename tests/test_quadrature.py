"""The in-package quadrature and the Bihari inverse against scipy as the oracle.

On the integrands the bounds hand it, `fracasym._quadrature.quad` should
agree with scipy's `quad` asked for 1e-13 relative accuracy to well within
the package's tolerance.  `bounds.bihari_inverse` solves E(xi) = y by Newton
steps, so it should agree with scipy's `brentq` on the same transform.  The
tests of the rule that need no scipy are in test_tanh_sinh.py.
"""

import math
from itertools import islice

import pytest
import scipy.integrate
import scipy.optimize

from fracasym import _quadrature, bounds
from fracasym.bounds import ComparisonFunction
from fracasym.catalog import make_integrand, make_phi


def _scipy_quad(f, a, b):
    # no absolute floor: the tail pieces are as small as 1e-56
    return scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


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
    value = _quadrature.quad(integrand, a, b)
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


def _brent_root(phi, y):
    def f(xi):
        return bounds.bihari_transform(phi, xi) - y

    lo, hi = phi.xi0, 1.0
    while f(hi) < 0:
        lo, hi = hi, 8.0 * hi
    return scipy.optimize.brentq(f, lo, hi, xtol=1e-300, rtol=1e-13, maxiter=300)


# scipy's brentq on the same transform is the oracle of the Newton inverse
@pytest.mark.parametrize("name, params, y", [("power", {"exponent": 0.5}, 3.0),
                                             ("power", {"exponent": 0.5}, 800.0),
                                             ("power_plus_one", {"exponent": 0.8}, 12.0),
                                             ("identity", {}, 40.0)])
def test_brentq_against_scipy_on_the_transform(name, params, y):
    phi = make_phi(name, params)
    root = _brent_root(phi, y)
    assert bounds.bihari_inverse(phi, y) == pytest.approx(root, rel=1e-13)
    # a start above the root
    assert bounds.bihari_inverse(phi, y, lo_hint=10.0 * root) == pytest.approx(root, rel=1e-13)


def test_inverse_of_a_transform_that_is_not_concave_takes_bracket_midpoints(monkeypatch):
    # a dip of phi around s = 3 makes E convex there: the first step from
    # xi0 overshoots to about 10, and the step back leaves the bracket below xi0
    phi = ComparisonFunction(lambda s: 1.0 / (1.0 + 50.0 * math.exp(-(s - 3.0) ** 2)),
                             xi0=1e-8, name="dip")
    y = 10.0
    root = _brent_root(phi, y)
    seen = []
    transform = bounds.bihari_transform

    def recording(phi_, xi):
        e = transform(phi_, xi)
        seen.append((xi, e))
        return e

    monkeypatch.setattr(bounds, "bihari_transform", recording)
    assert bounds.bihari_inverse(phi, y) == pytest.approx(root, rel=1e-13)
    lo, hi, midpoints = phi.xi0, math.inf, 0
    for (xi, e), (nxt, _) in zip(seen, seen[1:]):
        if e <= y:
            lo = xi
        else:
            hi = xi
        midpoints += nxt == math.sqrt(lo * hi)
    assert midpoints >= 1


@pytest.mark.parametrize("b", [800.0])
def test_an_integrand_overflow_propagates_from_the_integrand(b):
    def integrand(u):
        return math.exp(u)

    with pytest.raises(OverflowError) as info:
        _quadrature.quad(integrand, 0.0, b)
    assert info.traceback[-1].name == "integrand"
