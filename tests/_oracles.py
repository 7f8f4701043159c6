"""Independent oracles for the bound-dominance, convolution and solver tests.

The bound and convolution oracles are deliberately built from plain
numpy/scipy primitives (trapezoid cumulatives, adaptive quadrature) and
never call the package's own quadrature machinery, so a bug in the library
cannot cancel out of the comparison.

`march_reference` is the marching solver's reference: the scalar fractional
Adams predictor-corrector, one node at a time, with the direct history sums
of `kernels.pc_sums`.  It shares the package's quadrature weights, so the
windowed corrector must reproduce it to rounding.

The integral inequalities have extremal solutions that solve them as
equalities; Picard sweeps on a fine grid converge to those equalities, and
the library's closed-form bounds must dominate them pointwise.

scipy is imported inside the three oracles that use it, so a test file that
calls none of them runs where only numpy is installed.
"""

from __future__ import annotations

import numpy as np

from fracasym import kernels
from fracasym.fracops import rectangle_coefficients, trapezoid_coefficients
from fracasym.gamma import gamma_fn
from fracasym.grid import GridFunction
from fracasym.solvers import ProblemKind


def _cumtrapz(values: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * h * (values[1:] + values[:-1]), out=out[1:])
    return out


def picard_equality(update, z0: np.ndarray, tol: float = 1e-12,
                    max_sweeps: int = 500) -> np.ndarray:
    """Iterate z <- update(z) until the max change drops below tol."""
    z = z0.copy()
    for _ in range(max_sweeps):
        z_new = update(z)
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        if delta <= tol * (1.0 + float(np.max(np.abs(z)))):
            return z
    raise RuntimeError("picard iteration for the equality oracle did not converge")


def nonlinear_equality(taus, g, phi, c1, c2, c3, gamma):
    """Extremal solution of z = c1 + c2 t^g + c3 t^g int_0^t g(s) phi(z) ds."""
    h = taus[1] - taus[0]
    inhom = c1 + c2 * taus ** gamma

    def update(z):
        return inhom + c3 * taus ** gamma * _cumtrapz(g * phi(z), h)

    return picard_equality(update, inhom)


def linear_class_equality(taus, F1, F2, h_vals, c1, c2, c3, c4, gamma):
    """Extremal solution of
    z = c1 t^g + c2 t^g int_0^t [F1(s, z+c3) + F2(s, z+c4) + h(s)] ds."""
    h = taus[1] - taus[0]
    inhom = c1 * taus ** gamma

    def update(z):
        integrand = (np.array([F1(s, zz + c3) for s, zz in zip(taus, z)])
                     + np.array([F2(s, zz + c4) for s, zz in zip(taus, z)])
                     + h_vals)
        return inhom + c2 * taus ** gamma * _cumtrapz(integrand, h)

    return picard_equality(update, inhom)


def lq_equality(taus, h_vals, phi1, phi2, k1, k2, q):
    """Extremal solution of
    z = k1 + k2 (int_0^t h^q phi1^q(z) phi2^q(z) ds)^(1/q)."""
    h = taus[1] - taus[0]
    z0 = np.full_like(taus, k1)

    def update(z):
        integrand = h_vals ** q * phi1(z) ** q * phi2(z) ** q
        return k1 + k2 * _cumtrapz(integrand, h) ** (1.0 / q)

    return picard_equality(update, z0)


def singular_convolution_lhs(g_callable, upsilon: float, lam: float, tau: float,
                             knots=None) -> float:
    """int_0^tau (tau-s)^(upsilon-1) s^lam g(s) ds by adaptive quadrature.

    The substitution u = (tau - s)^upsilon removes the endpoint singularity:
    ds = -(1/upsilon) u^(1/upsilon - 1) du.  Known kink locations of g can be
    passed as breakpoints so the quadrature sees piecewise-smooth panels.
    """
    from scipy.integrate import quad

    def integrand(u):
        s = tau - u ** (1.0 / upsilon)
        s = min(max(s, 0.0), tau)
        return s ** lam * g_callable(s) / upsilon * u ** (1.0 / upsilon - 1.0)

    points = None
    if knots is not None:
        mapped = [(tau - t) ** upsilon for t in knots if 0.0 < t < tau]
        points = sorted(mapped) or None
    val, _ = quad(integrand, 0.0, tau ** upsilon, limit=800,
                  epsabs=1e-13, epsrel=1e-10, points=points)
    return float(val)


def lq_norm(g_callable, r: float, tau: float) -> float:
    """(int_0^tau g^r ds)^(1/r) by adaptive quadrature."""
    from scipy.integrate import quad

    val, _ = quad(lambda s: g_callable(s) ** r, 0.0, tau, limit=400,
                  epsabs=1e-13, epsrel=1e-11)
    return float(val) ** (1.0 / r)


def random_piecewise_linear(rng, t_end: float, n_knots: int = 9,
                            lo: float = 0.0, hi: float = 2.0):
    """A non-negative piecewise-linear callable with random knot values."""
    knots_t = np.linspace(0.0, t_end, n_knots)
    knots_v = rng.uniform(lo, hi, size=n_knots)

    def fn(s):
        return np.interp(s, knots_t, knots_v)

    return fn, knots_t, knots_v


# --------------------------------------------------------------------------
# scalar predictor-corrector reference for the marching solver

def _scalar_corrector(f, tau, base_x, coef_x, base_v, coef_v, phi, tol=1e-15, cap=10):
    """Solve phi = f(tau, base_x + coef_x phi, base_v + coef_v phi): plain
    fixed point, then bracketed root finding when it stalls.

    The solver stops at 1e-12; at that tolerance the scalar step itself is
    up to about 1e-12 of a column's max away from the exact solution of the
    discrete equations, so the reference converges to rounding instead."""
    scale = abs(coef_x) + abs(coef_v)
    for _ in range(cap):
        x_cur = base_x + coef_x * phi
        phi_new = float(f.fn(tau, x_cur, base_v + coef_v * phi))
        delta = scale * abs(phi_new - phi)
        phi = phi_new
        if delta <= tol * (1.0 + abs(x_cur)):
            return phi

    from scipy.optimize import brentq

    def g(p):
        return p - float(f.fn(tau, base_x + coef_x * p, base_v + coef_v * p))

    lo = hi = phi
    radius = max(abs(phi), 1.0) * 1e-3
    for _ in range(80):
        if g(lo) * g(hi) <= 0.0:
            break
        lo, hi, radius = lo - radius, hi + radius, 2.0 * radius
    else:
        raise RuntimeError(f"no root bracket for the corrector at tau={tau}")
    return float(brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200))


def march_reference(spec, t_end: float, n: int):
    """(x, Dbeta x, Dalpha x) of `spec` on n steps, marched one node at a
    time: a product-rectangle predictor and a product-trapezoid corrector
    solved as a scalar equation, with every history sum formed directly."""
    alpha, beta, b1, b2 = spec.alpha, spec.beta, spec.b1, spec.b2
    h = t_end / n
    taus = np.linspace(0.0, t_end, n + 1)
    if spec.kind is ProblemKind.DIRECT:
        mu_x, mu_v = alpha, alpha - beta
        x0, v0 = np.full(n + 1, b1), np.zeros(n + 1)
    else:
        mu_x, mu_v = alpha + 1.0, alpha - beta + 1.0
        x0 = b1 + b2 / gamma_fn(alpha + 1.0) * taus ** alpha
        v0 = b2 / gamma_fn(alpha - beta + 1.0) * taus ** (alpha - beta)
    aliased = spec.kind is ProblemKind.DIRECT and beta == 0.0  # v is x

    def weights(mu):
        a, c = trapezoid_coefficients(mu, n)
        return (rectangle_coefficients(mu, n), a, c,
                h ** mu / gamma_fn(mu + 1.0), h ** mu / gamma_fn(mu + 2.0))

    bx, ax, cx, wxp, wxc = weights(mu_x)
    if aliased:
        bv, av, cv, wvp, wvc, v0 = bx, ax, cx, wxp, wxc, x0
        v_rows = (np.empty(0), np.empty(0))
    else:
        bv, av, cv, wvp, wvc = weights(mu_v)
        v_rows = (bv, av)
    f = spec.rhs
    lead = 1 if f.singular_at_zero else 0
    x, v, fhist = x0.copy(), v0.copy(), np.zeros(n + 1)
    if lead == 0:
        fhist[0] = float(f.fn(0.0, x0[0], v0[0]))
    for m in range(1, n + 1):
        px, cxs, pv, cvs = kernels.pc_sums(bx, ax, *v_rows, fhist, m, 0)
        # the first subinterval weights f[lead], which is 0 until step lead is done
        fl = fhist[lead]
        shift = fl - fhist[0]
        x_pred = x0[m] + wxp * (px + bx[m] * shift)
        v_pred = v0[m] + wvp * (pv + bv[m] * shift)
        base_x = x0[m] + wxc * (cxs + cx[m] * fl)
        base_v = v0[m] + wvc * (cvs + cv[m] * fl)
        kx = wxc * (1.0 + cx[m]) if m == lead else wxc
        kv = wvc * (1.0 + cv[m]) if m == lead else wvc
        phi = _scalar_corrector(f, taus[m], base_x, kx, base_v, kv,
                                float(f.fn(taus[m], x_pred, v_pred)))
        fhist[m] = phi
        x[m] = base_x + kx * phi
        v[m] = base_v + kv * phi
    if spec.kind is ProblemKind.DIRECT:
        dalpha = fhist
    else:
        dalpha = b2 + GridFunction(t_end, fhist).cumulative_integral()
    return x, v, dalpha
