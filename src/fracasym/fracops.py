"""Grid discretizations of the fractional integral and Caputo derivative.

Two schemes, both product-integration rules on the uniform grid with left
endpoint 0:

* rl_integral: piecewise-linear interpolation of the integrand integrated
  exactly against the kernel (tau - s)^(mu - 1) ("product trapezoid").
  For mu = 1 the weights collapse to the plain trapezoid rule.
* caputo_derivative: piecewise-linear interpolation of the function, exact
  kernel integration of its derivative (the L1 scheme).  For order 1 the
  scheme degenerates to plain backward differences, handled explicitly.

Node 0 of both operators is defined as 0: the fractional integral of a
bounded function vanishes at 0+, and so does the Caputo derivative of an
absolutely continuous function.

exact_power_rule supplies the closed forms for power functions that the
rest of the package uses as its testing oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .errors import DomainError
from .gamma import gamma_fn
from .grid import GridFunction, as_order

__all__ = [
    "rl_integral",
    "caputo_derivative",
    "exact_power_rule",
    "semigroup_residual",
    "composition_residual",
    "trapezoid_coefficients",
    "trapezoid_table",
    "rectangle_coefficients",
]


def rectangle_coefficients(mu: float, n: int) -> np.ndarray:
    """Left-rectangle product weights b[k] = k^mu - (k-1)^mu, k = 1..n.

    Entry 0 is unused and set to 0.  Together with the scale
    h^mu / Gamma(mu+1) these give the product-rectangle quadrature of the
    order-mu integral; with order 1 - mu they are the L1 Caputo weights.
    """
    k = np.arange(n + 1, dtype=float)
    b = np.zeros(n + 1)
    b[1:] = k[1:] ** mu - k[:-1] ** mu
    return b


def trapezoid_coefficients(mu: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoid weights for the order-mu integral.

    Returns (a, c) with, for k,m = 1..n,
        a[k] = (k+1)^(mu+1) - 2 k^(mu+1) + (k-1)^(mu+1)
        c[m] = (m-1)^(mu+1) - m^mu (m - mu - 1)
    so that, with scale w = h^mu / Gamma(mu+2),
        (J^mu f)(tau_m) ~ w * (c[m] f_0 + sum_{j=1}^{m-1} a[m-j] f_j + f_m).

    All entries are non-negative for mu > 0.
    """
    k = np.arange(n + 2, dtype=float)
    p = k ** (mu + 1.0)  # each power once: p[k] = k^(mu+1), k = 0..n+1
    a = np.zeros(n + 1)
    a[1:] = p[2:] - 2.0 * p[1:-1] + p[:-2]
    c = np.zeros(n + 1)
    c[1:] = p[:-2] - k[1:-1] ** mu * (k[1:-1] - mu - 1.0)
    return a, c


def trapezoid_table(n_max: int) -> Callable[[float, int], tuple[np.ndarray, np.ndarray]]:
    """trapezoid_coefficients as a function of (mu, n) for n <= n_max that
    computes each order's weights once, at n_max, and returns the leading
    n + 1 entries of them.  An entry depends on k and mu alone, and the
    weights of a shorter grid equal those entries bit for bit, so every level
    of a refinement study shares one table per order.  Nothing is kept
    beyond the returned function."""
    rows: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def weights(mu: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        if mu not in rows:
            rows[mu] = trapezoid_coefficients(mu, n_max)
        a, c = rows[mu]
        return a[:n + 1], c[:n + 1]

    return weights


def rl_integral(g: GridFunction, alpha) -> GridFunction:
    """Order-alpha fractional integral of g on its own grid, alpha in (0, 1]."""
    mu = as_order(alpha)
    n = g.n_steps
    a, c = trapezoid_coefficients(mu, n)
    scale = g.step ** mu / gamma_fn(mu + 2.0)
    return g.with_values(kernels.trap_apply(a, c, g.values, scale))


def caputo_derivative(g: GridFunction, alpha) -> GridFunction:
    """Order-alpha Caputo derivative of g on its own grid, alpha in (0, 1].

    The samples are assumed to come from an absolutely continuous function;
    that is the caller's responsibility.  alpha = 1 falls back to plain
    backward differences.
    """
    mu = as_order(alpha)
    h = g.step
    if mu == 1.0:
        out = np.zeros_like(g.values)
        out[1:] = np.diff(g.values) / h
        return g.with_values(out)
    n = g.n_steps
    d = rectangle_coefficients(1.0 - mu, n)
    diffs = np.diff(g.values)
    scale = h ** (-mu) / gamma_fn(2.0 - mu)
    return g.with_values(kernels.conv_lower(d, diffs, scale))


def exact_power_rule(kind: str, alpha: float, beta: float, tau: float) -> float:
    """Closed-form fractional integral/derivative of tau^(beta-1).

    kind='integral': Gamma(beta)/Gamma(beta+alpha) * tau^(alpha+beta-1)
    kind='caputo':   Gamma(beta)/Gamma(beta-alpha) * tau^(beta-alpha-1),
                     requiring beta - alpha > 0; beta = 1 gives exactly 0
                     (the derivative annihilates constants).
    """
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if alpha < 0:
        raise DomainError(f"alpha must be non-negative, got {alpha}")
    if kind == "integral":
        return gamma_fn(beta) / gamma_fn(beta + alpha) * tau ** (alpha + beta - 1.0)
    if kind == "caputo":
        if beta == 1.0:
            return 0.0
        if beta - alpha <= 0.0:
            raise DomainError(
                f"caputo power rule requires beta - alpha > 0 (or beta = 1), "
                f"got beta={beta}, alpha={alpha}")
        return gamma_fn(beta) / gamma_fn(beta - alpha) * tau ** (beta - alpha - 1.0)
    raise DomainError(f"kind must be 'integral' or 'caputo', got {kind!r}")


def _iterated_integral(g: GridFunction, mu: float) -> GridFunction:
    """J^mu for mu in (0, 2], chaining an order-1 step when mu > 1."""
    if mu <= 1.0:
        return rl_integral(g, mu)
    return rl_integral(rl_integral(g, mu - 1.0), 1.0)


def semigroup_residual(g: GridFunction, alpha, beta) -> float:
    """Max-norm of J^beta(J^alpha g) - J^(alpha+beta) g over the grid.

    A discretization residual, not exactly zero.  Orders with
    alpha + beta > 1 are handled by chaining an order-1 integral.
    """
    a = as_order(alpha)
    b = as_order(beta)
    nested = rl_integral(rl_integral(g, a), b)
    direct = _iterated_integral(g, a + b)
    return float(np.max(np.abs(nested.values - direct.values)))


def composition_residual(g: GridFunction, alpha, beta) -> float:
    """Max-norm residual of D^beta g = J^(alpha-beta) D^alpha g, beta <= alpha.

    For beta = alpha the intermediate integral is the identity and the
    residual is zero up to round-off.
    """
    a = as_order(alpha)
    b = as_order(beta)
    if not (0.0 < b <= a < 1.0):
        raise DomainError(f"composition requires 0 < beta <= alpha < 1, got {beta}, {alpha}")
    lhs = caputo_derivative(g, b)
    da = caputo_derivative(g, a)
    rhs = da if b == a else rl_integral(da, a - b)
    return float(np.max(np.abs(lhs.values - rhs.values)))
