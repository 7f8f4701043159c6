"""Marching solvers for the two fractional initial value problem shapes.

Both problems are solved through their Volterra integral reformulations on
a uniform grid with a fractional Adams predictor-corrector: the predictor
uses product-rectangle convolution of the past right-hand-side values, the
corrector uses product-trapezoid weights.

direct problem (order-alpha Caputo equation, 0 <= beta < alpha < 1):
    x(tau) = b + J^alpha f,        Dbeta x(tau) = J^(alpha-beta) f
with beta = 0 meaning the third argument of f receives x itself.

sequential problem (first derivative of the order-alpha Caputo derivative,
0 < beta < alpha < 1):
    x(tau)      = b1 + b2 tau^alpha / Gamma(alpha+1)       + J^(alpha+1) f
    Dbeta x     = b2 tau^(alpha-beta) / Gamma(alpha-beta+1) + J^(alpha-beta+1) f
    Dalpha x    = b2 + J^1 f

Both reduce to the same marching recurrence: x and Dbeta x at a node are
affine in the single unknown f-value there, so the corrector is a scalar
fixed point.  When the plain fixed-point iteration stalls (strong coupling
through the derivative argument makes it non-contractive), the same scalar
equation is solved by bracketed root finding before giving up.

The predictor and corrector history sums of every step come from
`_core.history.BlockedHistory`: terms within the current aligned window of
128 nodes are summed directly, and the rest of the history arrives in dyadic
square blocks, each added by one FFT once its last f-value exists.  A solve
costs O(N log^2 N) in the sums, and the per-step loop dominates.

Right-hand sides flagged singular_at_zero are never evaluated at tau = 0:
the first subinterval of every convolution uses an open (right-endpoint)
product rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from ._core import kernels  # noqa: F401  perfbench/spans.py wraps the kernels through this name
from ._core.history import BlockedHistory
from ._scipy import brentq
from .errors import DomainError, RhsEvaluationError, StepFailure
from .fracops import rectangle_coefficients, rl_integral, trapezoid_coefficients
from .gamma import gamma_fn
from .grid import GridFunction

__all__ = [
    "ProblemKind",
    "RightHandSide",
    "ProblemSpec",
    "Solution",
    "solve_direct",
    "solve_sequential",
    "residual_check",
]

_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_CAP = 10
_BRACKET_EXPANSIONS = 80


class ProblemKind(Enum):
    DIRECT = "direct"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class RightHandSide:
    """An evaluatable f(tau, u, v) plus the metadata the solver needs.

    singular_at_zero: f cannot be evaluated at tau = 0 (e.g. a negative
    power prefactor); the solver switches to open quadrature on the first
    subinterval.
    """

    fn: Callable[[float, float, float], float]
    singular_at_zero: bool = False

    def __call__(self, tau: float, u: float, v: float) -> float:
        return self.fn(tau, u, v)


@dataclass(frozen=True)
class ProblemSpec:
    kind: ProblemKind
    alpha: float
    beta: float
    b1: float
    rhs: RightHandSide
    b2: float = 0.0  # sequential only: initial value of the order-alpha derivative

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.kind is ProblemKind.SEQUENTIAL:
            if not (0.0 < self.beta < self.alpha):
                raise DomainError(
                    f"sequential problems need 0 < beta < alpha, got beta={self.beta}")
        else:
            if not (0.0 <= self.beta < self.alpha):
                raise DomainError(
                    f"direct problems need 0 <= beta < alpha, got beta={self.beta}")


@dataclass(frozen=True)
class Solution:
    x: GridFunction
    dbeta_x: GridFunction
    dalpha_x: GridFunction
    spec: ProblemSpec
    rhs_history: np.ndarray = field(repr=False)  # f along the trajectory; 0 at node 0 for singular rhs
    corrector_iterations: np.ndarray = field(repr=False)


def _march(spec: ProblemSpec, t_end: float, n_steps: int,
           mu_x: float, mu_v: float | None,
           x_inhom: Callable[[np.ndarray], np.ndarray],
           v_inhom: Callable[[np.ndarray], np.ndarray] | None):
    """Shared predictor-corrector recurrence; returns (x, v, fhist, iters)."""
    n = int(n_steps)
    if n < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    h = t_end / n
    taus = np.linspace(0.0, t_end, n + 1)
    f = spec.rhs
    singular = f.singular_at_zero
    couple_v = mu_v is not None

    bx = rectangle_coefficients(mu_x, n)
    ax, cx_arr = trapezoid_coefficients(mu_x, n)
    wxp = h ** mu_x / gamma_fn(mu_x + 1.0)
    wxc = h ** mu_x / gamma_fn(mu_x + 2.0)
    if couple_v:
        bv = rectangle_coefficients(mu_v, n)
        av, cv_arr = trapezoid_coefficients(mu_v, n)
        wvp = h ** mu_v / gamma_fn(mu_v + 1.0)
        wvc = h ** mu_v / gamma_fn(mu_v + 2.0)
    else:
        bv = av = np.empty(0)
        cv_arr = np.zeros(n + 1)
        wvp = wvc = 0.0

    x0 = x_inhom(taus)
    v0 = v_inhom(taus) if couple_v else x0

    x = np.empty(n + 1)
    v = np.empty(n + 1)
    fhist = np.zeros(n + 1)
    iters = np.zeros(n + 1, dtype=int)

    x[0] = x0[0]
    v[0] = v0[0] if couple_v else x[0]
    if not singular:
        fhist[0] = _eval_rhs(f, 0, taus[0], x[0], v[0])

    history = BlockedHistory(bx, ax, bv, av, fhist)
    for m in range(1, n + 1):
        px, cxs, pv, cvs = history.sums(m)
        if singular and m >= 2:
            # open first subinterval: node 0's weight moves onto node 1
            px += bx[m] * fhist[1]
            cxs += cx_arr[m] * fhist[1]
            if couple_v:
                pv += bv[m] * fhist[1]
                cvs += cv_arr[m] * fhist[1]
            f0x = 0.0
            f0v = 0.0
        elif singular:  # m == 1: node-0 weight folds onto the unknown itself
            f0x = cx_arr[1]
            f0v = cv_arr[1] if couple_v else 0.0
        else:
            cxs += cx_arr[m] * fhist[0]
            if couple_v:
                cvs += cv_arr[m] * fhist[0]
            f0x = 0.0
            f0v = 0.0

        # corrector affine form: x = base_x + coef_x * f_here
        base_x = x0[m] + wxc * cxs
        coef_x = wxc * (1.0 + f0x)
        if couple_v:
            base_v = v0[m] + wvc * cvs
            coef_v = wvc * (1.0 + f0v)
        else:
            base_v = base_x
            coef_v = coef_x

        x_pred = x0[m] + wxp * px
        v_pred = (v0[m] + wvp * pv) if couple_v else x_pred
        phi = _eval_rhs(f, m, taus[m], x_pred, v_pred)

        phi, used = _solve_corrector(f, m, taus[m], base_x, coef_x, base_v, coef_v, phi)
        iters[m] = used
        fhist[m] = phi
        x[m] = base_x + coef_x * phi
        v[m] = (base_v + coef_v * phi) if couple_v else x[m]

    return taus, x, v, fhist, iters


def _eval_rhs(f: RightHandSide, node: int, tau: float, u: float, v: float) -> float:
    val = f(tau, u, v)
    if not math.isfinite(val):
        raise RhsEvaluationError(node, tau, f"rhs returned non-finite value {val}")
    return float(val)


def _solve_corrector(f: RightHandSide, node: int, tau: float,
                     base_x: float, coef_x: float,
                     base_v: float, coef_v: float, phi0: float) -> tuple[float, int]:
    """Solve phi = f(tau, base_x + coef_x phi, base_v + coef_v phi)."""
    phi = phi0
    scale = abs(coef_x) + abs(coef_v)
    for it in range(1, _FIXED_POINT_CAP + 1):
        x_cur = base_x + coef_x * phi
        phi_new = _eval_rhs(f, node, tau, x_cur, base_v + coef_v * phi)
        delta = scale * abs(phi_new - phi)
        phi = phi_new
        if delta <= _FIXED_POINT_TOL * (1.0 + abs(x_cur)):
            return phi, it

    # Fixed point stalled: the two unknowns are affine in the single f
    # value, so fall back to bracketed scalar root finding on
    # g(phi) = phi - f(...).
    def g(p: float) -> float:
        return p - _eval_rhs(f, node, tau, base_x + coef_x * p, base_v + coef_v * p)

    lo = hi = phi
    glo = ghi = g(phi)
    radius = max(abs(phi), 1.0) * 1e-3
    for _ in range(_BRACKET_EXPANSIONS):
        if glo == 0.0:
            return lo, _FIXED_POINT_CAP
        if ghi == 0.0:
            return hi, _FIXED_POINT_CAP
        if glo * ghi < 0.0:
            break
        lo -= radius
        hi += radius
        glo = g(lo)
        ghi = g(hi)
        radius *= 2.0
    else:
        raise StepFailure(node, tau, "corrector fixed point stalled and no root bracket found")

    root = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return float(root), _FIXED_POINT_CAP


def solve_direct(spec: ProblemSpec, t_end: float, n_steps: int) -> Solution:
    """Solve the order-alpha Caputo problem; returns x, Dbeta x, Dalpha x.

    Dalpha x equals the right-hand side along the trajectory, so it is the
    stored f history (0 at node 0 for singular right-hand sides).
    """
    if spec.kind is not ProblemKind.DIRECT:
        raise DomainError("solve_direct requires a direct ProblemSpec")
    alpha, beta, b = spec.alpha, spec.beta, spec.b1
    mu_v = alpha - beta if beta > 0.0 else None
    taus, x, v, fhist, iters = _march(
        spec, t_end, n_steps,
        mu_x=alpha, mu_v=mu_v,
        x_inhom=lambda t: np.full_like(t, b),
        v_inhom=(lambda t: np.zeros_like(t)) if mu_v is not None else None,
    )
    return Solution(
        x=GridFunction(t_end, x),
        dbeta_x=GridFunction(t_end, v),
        dalpha_x=GridFunction(t_end, fhist),
        spec=spec,
        rhs_history=fhist,
        corrector_iterations=iters,
    )


def solve_sequential(spec: ProblemSpec, t_end: float, n_steps: int) -> Solution:
    """Solve the sequential problem; returns x, Dbeta x, Dalpha x.

    Dalpha x is reconstructed from the running plain integral of the f
    history: b2 + J^1 f.
    """
    if spec.kind is not ProblemKind.SEQUENTIAL:
        raise DomainError("solve_sequential requires a sequential ProblemSpec")
    alpha, beta, b1, b2 = spec.alpha, spec.beta, spec.b1, spec.b2
    ga1 = gamma_fn(alpha + 1.0)
    gab1 = gamma_fn(alpha - beta + 1.0)
    taus, x, v, fhist, iters = _march(
        spec, t_end, n_steps,
        mu_x=alpha + 1.0, mu_v=alpha - beta + 1.0,
        x_inhom=lambda t: b1 + b2 / ga1 * t ** alpha,
        v_inhom=lambda t: b2 / gab1 * t ** (alpha - beta),
    )
    dalpha = b2 + GridFunction(t_end, fhist).cumulative_integral()
    return Solution(
        x=GridFunction(t_end, x),
        dbeta_x=GridFunction(t_end, v),
        dalpha_x=GridFunction(t_end, dalpha),
        spec=spec,
        rhs_history=fhist,
        corrector_iterations=iters,
    )


def residual_check(sol: Solution) -> float:
    """Max-norm defect of the integral equation, re-quadratured from the
    stored histories with the grid operators (an a-posteriori check that is
    independent of the marching weights for the sequential problem).

    For singular right-hand sides the grid operators integrate the first
    subinterval through node 0 (stored as 0) while the solver used an open
    rule there, so the defect is dominated by that convention gap near the
    origin; it is a meaningful consistency measure only for right-hand
    sides that are finite at 0.
    """
    spec = sol.spec
    fgrid = GridFunction(sol.x.t_end, sol.rhs_history)
    if spec.kind is ProblemKind.DIRECT:
        recon = spec.b1 + rl_integral(fgrid, spec.alpha).values
    else:
        taus = sol.x.taus
        jalpha1 = rl_integral(fgrid, spec.alpha).cumulative_integral()
        recon = (spec.b1 + spec.b2 / gamma_fn(spec.alpha + 1.0) * taus ** spec.alpha
                 + jalpha1)
    return float(np.max(np.abs(sol.x.values - recon)))
