"""Marching solvers for the two fractional initial value problem shapes.

Both problems are solved through their Volterra integral reformulations on
a uniform grid with a fractional Adams predictor-corrector: the predictor
uses product-rectangle convolution of the past right-hand-side values, the
corrector uses product-trapezoid weights.

direct problem (order-alpha Caputo equation, 0 <= beta < alpha < 1):
    x(tau) = b + J^alpha f,        Dbeta x(tau) = J^(alpha-beta) f
with beta = 0 meaning the third argument of f receives x itself: the solver
then gives the Dbeta x quantities the x ones (v = x comes out of the same
arithmetic) and sums the history once.

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

The first subinterval of every convolution weights f at one lead node:
node 0, or node 1 (an open, right-endpoint rule) for a right-hand side
flagged singular_at_zero, which is never evaluated at tau = 0.  At step 1
the open rule's weight folds onto the unknown f-value itself.
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


def _weights(mu: float, n: int, h: float):
    """Predictor and corrector weights of the order-mu integral: (b, a, c,
    predictor scale, corrector scale)."""
    b = rectangle_coefficients(mu, n)
    a, c = trapezoid_coefficients(mu, n)
    return b, a, c, h ** mu / gamma_fn(mu + 1.0), h ** mu / gamma_fn(mu + 2.0)


def _march(spec: ProblemSpec, t_end: float, n_steps: int,
           mu_x: float, mu_v: float | None,
           x_inhom: Callable[[np.ndarray], np.ndarray],
           v_inhom: Callable[[np.ndarray], np.ndarray]):
    """Shared predictor-corrector recurrence; returns (x, v, fhist, iters).

    mu_v None means v is x itself: the v quantities alias the x ones, and
    v_inhom is not used.
    """
    n = int(n_steps)
    if n < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    h = t_end / n
    taus = np.linspace(0.0, t_end, n + 1)
    f = spec.rhs
    lead = 1 if f.singular_at_zero else 0  # the node of the first subinterval's f

    bx, ax, cx, wxp, wxc = _weights(mu_x, n, h)
    x0 = x_inhom(taus)
    if mu_v is None:  # the history sums the aliased rows once
        bv, av, cv, wvp, wvc, v0 = bx, ax, cx, wxp, wxc, x0
        v_rows = (np.empty(0), np.empty(0))
    else:
        bv, av, cv, wvp, wvc = _weights(mu_v, n, h)
        v0 = v_inhom(taus)
        v_rows = (bv, av)
    # corrector weight of the unknown f[m] (x[m] = base_x + kx[m] f[m]); at
    # step lead the first subinterval's weight folds onto it.  Lists and
    # .item() keep the per-step arithmetic in Python floats, not numpy scalars.
    kx = [wxc] * (n + 1)
    kv = [wvc] * (n + 1)
    kx[lead] = wxc * (1.0 + cx.item(lead))
    kv[lead] = wvc * (1.0 + cv.item(lead))

    x = np.empty(n + 1)
    v = np.empty(n + 1)
    fhist = np.zeros(n + 1)
    iters = np.zeros(n + 1, dtype=int)
    x[0] = x0[0]
    v[0] = v0[0]
    if lead == 0:
        fhist[0] = _eval_rhs(f, 0, taus[0], x[0], v[0])
    f0 = fhist.item(0)

    history = BlockedHistory(bx, ax, *v_rows, fhist)
    for m in range(1, n + 1):
        px, cxs, pv, cvs = history.sums(m)
        # the first subinterval's weights multiply f[lead], which is 0 until
        # step lead is done; the predictor sums already hold them times f[0]
        fl = fhist.item(lead)
        shift = fl - f0
        x_pred = x0[m] + wxp * (px + bx.item(m) * shift)
        v_pred = v0[m] + wvp * (pv + bv.item(m) * shift)
        base_x = x0[m] + wxc * (cxs + cx.item(m) * fl)
        base_v = v0[m] + wvc * (cvs + cv.item(m) * fl)
        phi = _eval_rhs(f, m, taus[m], x_pred, v_pred)
        phi, iters[m] = _solve_corrector(f, m, taus[m], base_x, kx[m], base_v, kv[m], phi)
        fhist[m] = phi
        x[m] = base_x + kx[m] * phi
        v[m] = base_v + kv[m] * phi

    return x, v, fhist, iters


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
    x, v, fhist, iters = _march(
        spec, t_end, n_steps,
        mu_x=alpha, mu_v=alpha - beta if beta > 0.0 else None,
        x_inhom=lambda t: np.full_like(t, b),
        v_inhom=np.zeros_like,
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
    x, v, fhist, iters = _march(
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
