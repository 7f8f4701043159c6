"""Marching solvers for the two fractional initial value problem shapes.

Both problems are solved through their Volterra integral reformulations on
a uniform grid with the fractional product-trapezoid rule (the corrector of
Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002).

direct problem (order-alpha Caputo equation, 0 <= beta < alpha < 1):
    x(tau) = b + J^alpha f,        Dbeta x(tau) = J^(alpha-beta) f
with beta = 0 meaning the third argument of f receives x itself: the solver
then gives the Dbeta x quantities the x ones (v is x, from the same
arithmetic) and sums the history once.

sequential problem (first derivative of the order-alpha Caputo derivative,
0 < beta < alpha < 1):
    x(tau)      = b1 + b2 tau^alpha / Gamma(alpha+1)       + J^(alpha+1) f
    Dbeta x     = b2 tau^(alpha-beta) / Gamma(alpha-beta+1) + J^(alpha-beta+1) f
    Dalpha x    = b2 + J^1 f

Both reduce to the same marching recurrence: x and Dbeta x at a node are
affine in the f-values up to that node, with weight k on the node's own
f-value.  So the unknown f-values phi of one aligned block of BLOCK = 1024
unknowns (nodes 1..1024, 1025..2048, ...; a grid of 2^k steps fills whole
blocks, and a grid of at most 1024 steps is one block) solve a
lower-triangular system

    phi = f(tau, x(phi), v(phi)),   x(phi) = base_x + w_x L_x phi + k_x phi

(L_x strictly lower Toeplitz in the weights; the same for v).  A diagonal
sweep applies L_x by one real FFT, `BlockedHistory.inblock`, except the
first sweep of a window: every node then holds its start phi0, so L_x phi
is phi0 times `BlockedHistory.prefix`, the prefix sums of the weights,
with no FFT.
`_sweep` solves a window of it by vectorized sweeps of diagonal Newton, as
Garrappa does for implicit product-integration rules (Mathematics 6(2):16,
2018):

    phi <- phi - (phi - F) / (1 - s),   s = F_u k_x + F_v k_v,

and phi <- F (plain Picard) where that denominator is 1, not finite or 0.
Each sweep makes one elementwise call of the right-hand side's fused
`partials`, which returns F, F_u and F_v together.  A right-hand side
without it is called through `fn`, and s is the secant slope of F at each
node from the last sweep to this one, (F - F_last) / (phi - phi_last): 0
in the first sweep, where phi did not move and where F did not change, so
a source that does not depend on the state takes Picard steps.  Every node
starts from f at the node before the window.  A node has converged once
scale |delta phi| <= 1e-12 (1 + |x|) held in two sweeps in a row (scale =
|k_x| + |k_v|), or in one sweep that moved no node of the window (every
delta phi exactly 0: the next sweep would repeat it bit for bit), and the
last sweep's changes of the nodes up to it move its x and Dbeta x by no
more, in-block sums included:

    scale |delta phi_i| + sum_{j<i} (w_x a_x[i-j] + w_v a_v[i-j]) |delta phi_j|
        <= 1e-12 (1 + |x_i|).

The window commits its longest converged prefix and starts again at the
first node that had not.  The sweep that checks this coupled rule sums the
last changes and the block's f-values with the new iterates in one stacked
`inblock` call, so a diagonal window attempt makes one in-block transform
per sweep after the first and one more for the check and the commit
together.  A diagonal attempt whose window is its whole block and whose
last sweep moved no node (as for a source that does not depend on the
state) makes no such call: its changes are 0, and the block's in-block
sums are that sweep's own.  Such a block costs two sweeps and one one-row
in-block transform, or, when the source equals the start (zero_rhs), one
sweep and no transform.

Where a partial is large, diagonal Newton advances about one node a sweep.
A window attempt that reaches the sweep cap and commits only part of its
nodes has stalled; the next attempt (of a right-hand side with partials)
takes full Newton steps instead, on a window of at most LOWER = 128 nodes,
solving with its lower-triangular Jacobian of phi - F,

    J = diag(1 - F_u k_x - F_v k_v) - diag(F_u) w_x L_x - diag(F_v) w_v L_v,

and the diagonal step in any sweep where J is not finite or is singular.
np.linalg.solve is cubic in the window length, hence the shorter window;
J is built from the dense LOWER-node Toeplitz block `BlockedHistory.lower`,
which the first Newton attempt of a solve builds, and solved in reverse
node order, where it is upper triangular, so that no row exchange mixes
the rounding of later, unconverged nodes into the step of an earlier one.
For the same reason a Newton attempt sums the window by the causal product
with that dense block, not by FFT, whose rounding reaches every node.
Every node records the sweeps of the window attempt that committed it,
fewer than _FIXED_POINT_CAP.  A window whose first node does not converge
raises StepFailure for that node: its iterate was not finite, or the
sweeps reached the cap.

The history from before the block comes from `history.BlockedHistory`,
in dyadic square blocks, each added by one FFT once its last f-value
exists, so a solve costs O(N log^2 N).  `_march` is one loop over the
blocks, and in each block one loop over window attempts, each from the
first node not yet committed.  It keeps, for the nodes of the block, what
their quantities hold besides their inhomogeneous terms and their own
f-values: the out-of-block sums, f at the lead node times its weight c, and
the in-block sums of the committed f-values (none before the block's first
commit), which it forms anew after each commit from the transform that
commit yields at every node of the block.  Once the block is done, w
times the sum of these and the block's f-values is added in place to the
inhomogeneous terms, which become x and Dbeta x at all its nodes.

The first subinterval of every convolution weights f at one lead node:
node 0, or node 1 (an open, right-endpoint rule) for a right-hand side
flagged singular_at_zero, which is never evaluated at tau = 0.  Node 1 is
then solved alone, by the first window attempt of the first block: a
one-node window whose weight k = w (1 + c_1) holds the open rule's weight,
started from f(tau_1, x_inhom, v_inhom).  Every later window knows f at the
lead node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import kernels  # noqa: F401  perfbench/spans.py wraps the kernels through this name
from .errors import DomainError, RhsEvaluationError, StepFailure
from .fracops import rl_integral, trapezoid_coefficients
from .fracops import rectangle_coefficients  # noqa: F401  perfbench/spans.py wraps it by name
from .gamma import gamma_fn
from .grid import GridFunction
from .history import BLOCK, LOWER, BlockedHistory

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


class ProblemKind(Enum):
    DIRECT = "direct"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class RightHandSide:
    """An evaluatable f(tau, u, v) plus the metadata the solver needs.

    fn must evaluate elementwise (numpy operations, np.where rather than a
    Python conditional): the solver calls it on arrays of nodes, and on
    scalars at the lead node.  A scalar result for array arguments is
    broadcast.

    singular_at_zero: f cannot be evaluated at tau = 0 (e.g. a negative
    power prefactor); the solver switches to open quadrature on the first
    subinterval.

    partials: an elementwise call that returns (f, df/du, df/dv) at once,
    sharing their common factors, with f equal to fn's value bit for bit
    (a scalar partial is broadcast).  Each Newton sweep of the corrector
    makes one such call; fn serves the lead node.  Without partials the
    sweeps call fn and take the secant slope of f between sweeps as the
    diagonal of the Jacobian, and a stalled window gets no full Newton
    steps.
    """

    fn: Callable[[float, float, float], float]
    singular_at_zero: bool = False
    partials: Callable[[float, float, float], tuple[float, float, float]] | None = None

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


@np.errstate(over="ignore", invalid="ignore")  # a quantity that is not finite is a StepFailure
def _march(spec: ProblemSpec, t_end: float, n_steps: int,
           mu_x: float, mu_v: float | None,
           x_inhom: Callable[[np.ndarray], np.ndarray],
           v_inhom: Callable[[np.ndarray], np.ndarray]):
    """Shared windowed corrector recurrence; returns (x, v, fhist, iters).

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

    # one row per unknown quantity: x, then Dbeta x unless it is x itself
    mus, inhoms = ((mu_x,), (x_inhom,)) if mu_v is None else ((mu_x, mu_v), (x_inhom, v_inhom))
    a, c = zip(*(trapezoid_coefficients(mu, n) for mu in mus))
    c = np.array(c)
    # the weight of the unknown f[m] in the quantities at node m
    w = np.array([[h ** mu / gamma_fn(mu + 2.0)] for mu in mus])
    # the quantities: their inhomogeneous terms, to which each block adds its sums once done
    z = np.array([inhom(taus) for inhom in inhoms])
    fhist = np.zeros(n + 1)
    iters = np.zeros(n + 1, dtype=int)
    history = BlockedHistory(a, fhist[1:])
    stalled = False  # the last window attempt reached the sweep cap and committed part

    if lead == 0:
        fhist[0] = _eval_rhs(f, 0, taus[0], z[0, 0], z[-1, 0])

    for start in range(1, n + 1, BLOCK):  # the blocks of unknowns f[1..n]
        end = min(start + BLOCK, n + 1)
        values = fhist[start:end]  # the block's f-values, 0 from the first uncommitted node on
        outside = history.block(start - 1)
        # everything in the block's quantities but their inhomogeneous terms and
        # their own f-values: the out-of-block sums, f[lead] through c and the
        # in-block sums of the committed f-values (none yet)
        known = outside + c[:, start:end] * fhist[lead]
        m = start
        while m < end:  # one window attempt, from the first node not committed
            if m == lead:  # node 1 alone: the open rule's first-subinterval weight folds onto f[1]
                stop, base, k = 2, z[:, 1:2], w * (1.0 + c[:, 1:2])
                phi0 = _eval_rhs(f, 1, taus[1], z[0, 1], z[-1, 1])
            else:
                stop, base, k, phi0 = end, z[:, m:end] + w * known[:, m - start:], w, fhist[m - 1]
            newton = stalled and f.partials is not None
            if newton:  # a window of at most LOWER nodes
                stop = min(stop, m + LOWER)
            done, sweeps, phi, sums = _sweep(f, taus[m:stop], base, w, history, k, phi0, newton,
                                             values, m - start)
            stalled = sweeps == _FIXED_POINT_CAP - 1 and done < stop - m
            if not done:  # the window's first node
                if not phi.size:
                    raise RhsEvaluationError(m, taus[m], "rhs value or corrector step not finite")
                raise StepFailure(m, taus[m], f"corrector did not converge in {sweeps} sweeps")
            fhist[m:m + done] = phi[:done]
            iters[m:m + done] = sweeps
            m += done
            # the in-block sums of the block's f-values, unless the last sweep's
            # transform already gave them
            if sums is None:
                sums = history.inblock(values)
            known = outside + c[:, start:end] * fhist[lead] + sums
        # the block's quantities, from the in-block sums of all its f-values
        z[:, start:end] += w * (known + values)
        if not np.isfinite(z[:, start:end]).all():  # the block's first bad node fails
            node = start + int(np.isfinite(z[:, start:end]).all(axis=0).argmin())
            raise StepFailure(node, taus[node], "x or Dbeta x is not finite")

    return z[0], z[-1], fhist, iters


def _sweep(f: RightHandSide, tau, base, w, history: BlockedHistory, k, phi0: float,
           newton: bool, values: np.ndarray, offset: int):
    """Solve phi = f(tau, x(phi)[, Dbeta x(phi)]) by sweeps over the whole
    window, every node started from phi0: diagonal Newton, or with newton
    full Newton steps on the window's lower-triangular Jacobian (a window of
    at most LOWER nodes).  The quantities are

        base + w * history.inblock(phi) + k * phi

    (in a Newton attempt with history.lower[:, :size, :size] @ phi, the
    dense causal sums its Jacobian is built from, for the FFT; in the first
    diagonal sweep, where every node is at phi0, with the closed form
    phi0 * history.prefix[:, :size]), one row of
    base, w and k, and of the weights of history, per quantity (x, then
    Dbeta x unless it is x); w and k are columns, the same at every node.
    values holds the f-values of the window's block, 0 from the window on,
    which starts at values[offset].  A node has converged once it passed the
    stop rule in two sweeps in a row, or in a sweep that moved no node.
    Returns (number of leading nodes that converged, sweeps made, iterate,
    in-block sums of values with the converged iterates written in); the
    nodes from the first one whose iterate is not finite are cut.  The sums
    come from the stacked transform that checks the stop rule's reach, or,
    where a diagonal sweep moved no node of a window that is its whole block
    (offset 0, every node converged), from that sweep's own sums.  They
    are None where the last sweep did not yield them: no node converged, or
    the stop rule's reach cut the converged prefix."""
    scale = abs(k[0, 0]) + abs(k[-1, 0])
    phi = np.full(tau.size, phi0)
    passed = np.zeros(phi.size, dtype=bool)
    sums = last = None
    if newton:  # the strictly lower part of d(x[, Dbeta x])/d phi
        coupling = w[:, :, None] * history.lower[:, :phi.size, :phi.size]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(1, _FIXED_POINT_CAP):
            size = phi.size
            if newton:
                inner = history.lower[:, :size, :size] @ phi
            elif sweep == 1:  # every node at phi0: the in-block sums in closed form
                inner = phi0 * history.prefix[:, :size]
            else:
                inner = history.inblock(phi)
            z = base[:, :size] + w * inner + k * phi
            x, v = z[0], z[-1]
            t = tau[:size]
            if f.partials is None:  # the secant slope of F from the last sweep to this one
                fx, slope = _values(f.fn(t, x, v), t.shape), 0.0
                if last is not None and not np.array_equal(fx, last[1][:size]):
                    dphi = phi - last[0][:size]
                    slope = np.where(dphi != 0.0, (fx - last[1][:size]) / dphi, 0.0)
                last = phi, fx
            else:
                fx, fu, fv = f.partials(t, x, v)
                fx = _values(fx, t.shape)
                # F_u k_x + F_v k_v, with v x itself when there is one row
                slope = (fu + fv) * k[0] if len(k) == 1 else fu * k[0] + fv * k[1]
            delta = None
            if newton:
                delta = _newton_step(phi - fx, 1.0 - slope, fu, fv, coupling[:, :size, :size])
            new = _diagonal_step(phi, fx, slope) if delta is None else phi - delta
            finite = np.isfinite(new)
            if not finite.all():  # the nodes from the first bad one on start over
                size = int(finite.argmin())
                new, x, passed = new[:size], x[:size], passed[:size]
            change = np.abs(new - phi[:size])
            tol = _FIXED_POINT_TOL * (1.0 + np.abs(x))
            ok = scale * change <= tol
            # a node is converged once it passed the stop rule in two sweeps
            # in a row, or in a sweep that moved no node of the window: the
            # next sweep would repeat that one exactly
            still = size == phi.size and not change.any()
            both = ok & (passed | still)
            done = size if both.all() else int(both.argmin())
            if still and done == values.size and not newton:
                # the whole block at a fixed point: the last changes are 0 and
                # its in-block sums are this sweep's own
                sums = inner
            elif done and (done == size or sweep == _FIXED_POINT_CAP - 1):
                # and the last changes of the nodes up to it, through the
                # in-block sums (w a[i-j] >= 0), move its x, Dbeta x by no
                # more; the same transform sums values with the new iterates
                # of those nodes, for the commit
                window = slice(offset, offset + done)
                stack = np.zeros((2, values.size))
                stack[0, window] = change[:done]
                stack[1] = values
                stack[1, window] = new[:done]
                reach, sums = history.inblock(stack)
                reach = w * reach[:, window]
                over = scale * change[:done] + reach[0] + reach[-1] > tol[:done]
                if over.any():
                    done, sums = int(over.argmax()), None
            phi, passed = new, ok
            if done == size:
                break
    return done, sweep, phi, sums


def _newton_step(step, denom, fu, fv, coupling):
    """Solve J d = step for the window's Jacobian of phi - F,

        J = diag(denom) - diag(F_u) coupling_x - diag(F_v) coupling_v,

    which is lower triangular (with one row, v is x: F_u + F_v multiply
    coupling_x); None when J is not finite or is singular."""
    slopes = (fu + fv,) if len(coupling) == 1 else (fu, fv)
    jac = np.diag(np.broadcast_to(denom, step.shape))
    for slope, part in zip(slopes, coupling):
        jac -= np.broadcast_to(slope, step.shape)[:, None] * part
    if not (np.isfinite(jac).all() and denom.all()):
        return None
    # in reverse node order J is upper triangular: LU finds no pivot to swap,
    # so each node's step depends on the steps of the nodes before it alone
    return np.linalg.solve(jac[::-1, ::-1], step[::-1])[::-1]


def _diagonal_step(phi, fx, slope):
    """The diagonal Newton step phi - (phi - F) / (1 - slope); F itself (plain
    Picard) where that denominator is 1, not finite or 0."""
    if not np.any(slope):
        return fx
    denom = 1.0 - slope
    picard = (denom == 1.0) | (denom == 0.0) | ~np.isfinite(denom)
    return np.where(picard, fx, phi - (phi - fx) / denom)


def _values(out, shape) -> np.ndarray:
    """A result of f as a float array of the given shape; a scalar is broadcast."""
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _eval_rhs(f: RightHandSide, node: int, tau: float, u: float, v: float) -> float:
    val = f(tau, u, v)
    if not math.isfinite(val):
        raise RhsEvaluationError(node, tau, f"rhs returned non-finite value {val}")
    return float(val)


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
    return _solution(spec, t_end, x, v, fhist, fhist, iters)


def solve_sequential(spec: ProblemSpec, t_end: float, n_steps: int) -> Solution:
    """Solve the sequential problem; returns x, Dbeta x, Dalpha x.

    Dalpha x is reconstructed from the running plain integral of the f
    history: b2 + J^1 f.
    """
    if spec.kind is not ProblemKind.SEQUENTIAL:
        raise DomainError("solve_sequential requires a sequential ProblemSpec")
    alpha, beta, b1, b2 = spec.alpha, spec.beta, spec.b1, spec.b2
    cx = b2 / gamma_fn(alpha + 1.0)
    cv = b2 / gamma_fn(alpha - beta + 1.0)
    for name, coef in (("b2 / Gamma(alpha+1)", cx), ("b2 / Gamma(alpha-beta+1)", cv)):
        if not math.isfinite(coef):  # inf * 0^alpha would be NaN at tau = 0
            raise DomainError(f"initial-value coefficient {name} overflows a float")
    x, v, fhist, iters = _march(
        spec, t_end, n_steps,
        mu_x=alpha + 1.0, mu_v=alpha - beta + 1.0,
        x_inhom=lambda t: b1 + cx * t ** alpha,
        v_inhom=lambda t: cv * t ** (alpha - beta),
    )
    dalpha = b2 + GridFunction(t_end, fhist).cumulative_integral()
    return _solution(spec, t_end, x, v, dalpha, fhist, iters)


def _solution(spec: ProblemSpec, t_end: float, x, v, dalpha, fhist, iters) -> Solution:
    return Solution(x=GridFunction(t_end, x), dbeta_x=GridFunction(t_end, v),
                    dalpha_x=GridFunction(t_end, dalpha), spec=spec,
                    rhs_history=fhist, corrector_iterations=iters)


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
