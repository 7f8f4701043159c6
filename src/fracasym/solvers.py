"""Marching solvers for the two fractional initial value problem shapes.

Both problems are solved through their Volterra integral reformulations on
a uniform grid with the fractional product-trapezoid rule (the corrector of
Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002).

direct problem (order-alpha Caputo equation, 0 <= beta < alpha < 1):
    x(tau) = b + J^alpha f,        Dbeta x(tau) = J^(alpha-beta) f
with beta = 0 meaning the third argument of f receives x itself.  The
march always carries x and Dbeta x as two rows, and its history keeps one
weight row per distinct order: at beta = 0 Dbeta x has x's order and
inhomogeneous term b, so the one history row, broadcast to both, gives
Dbeta x = x by the same arithmetic.

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
Each sweep makes one elementwise call of the right-hand side's
`partials`, which returns F, F_u and F_v together: the catalog's own fused
ones, or, for a right-hand side made without them, F and one-sided
difference quotients of `fn` in u and in v (two more elementwise calls).
A source that does not depend on the state has F_u = F_v = 0, so it takes
Picard steps.  Every node starts from f at the node before the window.  A
node has converged once
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
nodes has stalled; the next attempt takes full Newton steps instead, on a
window of at most LOWER = 128 nodes, solving with its lower-triangular
Jacobian of phi - F,

    J = diag(1 - F_u k_x - F_v k_v) - diag(F_u) w_x L_x - diag(F_v) w_v L_v,

and the diagonal step in any sweep where J is not finite or is singular.
A diagonal attempt right after a Newton attempt that stalls with fewer
than LOWER nodes committed has done less than one Newton window would,
so every later attempt of its block takes Newton steps; each block
starts with diagonal sweeps again.  J is built from the dense LOWER-node
Toeplitz block `BlockedHistory.lower`, which the first Newton attempt of a
solve builds, and solved by forward substitution over diagonal blocks of
_SUBSTITUTION_BLOCK = 32 nodes, each by LU in reverse node order, where
it is upper triangular: LU exchanges no rows, which would mix the rounding
of later, unconverged nodes into the step of an earlier one, and costs a
cube of 32 rather than of the window's length.  For the same reason a
Newton attempt sums the window by the causal product with that dense
block, not by FFT, whose rounding reaches every node.

The quantities of a window's first node depend on its own iterate alone,
so once phi - F has taken both signs there, the last iterates of each sign
bracket a root, and a step of that node from a finite F that leaves the
bracket takes its midpoint instead, as `bounds.bihari_inverse` does (where
F is not finite the node is cut, as any node whose iterate is not
finite); not a step that passes the stop rule, since there the rounding
of the in-block sums, which reaches the first node too, blurs the signs.
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
flagged singular_at_zero, which is never evaluated at tau = 0.  Before the
first block `_march` evaluates f there from the inhomogeneous terms, by the
same elementwise call on a one-node slice that every sweep makes: node 0's
f-value, or node 1's start.  Node 1 is then solved alone, by the first
window attempt of the first block: a one-node window whose weight
k = w (1 + c_1) holds the open rule's weight.  Every later window knows f
at the lead node.  The whole march runs under np.errstate(all="ignore"),
so no numpy warning escapes a solve: a value that is not finite, of f or of
a quantity, ends it in one StepFailure that names its node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import kernels  # noqa: F401  perfbench/spans.py wraps the kernels through this name
from .errors import DomainError, StepFailure
from .fracops import rl_integral, trapezoid_coefficients
from .fracops import rectangle_coefficients  # noqa: F401  perfbench/spans.py wraps it by name
from .gamma import gamma_fn
from .grid import GridFunction, as_values
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
# the diagonal blocks of a Newton step's forward substitution: LU is cubic
# in the block's length, the products with the nodes before it quadratic
_SUBSTITUTION_BLOCK = 32
# the relative step of the difference quotients that stand in for missing
# partials: about sqrt(float epsilon), which balances truncation and rounding
_DIFFERENCE_STEP = 2.0 ** -26


class ProblemKind(Enum):
    DIRECT = "direct"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class RightHandSide:
    """An evaluatable f(tau, u, v) plus the metadata the solver needs.

    fn must evaluate elementwise (numpy operations, np.where rather than a
    Python conditional): the solver calls it on arrays of nodes only.  A
    scalar result for array arguments is broadcast.

    singular_at_zero: f cannot be evaluated at tau = 0 (e.g. a negative
    power prefactor); the solver switches to open quadrature on the first
    subinterval.

    partials: an elementwise call that returns (f, df/du, df/dv) at once,
    sharing their common factors, with f equal to fn's value bit for bit
    (a scalar partial is broadcast).  Each Newton sweep of the corrector
    makes one such call.  Where none is given, the RightHandSide derives it
    from fn when it is made: f, and one-sided difference quotients of fn in
    u and in v, so that it costs three calls of fn.
    """

    fn: Callable[[float, float, float], float]
    singular_at_zero: bool = False
    partials: Callable[[float, float, float], tuple[float, float, float]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "partials",
                           self.partials or functools.partial(_difference_partials, self.fn))


def _difference_partials(fn, tau, u, v):
    """(f, df/du, df/dv) of fn at (tau, u, v), the partials by one-sided
    difference quotients with the step _DIFFERENCE_STEP (1 + |u|) in u, and
    likewise in v, each divided by the step as rounded into the argument."""
    f = fn(tau, u, v)
    u1 = u + _DIFFERENCE_STEP * (1.0 + np.abs(u))
    v1 = v + _DIFFERENCE_STEP * (1.0 + np.abs(v))
    return f, (fn(tau, u1, v) - f) / (u1 - u), (fn(tau, u, v1) - f) / (v1 - v)


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
    """x, Dbeta x and Dalpha x are read-only views on the solver's own
    arrays and share one time grid; rhs_history is read-only too."""

    x: GridFunction
    dbeta_x: GridFunction
    dalpha_x: GridFunction
    spec: ProblemSpec
    rhs_history: np.ndarray = field(repr=False)  # f along the trajectory; 0 at node 0 for singular rhs
    corrector_iterations: np.ndarray = field(repr=False)


@np.errstate(all="ignore")  # a quantity that is not finite is a StepFailure
def _march(spec: ProblemSpec, t_end: float, n_steps: int, mu_x: float, mu_v: float,
           x_inhom: Callable[[np.ndarray], np.ndarray],
           v_inhom: Callable[[np.ndarray], np.ndarray], weights):
    """Shared windowed corrector recurrence; returns (taus, x, v, fhist, iters).

    weights(mu, n) gives trapezoid_coefficients(mu, n), which it is when None.
    An attempt takes full Newton steps after a stalled attempt, and for the
    rest of a block once a diagonal attempt right after a Newton one
    stalled with fewer than LOWER nodes committed (the block is latched).
    """
    n = int(n_steps)
    if n < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    h = t_end / n
    taus = np.linspace(0.0, t_end, n + 1)
    f = spec.rhs
    lead = 1 if f.singular_at_zero else 0  # the node of the first subinterval's f

    # one weight row per distinct order, which broadcasting carries to both
    # quantities: at beta = 0 x and Dbeta x share alpha's row
    mus = dict.fromkeys((mu_x, mu_v))
    a, c = zip(*((weights or trapezoid_coefficients)(mu, n) for mu in mus))
    c = np.array(c)
    try:  # the weight of the unknown f[m] in the quantities at node m
        w = np.array([[h ** mu_x / gamma_fn(mu_x + 2.0)], [h ** mu_v / gamma_fn(mu_v + 2.0)]])
    except OverflowError:
        raise DomainError("corrector weight h^mu / Gamma(mu+2) overflows a float") from None
    # the quantities x and Dbeta x: their inhomogeneous terms, to which each
    # block adds its sums once done
    z = np.array([x_inhom(taus), v_inhom(taus)])
    fhist = np.zeros(n + 1)
    iters = np.zeros(n + 1, dtype=int)
    history = BlockedHistory(a, fhist[1:])
    # the last window attempt reached the sweep cap and committed part; it
    # took Newton steps
    stalled = newton = False

    # f at the lead node from its inhomogeneous terms: node 0's value, or node 1's start
    t = taus[lead:lead + 1]
    f_lead = as_values(f.fn(t, z[0, lead:lead + 1], z[1, lead:lead + 1]), t.shape)[0]
    if not np.isfinite(f_lead):
        raise StepFailure(lead, taus[lead], f"rhs returned non-finite value {f_lead}")
    fhist[0] = f_lead if lead == 0 else 0.0

    for start in range(1, n + 1, BLOCK):  # the blocks of unknowns f[1..n]
        end = min(start + BLOCK, n + 1)
        values = fhist[start:end]  # the block's f-values, 0 from the first uncommitted node on
        outside = history.block(start - 1)
        # everything in the block's quantities but their inhomogeneous terms and
        # their own f-values: the out-of-block sums, f[lead] through c and the
        # in-block sums of the committed f-values (none yet)
        known = outside + c[:, start:end] * fhist[lead]
        m = start
        latched = False  # every attempt of the block takes Newton steps from now on
        while m < end:  # one window attempt, from the first node not committed
            if m == lead:  # node 1 alone: the open rule's first-subinterval weight folds onto f[1]
                stop, base, k, phi0 = 2, z[:, 1:2], w * (1.0 + c[:, 1:2]), f_lead
            else:
                stop, base, k, phi0 = end, z[:, m:end] + w * known[:, m - start:], w, fhist[m - 1]
            after_newton, newton = newton, stalled or latched
            if newton:  # full Newton steps, on a window of at most LOWER nodes
                stop = min(stop, m + LOWER)
            done, sweeps, phi, sums = _sweep(f, taus[m:stop], base, w, history, k, phi0, newton,
                                             values, m - start)
            stalled = sweeps == _FIXED_POINT_CAP - 1 and done < stop - m
            # diagonal sweeps did less than the Newton window before them would
            # have: Newton windows finish the block
            latched = latched or (after_newton and not newton and stalled and done < LOWER)
            if not done:  # the window's first node
                if not phi.size:
                    raise StepFailure(m, taus[m], "rhs value or corrector step not finite")
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

    return taus, z[0], z[1], fhist, iters


def _sweep(f: RightHandSide, tau, base, w, history: BlockedHistory, k, phi0: float,
           newton: bool, values: np.ndarray, offset: int):
    """Solve phi = f(tau, x(phi), Dbeta x(phi)) by sweeps over the whole
    window, every node started from phi0: diagonal Newton, or with newton
    full Newton steps on the window's lower-triangular Jacobian (a window of
    at most LOWER nodes).  The quantities are

        base + w * history.inblock(phi) + k * phi

    (in a Newton attempt with history.lower[:, :size, :size] @ phi, the
    dense causal sums its Jacobian is built from, for the FFT; in the first
    diagonal sweep, where every node is at phi0, with the closed form
    phi0 * history.prefix[:, :size]), with two rows of base, w and k (x,
    then Dbeta x), against which the one or two weight rows of history (one
    per distinct order) broadcast; w and k are columns, the same at every
    node.
    values holds the f-values of the window's block, 0 from the window on,
    which starts at values[offset].  A step of the first node from a finite
    F that leaves the bracket of a root which the signs of phi - F there
    have shown, and that the stop rule would not pass, takes the bracket's
    midpoint.  A node has converged once it passed the stop rule in two
    sweeps in a row, or in a sweep that moved no node.
    Returns (number of leading nodes that converged, sweeps made, iterate,
    in-block sums of values with the converged iterates written in); the
    nodes from the first one whose iterate is not finite are cut.  The sums
    come from the stacked transform that checks the stop rule's reach, or,
    where a diagonal sweep moved no node of a window that is its whole block
    (offset 0, every node converged), from that sweep's own sums.  They
    are None where the last sweep did not yield them: no node converged, or
    the stop rule's reach cut the converged prefix."""
    scale = abs(k[0, 0]) + abs(k[1, 0])
    phi = np.full(tau.size, phi0)
    passed = np.zeros(phi.size, dtype=bool)
    sums = None
    below = above = None  # the first node's last iterates with phi - F < 0 and > 0
    if newton:  # the strictly lower part of d(x, Dbeta x)/d phi
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
            x, v = z
            t = tau[:size]
            fx, fu, fv = f.partials(t, x, v)
            fx = as_values(fx, t.shape)
            slope = fu * k[0] + fv * k[1]
            delta = None
            if newton:
                delta = _newton_step(phi - fx, 1.0 - slope, fu, fv, coupling[:, :size, :size])
            new = _diagonal_step(phi, fx, slope) if delta is None else phi - delta
            # the first node's quantities depend on its own iterate alone, so
            # once phi - F has taken both signs there they bracket a root: a
            # step from a finite F that leaves the bracket takes its midpoint,
            # unless the stop rule passes it (there the rounding of in-block
            # sums that reaches the first node blurs the signs)
            residual = phi[0] - fx[0]
            if residual < 0.0:
                below = phi[0]
            elif residual > 0.0:
                above = phi[0]
            if (below is not None and above is not None and np.isfinite(residual)
                    and not min(below, above) <= new[0] <= max(below, above)
                    and not scale * abs(new[0] - phi[0]) <= _FIXED_POINT_TOL * (1.0 + abs(x[0]))):
                new = np.r_[0.5 * (below + above), new[1:]]
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
                over = scale * change[:done] + reach[0] + reach[1] > tol[:done]
                if over.any():
                    done, sums = int(over.argmax()), None
            phi, passed = new, ok
            if done == size:
                break
    return done, sweep, phi, sums


def _newton_step(step, denom, fu, fv, coupling):
    """Solve J d = step for the window's Jacobian of phi - F,

        J = diag(denom) - diag(F_u) coupling_x - diag(F_v) coupling_v,

    which is lower triangular; None when J is not finite or is singular.
    Forward substitution over diagonal blocks of _SUBSTITUTION_BLOCK nodes:
    each block takes the steps of the nodes before it through J's strictly
    lower part and is solved by LU in reverse node order, where it is upper
    triangular, so that LU finds no pivot to swap and each node's step
    depends on the steps of the nodes before it alone."""
    size = step.size
    jac = np.broadcast_to(fu, step.shape)[:, None] * coupling[0]
    jac += np.broadcast_to(fv, step.shape)[:, None] * coupling[1]
    np.negative(jac, out=jac)
    jac.flat[::size + 1] += denom  # the diagonal
    if not (np.isfinite(jac).all() and denom.all()):
        return None
    delta = np.empty(size)
    for lo in range(0, size, _SUBSTITUTION_BLOCK):
        hi = min(lo + _SUBSTITUTION_BLOCK, size)
        rhs = step[lo:hi] - jac[lo:hi, :lo] @ delta[:lo]
        delta[lo:hi] = np.linalg.solve(jac[lo:hi, lo:hi][::-1, ::-1], rhs[::-1])[::-1]
    return delta


def _diagonal_step(phi, fx, slope):
    """The diagonal Newton step phi - (phi - F) / (1 - slope); F itself (plain
    Picard) where that denominator is 1, not finite or 0."""
    if not np.any(slope):
        return fx
    denom = 1.0 - slope
    picard = (denom == 1.0) | (denom == 0.0) | ~np.isfinite(denom)
    return np.where(picard, fx, phi - (phi - fx) / denom)


def solve_direct(spec: ProblemSpec, t_end: float, n_steps: int, *,
                 weights=None) -> Solution:
    """Solve the order-alpha Caputo problem; returns x, Dbeta x, Dalpha x.

    Dalpha x equals the right-hand side along the trajectory, so it is the
    stored f history (0 at node 0 for singular right-hand sides).  weights,
    a function (mu, n) -> trapezoid_coefficients(mu, n) such as
    fracops.trapezoid_table gives, replaces the call of trapezoid_coefficients.
    """
    if spec.kind is not ProblemKind.DIRECT:
        raise DomainError("solve_direct requires a direct ProblemSpec")
    alpha, beta, b = spec.alpha, spec.beta, spec.b1
    taus, x, v, fhist, iters = _march(
        spec, t_end, n_steps, mu_x=alpha, mu_v=alpha - beta,
        x_inhom=lambda t: np.full_like(t, b),
        # at beta = 0 Dbeta x is x, whose inhomogeneous term is b
        v_inhom=lambda t: np.full_like(t, b if beta == 0.0 else 0.0), weights=weights,
    )
    return _solution(spec, t_end, taus, x, v, fhist, fhist, iters)


def solve_sequential(spec: ProblemSpec, t_end: float, n_steps: int, *,
                     weights=None) -> Solution:
    """Solve the sequential problem; returns x, Dbeta x, Dalpha x.

    Dalpha x is reconstructed from the running plain integral of the f
    history: b2 + J^1 f.  weights as for solve_direct.
    """
    if spec.kind is not ProblemKind.SEQUENTIAL:
        raise DomainError("solve_sequential requires a sequential ProblemSpec")
    alpha, beta, b1, b2 = spec.alpha, spec.beta, spec.b1, spec.b2
    cx = b2 / gamma_fn(alpha + 1.0)
    cv = b2 / gamma_fn(alpha - beta + 1.0)
    for name, coef in (("b2 / Gamma(alpha+1)", cx), ("b2 / Gamma(alpha-beta+1)", cv)):
        if not math.isfinite(coef):  # inf * 0^alpha would be NaN at tau = 0
            raise DomainError(f"initial-value coefficient {name} overflows a float")
    taus, x, v, fhist, iters = _march(
        spec, t_end, n_steps,
        mu_x=alpha + 1.0, mu_v=alpha - beta + 1.0,
        x_inhom=lambda t: b1 + cx * t ** alpha,
        v_inhom=lambda t: cv * t ** (alpha - beta),
        weights=weights,
    )
    with np.errstate(all="ignore"):  # b2 near the float limit, plus J^1 f
        dalpha = b2 + GridFunction.shared(t_end, fhist, taus).cumulative_integral()
    if not np.isfinite(dalpha).all():  # the first bad node fails
        node = int(np.isfinite(dalpha).argmin())
        raise StepFailure(node, taus[node], "Dalpha x is not finite")
    return _solution(spec, t_end, taus, x, v, dalpha, fhist, iters)


def _solution(spec: ProblemSpec, t_end: float, taus, x, v, dalpha, fhist, iters) -> Solution:
    """The solver's own arrays as read-only GridFunctions on the one grid
    taus; _march has checked that x, v and fhist are finite."""
    return Solution(x=GridFunction.shared(t_end, x, taus),
                    dbeta_x=GridFunction.shared(t_end, v, taus),
                    dalpha_x=GridFunction.shared(t_end, dalpha, taus), spec=spec,
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
