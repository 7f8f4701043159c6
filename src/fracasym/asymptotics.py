"""Numerical verification of the limit statements.

A finite-horizon computation cannot certify a limit, so everything here
reports falsifiable surrogates: trailing-window spreads, extrapolated tail
values, and residuals of limit identities at the final node.  The improper
integrals of the hypotheses, with their verdicts, are `bounds.improper_tail`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BoundReport
from .errors import DomainError
from .fracops import rl_integral
from .gamma import gamma_fn
from .grid import GridFunction
from .solvers import Solution

__all__ = [
    "SlopeEstimate",
    "slope_window_start",
    "power_slope",
    "lhopital_residual",
    "lhopital_lemma_term",
    "integrable_limit_check",
    "BoundednessVerdict",
    "boundedness_verdict",
]

@dataclass(frozen=True)
class SlopeEstimate:
    """Estimate of the limit of x(tau)/tau^alpha from a finite run.

    raw_tail is the ratio at the final node; accelerated applies one Aitken
    delta-squared step to the ratios at T/4, T/2, T; spread is max - min of
    the ratio over the trailing window and is the convergence indicator.
    """

    raw_tail: float
    accelerated: float
    spread: float


def slope_window_start(n_steps: int, window_fraction: float) -> int:
    """First node of power_slope's trailing window on an n_steps grid; the
    window must hold at least 3 nodes."""
    start = max(1, int(math.ceil((1.0 - window_fraction) * n_steps)))
    if n_steps + 1 - start < 3:
        raise DomainError(f"trailing window has fewer than 3 nodes (window_fraction "
                          f"{window_fraction:g} of n_steps {n_steps})")
    return start


def power_slope(sol: Solution, window_fraction: float = 0.25) -> SlopeEstimate:
    """Power-slope estimate of the solution's tail growth x ~ a tau^alpha."""
    if not 0.0 < window_fraction <= 0.9:
        raise DomainError(f"window_fraction must lie in (0, 0.9], got {window_fraction}")
    grid = sol.x
    if grid.t_end < 10.0:
        raise DomainError(f"slope estimation needs t_end >= 10, got {grid.t_end}")
    alpha = sol.spec.alpha
    taus = grid.taus
    n = grid.n_steps
    start = slope_window_start(n, window_fraction)
    ratios = grid.values[start:] / taus[start:] ** alpha
    raw = float(ratios[-1])
    spread = float(np.max(ratios) - np.min(ratios))

    # the ratios at T/4, T/2 and T by numpy's array power, as the window's: a
    # Python float power differs from it in the last bit for some values
    nodes = np.array([grid.index_at(grid.t_end / 4.0), grid.index_at(grid.t_end / 2.0), n])
    s0, s1, s2 = (grid.values[nodes] / taus[nodes] ** alpha).tolist()
    denom = s2 - 2.0 * s1 + s0
    if abs(denom) < 1e-14 * (abs(s2) + abs(s1) + abs(s0) + 1e-300):
        accelerated = raw
    else:
        accelerated = s2 - (s2 - s1) ** 2 / denom
    return SlopeEstimate(raw_tail=raw, accelerated=accelerated, spread=spread)


def lhopital_residual(sol: Solution) -> float:
    """|x(T)/T^alpha - Dalpha x(T)/Gamma(1+alpha)| at the final node.

    The two quantities share their limit (the fractional L'Hopital
    identity), so the residual measures how far the run is from the
    asymptotic regime.  For x with x(0) = b1, x - b1 = J^alpha(Dalpha x)
    holds exactly, so the signed residual splits into the initial-value
    term b1/T^alpha plus the lemma term
    J^alpha(Dalpha x)(T)/T^alpha - Dalpha x(T)/Gamma(1+alpha), and only the
    lemma term is governed by the L'Hopital rule.  The value returned is the
    raw |sum|: it carries the b1/T^alpha floor at horizon T, and it falls
    below |b1|/T^alpha when the two parts have opposite signs (0.0472
    against 0.05 for example46 at T = 400).
    """
    return abs(_signed_lhopital_residual(sol))


def lhopital_lemma_term(sol: Solution) -> float:
    """The signed L'Hopital lemma term at the final node,
    J^alpha(Dalpha x)(T)/T^alpha - Dalpha x(T)/Gamma(1+alpha).

    It is the signed residual of `lhopital_residual` minus the
    initial-value term b1/T^alpha, so it carries no floor and tends to 0
    as T grows when the lemma's hypotheses hold (about -1.10/T for
    example46).
    """
    return _signed_lhopital_residual(sol) - sol.spec.b1 / sol.x.t_end ** sol.spec.alpha


def _signed_lhopital_residual(sol: Solution) -> float:
    alpha = sol.spec.alpha
    t_end = sol.x.t_end
    x_tail = sol.x.values[-1] / t_end ** alpha
    d_tail = sol.dalpha_x.values[-1] / gamma_fn(1.0 + alpha)
    return float(x_tail - d_tail)


def integrable_limit_check(fgrid: GridFunction, alpha: float,
                           tau_list, total_integral: float) -> list[float]:
    """Residuals of the averaged-integral limit
        (1/tau^alpha) J^(alpha+1) f(tau) -> total_integral / Gamma(alpha+1)
    at the requested times; J^(alpha+1) is realized as J^1 o J^alpha."""
    inner = rl_integral(fgrid, alpha)
    outer = inner.cumulative_integral()
    limit = total_integral / gamma_fn(alpha + 1.0)
    out = []
    for tau in tau_list:
        idx = fgrid.index_at(float(tau))
        if idx == 0:
            raise DomainError("limit check requires tau > 0")
        t = fgrid.taus[idx]
        out.append(abs(float(outer[idx]) / t ** alpha - limit))
    return out


class BoundednessVerdict(NamedTuple):
    sup_x: float
    sup_dbeta: float
    within_bound: bool


def boundedness_verdict(sol: Solution, bound: BoundReport,
                        tolerance: float = 1e-9) -> BoundednessVerdict:
    """Compare trajectory sups against a uniform-bound report.

    sup |x| is over the whole grid; sup |Dbeta x| only over tau >= tau0
    (taken from the report), matching the region where the derivative bound
    is claimed.  Both sups are within the bound when they do not exceed
    C * (1 + tolerance).
    """
    c = bound.constants["C"]
    tau0 = bound.constants.get("tau0", 0.0)
    sup_x = float(np.max(np.abs(sol.x.values)))
    taus = sol.dbeta_x.taus
    mask = taus >= tau0
    sup_db = float(np.max(np.abs(sol.dbeta_x.values[mask]))) if np.any(mask) else 0.0
    limit = c * (1.0 + tolerance)
    within = bool(sup_x <= limit and sup_db <= limit)
    return BoundednessVerdict(sup_x=sup_x, sup_dbeta=sup_db, within_bound=within)
