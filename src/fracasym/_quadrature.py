"""Tanh-sinh quadrature on a finite interval, in pure Python.

`quad` is the double-exponential rule of Takahasi and Mori (Publ. RIMS 9,
1974; Mori and Sugihara, J. Comput. Appl. Math. 127, 2001): after
x = tanh(pi/2 sinh t), the trapezoid rule in t with step h = 2^-k converges
about quadratically in k, also for an integrable power singularity at an
end.  Each node's distance to its end, 2 / (1 + e^(pi sinh |t|)), is
computed directly, not as a difference 1 - |x|, so the nodes reach within
1e-275 of an end and a power s^p there is integrated to about 1e-13 down to
p = -0.96.  Below that, a caller that knows the power takes it out by a
substitution (as `asymptotics.improper_tail` does).  The package's integrands
are Python closures, so a scalar loop costs little beside the calls.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

__all__ = ["quad"]

_T = 6.0           # the largest |t|: its node lies 1.2e-275 (relative) from its end
_LEVELS = 9        # steps h = 1, 1/2, ..., 1/256
_AGREE = 1e-7      # two levels agree to this, relative to the integral of |f|
_EDGE = 1e-11      # largest share of the integral of |f| allowed beside the last node
_NEGLIGIBLE = 1e-17  # a level-0 term this small a share of it ends the finer levels
_TABLES: list[list[tuple[float, float]]] = []


def _table(k: int) -> list[tuple[float, float]]:
    """(distance to the end, weight) at the nodes 0 < t = j 2^-k <= _T that
    level k adds to the ones before it (odd j; every j at level 0), built on
    the first call that needs them."""
    while len(_TABLES) <= k:
        level = len(_TABLES)
        h = 2.0 ** -level
        nodes = []
        for j in range(1, int(_T / h) + 1, 1 if level == 0 else 2):
            t = j * h
            dd = 2.0 / (1.0 + math.exp(math.pi * math.sinh(t)))
            # dx/dt = pi/2 cosh t (1 - x^2), with 1 - x^2 = dd (2 - dd)
            nodes.append((dd, 0.5 * math.pi * math.cosh(t) * dd * (2.0 - dd)))
        _TABLES.append(nodes)
    return _TABLES[k]


def quad(f: Callable[[float], float], a: float, b: float) -> float:
    """The integral of f over the finite [a, b]; h is halved until two levels
    agree to _AGREE of the integral of |f|.  A RuntimeWarning says so when
    none agree, or when |f| times the distance to its end, at the node nearest
    an end, exceeds _EDGE of the integral of |f|, and the last estimate is
    returned.  An exception of f propagates unchanged."""
    hl = 0.5 * (b - a)
    total = 0.5 * math.pi * f(a + hl)  # sums of w f and w |f| over the nodes so far
    absolute = abs(total)
    reach, prev = 0.0, None
    for k in range(_LEVELS):
        nodes, terms = _table(k), []  # the terms w |f| of this level's nodes
        for dd, w in nodes:
            if dd < reach:
                break
            fa, fb = f(a + hl * dd), f(b - hl * dd)
            total += w * (fa + fb)
            terms.append(w * (abs(fa) + abs(fb)))
            absolute += terms[-1]
        if k == 0:  # every level-0 node is evaluated, the one nearest the ends last
            edge = abs(hl) * dd * max(abs(fa), abs(fb))
            # the terms fall double-exponentially in t, so past the last level-0
            # term that counts, the finer levels stop at the next level-0 node
            for (d, _), term in reversed(list(zip(nodes, terms))):
                if term > _NEGLIGIBLE * absolute:
                    break
                reach = d
        h = hl * 2.0 ** -k
        value = h * total
        if prev is not None and abs(value - prev) <= _AGREE * abs(h) * absolute:
            trouble = []
            break
        prev = value
    else:
        trouble = [f"no two of its {_LEVELS} levels agree to {_AGREE:g}"]
    if edge > _EDGE * abs(h) * absolute:
        trouble.append(f"|f| times the distance to the end at the last node is "
                       f"{edge / (abs(h) * absolute):.3g} of the integral of |f|")
    if trouble:
        warnings.warn(f"quad over [{a:g}, {b:g}]: {' and '.join(trouble)}; the "
                      f"estimate is {value:.17g}", RuntimeWarning, stacklevel=2)
    return value
