"""Gamma function on the positive real axis.

Every kernel weight and power-rule constant in the package goes through
Gamma: the kernel 1/Gamma(alpha) of the fractional integral, the limit
constant 1/Gamma(1+alpha) and the weight scale h^mu/Gamma(mu+2).  The value
is the standard library's `math.gamma`; `gamma_fn` adds the package's
domain check, so every argument outside (0, inf) is a DomainError
(`math.gamma` itself returns values for negative non-integers and NaN).
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["gamma_fn"]


def gamma_fn(x: float) -> float:
    """Gamma(x) for finite x > 0.

    Raises DomainError for x <= 0, NaN and infinities; like math.gamma it
    raises OverflowError where Gamma(x) exceeds the largest double, from
    x ~ 171.624 on.
    """
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)
