"""Gamma function via the Lanczos approximation.

Every kernel weight and power-rule constant in the package goes through
Gamma, so it is implemented here once with a fixed, documented coefficient
set rather than imported, and the test suite pins it against an independent
oracle.

Coefficients: the classical g = 7, n = 9 Lanczos set (double precision),
giving relative error below 1e-13 on the positive real axis.  Arguments in
(0, 0.5) are routed through the reflection formula.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["gamma_fn"]

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(z: float) -> float:
    # valid for z >= 0.5
    z -= 1.0
    series = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * series


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0.

    Raises DomainError for non-positive arguments; overflows to a Python
    OverflowError beyond x ~ 171.6 like math.gamma.
    """
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * _lanczos(1.0 - x))
    return _lanczos(x)

