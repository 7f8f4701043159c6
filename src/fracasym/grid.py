"""Uniform-grid sampled functions on [0, T].

GridFunction is the carrier for every sampled quantity in the package:
solution histories, fractional-derivative histories, kernels, weight
functions and bound curves.  The left endpoint is always 0 and the grid is
always uniform; the convolution quadratures rely on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["GridFunction", "as_order", "as_values"]


@dataclass(frozen=True)
class GridFunction:
    """Samples of a real function at tau_j = j*T/N, j = 0..N."""

    t_end: float
    values: np.ndarray = field(repr=False)
    _taus: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise DomainError(f"t_end must be positive and finite, got {self.t_end}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("values must be a 1-d sequence with at least 2 entries")
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def shared(cls, t_end: float, values: np.ndarray, taus: np.ndarray) -> "GridFunction":
        """A GridFunction on the array values itself, with no copy and no
        check, whose taus is the array taus, np.linspace(0.0, t_end,
        values.size): a solver's own results, which share one time grid.
        Both arrays are made read-only; the caller vouches that values are
        finite."""
        values.setflags(write=False)
        taus.setflags(write=False)
        grid = object.__new__(cls)
        for name, value in (("t_end", t_end), ("values", values), ("_taus", taus)):
            object.__setattr__(grid, name, value)
        return grid

    @property
    def n_steps(self) -> int:
        return self.values.size - 1

    @property
    def step(self) -> float:
        return self.t_end / self.n_steps

    @property
    def taus(self) -> np.ndarray:
        if self._taus is not None:
            return self._taus
        return np.linspace(0.0, self.t_end, self.values.size)

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray],
                      t_end: float, n_steps: int) -> "GridFunction":
        if n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        taus = np.linspace(0.0, t_end, n_steps + 1)
        return cls(t_end, as_values(fn(taus), taus.shape))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.t_end, values)

    def index_at(self, tau: float) -> int:
        """Nearest grid index for a time in [0, T]."""
        if not 0.0 <= tau <= self.t_end * (1 + 1e-12):
            raise DomainError(f"tau={tau} outside grid [0, {self.t_end}]")
        return int(round(tau / self.step))

    def value_at(self, tau: float) -> float:
        """Piecewise-linear interpolation at an off-node time."""
        if not 0.0 <= tau <= self.t_end * (1 + 1e-12):
            raise DomainError(f"tau={tau} outside grid [0, {self.t_end}]")
        return float(np.interp(tau, self.taus, self.values))

    def cumulative_integral(self) -> np.ndarray:
        """Trapezoid running integral; exact for the piecewise-linear data."""
        h = self.step
        v = self.values
        out = np.empty_like(v)
        out[0] = 0.0
        np.cumsum(0.5 * h * (v[1:] + v[:-1]), out=out[1:])
        return out

    def integral_to(self, tau: float) -> float:
        """Integral of the piecewise-linear interpolant over [0, tau]."""
        if not 0.0 <= tau <= self.t_end * (1 + 1e-12):
            raise DomainError(f"tau={tau} outside grid [0, {self.t_end}]")
        cum = self.cumulative_integral()
        h = self.step
        k = int(tau / h)
        if k >= self.n_steps:
            return float(cum[-1])
        frac = tau - k * h
        # exact trapezoid over the partial cell
        v0 = self.values[k]
        v1 = self.values[k + 1]
        vt = v0 + (v1 - v0) * frac / h
        return float(cum[k] + 0.5 * frac * (v0 + vt))


def as_order(alpha) -> float:
    """An order in (0, 1] as a float; 1 is allowed so first-order integrals
    reuse the same code path as the fractional ones."""
    mu = float(alpha)
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"fractional order must lie in (0, 1], got {mu}")
    return mu


def as_values(out, shape) -> np.ndarray:
    """A user callable's result as a float array of the given shape; a scalar is broadcast."""
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)
