"""Numpy convolution kernels.

All weight arrays are built by the callers, so these routines are pure
triangular-convolution number crunching.  The whole-grid operators convolve
by FFT; pc_sums is the direct per-step sum that the blocked history sums are
tested against.
"""

from __future__ import annotations

import numpy as np


def _conv_head(x: np.ndarray, w: np.ndarray, count: int) -> np.ndarray:
    """First `count` entries of the linear convolution x * w, by real FFT."""
    size = 1 << (2 * count - 1).bit_length()  # > 2*count - 2: no wrap-around
    spec = np.fft.rfft(x[:count], size) * np.fft.rfft(w[:count], size)
    return np.fft.irfft(spec, size)[:count]


def conv_lower(b: np.ndarray, g: np.ndarray, scale: float) -> np.ndarray:
    """out[n] = scale * sum_{j=0}^{n-1} b[n-j] * g[j] for n = 1..N; out[0] = 0.

    b has length N+1 (entry 0 unused), g has length N.
    """
    n = g.size
    out = np.zeros(n + 1)
    if n:
        out[1:] = scale * _conv_head(g, b[1:], n)
    return out


def trap_apply(a: np.ndarray, c: np.ndarray, f: np.ndarray, scale: float) -> np.ndarray:
    """Product-trapezoid application.

    out[n] = scale * (c[n]*f[0] + sum_{j=1}^{n-1} a[n-j]*f[j] + f[n]),
    n = 1..N; out[0] = 0.  a and c have length N+1 (entries 0 unused).
    """
    n = f.size - 1
    out = np.zeros(n + 1)
    if n >= 1:
        acc = c[1:] * f[0] + f[1:]
        if n >= 2:
            acc[1:] += _conv_head(f[1:n], a[1:], n - 1)
        out[1:] = scale * acc
    return out


def pc_sums(bx: np.ndarray, ax: np.ndarray, bv: np.ndarray, av: np.ndarray,
            fhist: np.ndarray, n: int, j0: int):
    """History sums for one predictor-corrector step.

    Returns (px, cx, pv, cv) with
        px = sum_{j=j0}^{n-1} bx[n-j] * fhist[j]
        cx = sum_{j=1}^{n-1}  ax[n-j] * fhist[j]
    and the same with the v-kernel weights.  Pass bv/av of size 0 when the
    second kernel is the first: (pv, cv) are then (px, cx).
    """
    fpred = fhist[j0:n]
    fcorr = fhist[1:n]

    def pair(b, a):
        # weights b[n-j] for j ascending are b[n-j0], ..., b[1]
        return (float(np.dot(b[1:n + 1 - j0][::-1], fpred)) if fpred.size else 0.0,
                float(np.dot(a[1:n][::-1], fcorr)) if fcorr.size else 0.0)

    first = pair(bx, ax)
    return first + (pair(bv, av) if bv.size else first)
