"""Blocked FFT history sums for the windowed product-trapezoid corrector.

The f-value at node 0 enters the corrector only through the first
subinterval's weight, so the history is a causal convolution over the N
unknowns g[i] = f[i + 1], i = 0..N-1: at unknown i (node m = i + 1) the
marching solver needs, for each corrector weight row a (one per distinct
order of x and Dbeta x),

    S_a(i) = sum_{j<i} a[i-j] * g[j].

Summed directly that is O(N^2) over a run.  BlockedHistory splits the index
pairs (j, i), j < i, by the highest bit in which j and i differ (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985):

* pairs that agree in every bit above the low ten lie in one aligned
  block of BLOCK = 1024 unknowns, which the solver solves for block by
  block, so it sums these pairs itself, with `inblock`: one real FFT
  of the block's values against each weight row, for one array of values
  or for a stack of them at once.  For values that are all one constant
  c the sums are c * `prefix`, the prefix sums of the weight heads, kept
  for the solve, with no FFT;
* every other pair lies in exactly one dyadic square: source block
  [s, s+p) and target block [s+p, s+2p), p >= BLOCK a power of two and s a
  multiple of 2p.  Once g[s+p-1] exists, the whole square, or the part of
  its targets that the grid holds, is added to a running accumulator by
  one real FFT of size 2p.  The source spectrum is shared by all weight
  rows, and a level's weight spectra are kept while the level has blocks
  left.

A grid of 2^k steps thus fills whole blocks, and one of at most 1024 steps
is one block with no square.  `block(start)` returns the accumulated
out-of-block sums of the unknowns of one aligned block.  The split is exact
in exact arithmetic and costs O(N log^2 N) in total.  The FFT rounding
error of a square, or of an in-block sum, is about machine epsilon times
the size of its own terms; the prefix sums are exact to about an ulp.

The strictly lower Toeplitz matrix of the weights is kept dense only for
LOWER = 128 unknowns, as `lower`, built on first use: the Jacobian of a
full Newton step, on windows of at most that many nodes, is built from it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK = 1024  # a power of two
LOWER = 128  # unknowns of the dense Toeplitz block `lower`


class BlockedHistory:
    """Corrector history sums over the unknowns g = f[1:] of a grid, which
    the caller fills in order, one aligned block at a time.

    g is read, never written: block(start) uses g[0..start-1], which must
    be final by then.  Calls must come with start non-decreasing.
    """

    def __init__(self, rows: tuple[np.ndarray, ...], g: np.ndarray):
        self._rows = rows
        self._g = g
        self._n = g.size
        self._acc = np.zeros((len(rows), g.size))
        self._spectra: dict[int, np.ndarray] = {}
        self._inblock_spectra: dict[int, np.ndarray] = {}
        self._next_block = BLOCK

    @cached_property
    def prefix(self) -> np.ndarray:
        """The in-block sums of a constant 1 at the first BLOCK unknowns:
        prefix[r, i] = sum_{k=1..i} rows[r][k], so prefix[r, 0] = 0.  A plain
        cumulative sum, which for the solver's trapezoid rows lies within an
        ulp of the correctly rounded sums."""
        size = min(BLOCK, self._n)
        prefix = np.zeros((len(self._rows), size))
        for r, w in enumerate(self._rows):
            np.cumsum(w[1:size], out=prefix[r, 1:])
        return prefix

    @cached_property
    def lower(self) -> np.ndarray:
        """The strictly lower Toeplitz blocks of the weight rows over LOWER
        nodes: lower[r][i, j] = rows[r][i - j] for i > j, else 0."""
        lower = np.empty((len(self._rows), LOWER, LOWER))
        lags = min(LOWER - 1, self._n)
        for r, w in enumerate(self._rows):
            padded = np.zeros(2 * LOWER - 1)
            padded[LOWER - 1 - lags:LOWER - 1] = w[lags:0:-1]
            lower[r] = sliding_window_view(padded, LOWER)[::-1]
        return lower

    def block(self, start: int) -> np.ndarray:
        """Out-of-block sums S_a(i) - sum_{j in block, j<i} a[i-j] g[j] for
        the unknowns i of the aligned block that starts at unknown `start`:
        one row per weight row (a view of the accumulator)."""
        while self._next_block <= start:
            self._add_block(self._next_block)
            self._next_block += BLOCK
        return self._acc[:, start:start + BLOCK]

    def inblock(self, g: np.ndarray) -> np.ndarray:
        """In-block sums sum_{j<i} a[i-j] g[j] for i < L, of the values g of
        L consecutive unknowns (at most BLOCK of them): one row per weight
        row, the head of the linear convolution of g with (0, a[1], a[2],
        ...) by one real FFT, which gives exact zeros for a single unknown.
        A stack g of shape (s, L) gives shape (s, rows, L) from the same FFT
        call."""
        length = g.shape[-1]
        size = 1 << (2 * length - 1).bit_length()  # >= 2 L: no wrap-around
        spec = self._inblock_spectra.get(size)
        if spec is None:  # weights past size/2 reach no i < L
            heads = np.array([w[:size // 2] for w in self._rows])
            heads[:, 0] = 0.0
            spec = self._inblock_spectra[size] = np.fft.rfft(heads, size)
        prod = spec * np.fft.rfft(g, size)[..., None, :]
        return np.fft.irfft(prod, size)[..., :length]

    def _add_block(self, m: int) -> None:
        """Add the square whose source block ends at unknown m - 1."""
        p = m & -m
        size = 2 * p
        stop = min(m + p, self._n)
        spec = self._spectra.pop(p, None)
        if spec is None:
            spec = np.empty((len(self._rows), p + 1), dtype=complex)
            for r, w in enumerate(self._rows):
                spec[r] = np.fft.rfft(w[1:size], size)
        if m + size < self._n:  # the level has another block
            self._spectra[p] = spec
        conv = np.fft.irfft(spec * np.fft.rfft(self._g[m - p:m], size), size)
        self._acc[:, m:stop] += conv[:, p - 1:p - 1 + stop - m]
