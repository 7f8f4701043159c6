"""Blocked FFT history sums for the windowed product-trapezoid corrector.

At node m the marching solver needs, for each corrector weight row a of
(ax[, av]),

    S_a(m) = sum_{j=1}^{m-1} a[m-j] * f[j].

Summed directly that is O(N^2) over a run.  BlockedHistory splits the index
pairs (j, m), j < m, by the highest bit in which j and m differ (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985):

* pairs that agree in every bit above the low seven lie in one aligned
  block of BLOCK = 128 nodes; they are the strictly lower Toeplitz matrix
  `lower[r]` applied to the block's f-values, which the solver forms itself
  because most of them are the unknowns it solves for;
* every other pair lies in exactly one dyadic square: source block
  [s, s+p) and target block [s+p, s+2p), p >= BLOCK a power of two and s a
  multiple of 2p.  Once f[s+p-1] exists, the whole square is added to a
  running accumulator by one real FFT of size 2p.  The source spectrum is
  shared by all weight rows, and a level's weight spectra are kept while
  the level has blocks left.

`block(start)` returns the accumulated out-of-block sums of the nodes of one
aligned block.  The split is exact in exact arithmetic and costs
O(N log^2 N) in total.  The FFT rounding error of a square is about machine
epsilon times the size of that square's own terms.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK = 128  # a power of two
_FEW_TARGETS = 16


class BlockedHistory:
    """Corrector history sums over an f-history that the caller fills in
    order, one aligned block at a time.

    f is read, never written: block(start) uses f[1..start-1], which must
    be final by then.  f[0] never enters the sums.  Calls must come with
    start non-decreasing.
    """

    def __init__(self, rows: tuple[np.ndarray, ...], f: np.ndarray):
        self._rows = rows
        self._f = f
        n = f.size - 1
        self._n = n
        # lower[r][i, j] = rows[r][i - j] for i > j, else 0
        self.lower = np.empty((len(rows), BLOCK, BLOCK))
        lags = min(BLOCK - 1, n)
        for r, w in enumerate(rows):
            padded = np.zeros(2 * BLOCK - 1)
            padded[BLOCK - 1 - lags:BLOCK - 1] = w[lags:0:-1]
            self.lower[r] = sliding_window_view(padded, BLOCK)[::-1]
        self._acc = np.zeros((len(rows), n + 1))
        self._spectra: dict[int, np.ndarray] = {}
        self._next_block = BLOCK

    def block(self, start: int) -> np.ndarray:
        """Out-of-block sums S_a(m) - sum_{j in block, j>=1} a[m-j] f[j] for
        the nodes m of the aligned block that starts at `start`: one row per
        weight row (a view of the accumulator)."""
        while self._next_block <= start:
            self._add_block(self._next_block)
            self._next_block += BLOCK
        return self._acc[:, start:start + BLOCK]

    def _add_block(self, m: int) -> None:
        """Add the square whose source block ends at node m - 1."""
        p = m & -m
        size = 2 * p
        g = self._f[m - p:m]
        if m == p:
            g = g.copy()
            g[0] = 0.0
        stop = min(m + p, self._n + 1)
        if stop - m <= _FEW_TARGETS:
            # a square cut short by the end of the grid: a dot product per
            # target costs less than the FFT of the whole square
            for t in range(m, stop):
                for r, w in enumerate(self._rows):
                    self._acc[r, t] += g.dot(w[t - m + p:t - m:-1])
            return
        spec = self._spectra.pop(p, None)
        if spec is None:
            spec = np.empty((len(self._rows), p + 1), dtype=complex)
            for r, w in enumerate(self._rows):
                spec[r] = np.fft.rfft(w[1:size], size)
        if m + size <= self._n:  # the level has another block
            self._spectra[p] = spec
        conv = np.fft.irfft(spec * np.fft.rfft(g, size), size)
        self._acc[:, m:stop] += conv[:, p - 1:p - 1 + stop - m]
