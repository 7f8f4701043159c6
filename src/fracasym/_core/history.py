"""Blocked FFT history sums for the fractional Adams predictor-corrector.

At step m the marching solver needs, for each weight row w of
(bx, ax[, bv, av]),

    S_w(m) = sum_{j=1}^{m-1} w[m-j] * f[j]

plus, for the predictor rows, the node-0 term w[m] * f[0] (a right-hand
side that is singular at 0 stores f[0] = 0, which makes that term 0).
Summed directly that is O(N^2) over a run.  BlockedHistory splits the
index pairs (j, m), j < m, by the highest bit in which j and m differ
(Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985):

* pairs that agree in every bit above the low seven lie in one aligned
  window of BLOCK = 128 nodes and are summed directly at step m;
* every other pair lies in exactly one dyadic square: source block
  [s, s+p) and target block [s+p, s+2p), p >= BLOCK a power of two and s a
  multiple of 2p.  Once f[s+p-1] exists, the whole square is added to a
  running accumulator by one real FFT of size 2p.  The source spectrum is
  shared by all weight rows, and a level's weight spectra are kept while
  the level has blocks left.

The split is exact in exact arithmetic and costs O(N log^2 N) in total.
The FFT rounding error of a square is about machine epsilon times the
size of that square's own terms.
"""

from __future__ import annotations

import numpy as np

BLOCK = 128  # a power of two
_FEW_TARGETS = 16


class BlockedHistory:
    """History sums over an f-history that the caller fills in order.

    f is read, never written: sums(m) uses f[0..m-1], which must be final
    by then, and f[0] must already be final when the object is made.  Calls
    must come with m non-decreasing.  Pass bv/av of size 0 when the second
    kernel is the first: sums then returns the first kernel's sums in its
    place (pv = px, cv = cx).
    """

    def __init__(self, bx: np.ndarray, ax: np.ndarray, bv: np.ndarray,
                 av: np.ndarray, f: np.ndarray):
        self._rows = (bx, ax, bv, av) if bv.size else (bx, ax)
        self._f = f
        n = f.size - 1
        self._n = n
        k = len(self._rows)
        # one row per node, one column per weight row, so that a step reads
        # contiguous memory; lag-reversed window weights: _rev[BLOCK - i] = w[i]
        self._rev = np.zeros((BLOCK, k))
        lags = min(BLOCK - 1, n)
        for r, w in enumerate(self._rows):
            self._rev[BLOCK - lags:, r] = w[lags:0:-1]
        self._acc = np.zeros((n + 1, k))
        # node 0 enters the predictor sums only; the blocks skip it
        for r in range(0, k, 2):
            self._acc[1:, r] = self._rows[r][1:n + 1] * f[0]
        self._spectra: dict[int, np.ndarray] = {}
        self._next_block = BLOCK

    def sums(self, m: int) -> tuple[float, float, float, float]:
        """(px, cx, pv, cv) for step m, as `kernels.pc_sums` defines them."""
        while self._next_block <= m:
            self._add_block(self._next_block)
            self._next_block += BLOCK
        start = m & -BLOCK or 1
        out = (self._acc[m] + self._f[start:m].dot(self._rev[BLOCK - m + start:])).tolist()
        return out[0], out[1], out[-2], out[-1]

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
                    self._acc[t, r] += g.dot(w[t - m + p:t - m:-1])
            return
        spec = self._spectra.pop(p, None)
        if spec is None:
            spec = np.empty((len(self._rows), p + 1), dtype=complex)
            for r, w in enumerate(self._rows):
                spec[r] = np.fft.rfft(w[1:size], size)
        if m + size <= self._n:  # the level has another block
            self._spectra[p] = spec
        conv = np.fft.irfft(spec * np.fft.rfft(g, size), size)
        self._acc[m:stop] += conv[:, p - 1:p - 1 + stop - m].T
