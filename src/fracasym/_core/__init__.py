"""Convolution kernels of the grid operators and the marching solver.

`kernels` holds the whole-grid operators (conv_lower, trap_apply), which
convolve by FFT, and the direct per-step history sums (pc_sums), the
reference the blocked sums are tested against.

The marching solver does not call pc_sums: `history.BlockedHistory` sums
directly only within aligned windows of BLOCK = 128 nodes and adds every
other part of the history in dyadic square blocks by FFT, from 128 x 128
up, which costs O(N log^2 N) per solve instead of O(N^2).
"""

from . import kernels


def backend_name() -> str:
    """Name of the kernel implementation, for run reports: always 'python'."""
    return "python"
