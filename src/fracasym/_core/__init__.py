"""Convolution kernels of the grid operators and the marching solver.

`kernels` holds the whole-grid operators (conv_lower, trap_apply), which
convolve by FFT, and the direct per-step predictor-corrector history sums
(pc_sums), the reference the blocked sums and the windowed solver are
tested against.

The marching solver does not call pc_sums: `history.BlockedHistory` adds
the corrector history of the unknowns f[1..N] from before each aligned
block of BLOCK = 512 of them in dyadic square blocks by FFT, from 512 x 512
up, which costs O(N log^2 N) per solve instead of O(N^2);
`BlockedHistory.inblock` sums the pairs within a block by one more FFT, of
one array of values or of a stack of them, a single value included.
"""

from . import kernels


def backend_name() -> str:
    """Name of the kernel implementation, for benchmark environment stamps:
    always 'python'."""
    return "python"
