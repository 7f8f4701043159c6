"""Convolution kernels of the grid operators and the marching solver.

`kernels` holds the whole-grid operators (conv_lower, trap_apply) and the
direct per-step history sums (pc_sums).  The compiled Cython kernels are
preferred when the extension built; the numpy implementation is the
fallback and the reference, and convolves whole grids by FFT.  Set
FRACASYM_PURE_PYTHON=1 to force the fallback (used by the
backend-equivalence tests).

The marching solver does not call pc_sums: `history.BlockedHistory` sums
directly only within aligned windows of BLOCK = 128 nodes and adds every
other part of the history in dyadic square blocks by FFT, from 128 x 128
up, which costs O(N log^2 N) per solve instead of O(N^2).
"""

import os

from . import _kernels_py

if os.environ.get("FRACASYM_PURE_PYTHON"):
    kernels = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _kernels as _compiled

        kernels = _compiled
        BACKEND = "compiled"
    except ImportError:
        kernels = _kernels_py
        BACKEND = "python"


def backend_name() -> str:
    """Which kernel implementation is active: 'compiled' or 'python'."""
    return BACKEND
