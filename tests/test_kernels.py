"""The boundary of the `_core.kernels` module.

perfbench times the kernel layer by replacing `solvers.kernels` and
`fracops.kernels` with wrappers, so the module must stay reachable under
that name from both, and the whole-grid operators must be called through it.
"""

import types

import numpy as np

import fracasym.fracops as fracops
import fracasym.solvers as solvers
from fracasym.grid import GridFunction

KERNEL_NAMES = ("pc_sums", "trap_apply", "conv_lower")


def test_solvers_and_fracops_share_one_kernels_module():
    assert solvers.kernels is fracops.kernels
    for name in KERNEL_NAMES:
        assert callable(getattr(solvers.kernels, name))


def test_fracops_calls_the_kernels_through_the_module_name(monkeypatch):
    calls = []

    def recording(name):
        fn = getattr(fracops.kernels, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fracops, "kernels", types.SimpleNamespace(
        **{name: recording(name) for name in KERNEL_NAMES}))
    g = GridFunction(2.0, np.linspace(0.0, 1.0, 65) ** 2)

    fracops.rl_integral(g, 0.5)
    assert calls == ["trap_apply"]
    calls.clear()
    fracops.caputo_derivative(g, 0.5)
    assert calls == ["conv_lower"]
