"""Equivalence of the compiled and pure-numpy convolution kernels."""

import numpy as np
import pytest

from fracasym._core import _kernels_py, backend_name

compiled = pytest.importorskip(
    "fracasym._core._kernels", reason="compiled extension not built")


def random_inputs(n, seed):
    rng = np.random.default_rng(seed)
    b = np.abs(rng.normal(size=n + 1))
    a = np.abs(rng.normal(size=n + 1))
    c = np.abs(rng.normal(size=n + 1))
    f = rng.normal(size=n + 1)
    return b, a, c, f


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513])
def test_conv_lower_equivalence(n):
    b, _, _, f = random_inputs(n, seed=n)
    got = compiled.conv_lower(b, f[:-1].copy(), 0.37)
    want = _kernels_py.conv_lower(b, f[:-1], 0.37)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513])
def test_trap_apply_equivalence(n):
    _, a, c, f = random_inputs(n, seed=100 + n)
    got = compiled.trap_apply(a, c, f, 1.7)
    want = _kernels_py.trap_apply(a, c, f, 1.7)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("j0", [0, 1])
def test_pc_sums_equivalence(j0):
    n_total = 257
    bx, ax, _, f = random_inputs(n_total, seed=7)
    bv, av, _, _ = random_inputs(n_total, seed=8)
    for n in (1, 2, 5, 100, 257):
        got = compiled.pc_sums(bx, ax, bv, av, f, n, j0)
        want = _kernels_py.pc_sums(bx, ax, bv, av, f, n, j0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_pc_sums_skips_empty_v_kernel():
    n_total = 64
    bx, ax, _, f = random_inputs(n_total, seed=3)
    empty = np.empty(0)
    got = compiled.pc_sums(bx, ax, empty, empty, f, 30, 0)
    want = _kernels_py.pc_sums(bx, ax, empty, empty, f, 30, 0)
    assert got[2] == want[2] == 0.0
    assert got == pytest.approx(want, rel=1e-12)


def test_backend_name_matches_environment():
    import os

    expected = "python" if os.environ.get("FRACASYM_PURE_PYTHON") else "compiled"
    assert backend_name() == expected


def test_residual_check_identical_across_backends(monkeypatch):
    # the marching solver uses neither backend's per-step sums; the residual
    # check re-quadratures the solution with the whole-grid kernels
    import fracasym.fracops as fracops
    from fracasym.catalog import make_rhs
    from fracasym.solvers import (ProblemKind, ProblemSpec, residual_check,
                                  solve_sequential)

    rhs = make_rhs("exp_decay_power", {"rate": 1.0, "exponent": 0.5},
                   0.5, "sequential")
    spec = ProblemSpec(ProblemKind.SEQUENTIAL, 0.5, 0.25, 1.0, rhs, b2=1.0)
    sol = solve_sequential(spec, 20.0, 512)

    monkeypatch.setattr(fracops, "kernels", compiled)
    defect_compiled = residual_check(sol)
    monkeypatch.setattr(fracops, "kernels", _kernels_py)
    defect_python = residual_check(sol)

    assert defect_compiled == pytest.approx(defect_python, rel=1e-9, abs=1e-13)
