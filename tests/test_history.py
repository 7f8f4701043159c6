"""Fast convolution paths against their direct references.

The blocked FFT history sums must reproduce `kernels.pc_sums` at every
step, the FFT whole-grid operators must reproduce `np.convolve`, and
solutions marched with the blocked sums must match solutions marched with
the direct ones.
"""

import numpy as np
import pytest

import fracasym.solvers as solvers
from fracasym import catalog, harness
from fracasym._core import kernels
from fracasym._core.history import BLOCK, BlockedHistory
from fracasym.solvers import ProblemKind, solve_direct, solve_sequential


class DirectHistory:
    """The per-step direct sums the marching solver used before blocking."""

    def __init__(self, bx, ax, bv, av, f):
        self.args = (bx, ax, bv, av, f)

    def sums(self, m):
        return kernels.pc_sums(*self.args, m, 0)


# 1030 = 2^10 + 6: the square of 1024 is cut to 7 targets by the grid's end
@pytest.mark.parametrize("n", [BLOCK + 1, 1000, 1030, 3001])
@pytest.mark.parametrize("j0", [0, 1])
@pytest.mark.parametrize("with_v", [True, False])
def test_blocked_history_matches_direct_sums_at_every_step(n, j0, with_v):
    # j0 = 1 is the history of a right-hand side singular at 0: it stores
    # f[0] = 0, so the direct sums that start the predictor at node 1 agree
    rng = np.random.default_rng(n + 10 * j0 + with_v)
    bx, ax, bv, av = (rng.normal(size=n + 1) for _ in range(4))
    if not with_v:
        bv = av = np.empty(0)
    f = rng.normal(size=n + 1)
    if j0 == 1:
        f[0] = 0.0
    blocked = BlockedHistory(bx, ax, bv, av, f)
    for m in range(1, n + 1):
        got = np.array(blocked.sums(m))
        want = np.array(kernels.pc_sums(bx, ax, bv, av, f, m, j0))
        # sum of |w| |f| over the same terms, row by row
        size = np.array(kernels.pc_sums(np.abs(bx), np.abs(ax), np.abs(bv),
                                            np.abs(av), np.abs(f), m, j0))
        assert np.all(np.abs(got - want) <= 1e-12 * size), m
        if not with_v:
            assert (got[2], got[3]) == (got[0], got[1])


def _conv_lower_direct(b, g, scale):
    n = g.size
    out = np.zeros(n + 1)
    if n:
        out[1:] = scale * np.convolve(g, b[1:])[:n]
    return out


def _trap_apply_direct(a, c, f, scale):
    n = f.size - 1
    out = np.zeros(n + 1)
    if n >= 1:
        acc = c[1:] * f[0] + f[1:]
        if n >= 2:
            acc[1:] += np.convolve(f[1:n], a[1:])[: n - 1]
        out[1:] = scale * acc
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 4097])
def test_fft_conv_lower_matches_direct_convolution(n):
    rng = np.random.default_rng(n)
    b, g = rng.normal(size=n + 1), rng.normal(size=n)
    got = kernels.conv_lower(b, g, 0.37)
    want = _conv_lower_direct(b, g, 0.37)
    size = _conv_lower_direct(np.abs(b), np.abs(g), 0.37)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * size)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 4097])
def test_fft_trap_apply_matches_direct_convolution(n):
    rng = np.random.default_rng(100 + n)
    a, c, f = rng.normal(size=n + 1), rng.normal(size=n + 1), rng.normal(size=n + 1)
    got = kernels.trap_apply(a, c, f, 1.7)
    want = _trap_apply_direct(a, c, f, 1.7)
    size = _trap_apply_direct(np.abs(a), np.abs(c), np.abs(f), 1.7)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * size)


@pytest.mark.parametrize("ident", ["example46", "example63_forced"])
def test_blocked_solution_matches_direct_history_sums(ident, monkeypatch):
    config = harness.load_builtin_config(ident)
    spec = catalog.build_problem_spec(config.problem)
    solve = solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential
    n = 2 ** 14
    blocked = solve(spec, config.t_end, n)
    monkeypatch.setattr(solvers, "BlockedHistory", DirectHistory)
    direct = solve(spec, config.t_end, n)
    for name in ("x", "dbeta_x", "dalpha_x"):
        got, want = getattr(blocked, name).values, getattr(direct, name).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
