"""Fast convolution paths against their direct references.

The blocked FFT history sums plus the in-block FFT sums must
reproduce the corrector sums of `kernels.pc_sums` at every node, the FFT
whole-grid operators must reproduce `np.convolve`, and the windowed
corrector must reproduce the scalar predictor-corrector of
`_oracles.march_reference`.
"""

import numpy as np
import pytest

from _oracles import march_reference
from fracasym import catalog, harness, solvers
from fracasym._core import kernels
from fracasym._core.history import BLOCK, LOWER, BlockedHistory
from fracasym.solvers import ProblemKind, ProblemSpec, solve_direct, solve_sequential


# 129: a grid inside the first block; BLOCK +- 1: one block less a node, and
# one block and a node; 1000 = 512 + 488, a last block cut by the grid's
# end; 1030 = 2^10 + 6: the square of 1024 is cut to 7 targets by the
# grid's end
@pytest.mark.parametrize("n", [129, BLOCK - 1, BLOCK + 1, 1000, 1030, 3001])
@pytest.mark.parametrize("j0", [0, 1])
@pytest.mark.parametrize("with_v", [True, False])
def test_blocked_history_matches_direct_sums_at_every_step(n, j0, with_v):
    # the corrector sums start at node 1; j0 = 1 is the history of a
    # right-hand side singular at 0, which stores f[0] = 0, and with j0 = 0
    # the blocks must leave the node-0 value out
    rng = np.random.default_rng(n + 10 * j0 + with_v)
    bx, ax, bv, av = (rng.normal(size=n + 1) for _ in range(4))
    rows = (ax, av) if with_v else (ax,)
    f = rng.normal(size=n + 1)
    if j0 == 1:
        f[0] = 0.0
    blocked = BlockedHistory(rows, f)
    i, j = np.indices((LOWER, LOWER))
    for r, w in enumerate(rows):  # strictly lower Toeplitz in the weights
        assert np.array_equal(blocked.lower[r], np.where(i > j, w[i - j], 0.0))
    for start in range(0, n + 1, BLOCK):
        outside = blocked.block(start)
        first = max(start, 1) - start
        for m in range(start + first, min(start + BLOCK, n + 1)):
            i = m - start
            # the in-block sums of the block's values up to node m, at node m
            got = outside[:, i] + blocked.inblock(f[start + first:m + 1])[:, -1]
            # the corrector sums (cx, cv) of the direct per-step reference and
            # the sums of |w| |f| over the same terms
            want = np.array(kernels.pc_sums(bx, ax, bv, av, f, m, j0)[1::2])
            size = np.array(kernels.pc_sums(np.abs(bx), np.abs(ax), np.abs(bv),
                                            np.abs(av), np.abs(f), m, j0)[1::2])
            assert np.all(np.abs(got - want[:len(rows)]) <= 1e-12 * size[:len(rows)]), m


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


def _assert_matches_reference(spec, t_end, n):
    solve = solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential
    sol = solve(spec, t_end, n)
    for name, want in zip(("x", "dbeta_x", "dalpha_x"), march_reference(spec, t_end, n)):
        got = getattr(sol, name).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


_SHAPES = {"direct_beta0": (ProblemKind.DIRECT, 0.0), "direct": (ProblemKind.DIRECT, 0.3),
           "sequential": (ProblemKind.SEQUENTIAL, 0.3)}
_RHS = {
    "singular": ("damped_singular_product", {"pre_exponent": -5.0 / 12.0, "forcing": 1.0}),
    "state": ("damped_singular_product", {"pre_exponent": 0.5, "forcing": 1.0}),
    "source": ("manufactured_power_mu", {"mu": 2.0}),
}


# N < BLOCK; a window cut by the grid's end (1000 = 512 + 488); 4099 =
# 2^12 + 3, a last block of 4 nodes
@pytest.mark.parametrize("n", [100, 1000, 4099])
@pytest.mark.parametrize("rhs", sorted(_RHS))
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_windowed_solution_matches_scalar_reference(shape, rhs, n):
    kind, beta = _SHAPES[shape]
    name, params = _RHS[rhs]
    f = catalog.make_rhs(name, params, 0.6, kind.value)
    assert f.singular_at_zero == (rhs == "singular")
    _assert_matches_reference(ProblemSpec(kind, 0.6, beta, 1.0, f, b2=1.0), 20.0, n)


@pytest.mark.parametrize("ident", ["example46", "example63_forced"])
def test_blocked_solution_matches_direct_history_sums(ident):
    config = harness.load_builtin_config(ident)
    _assert_matches_reference(catalog.build_problem_spec(config.problem), config.t_end,
                              2 ** 14)


def _builtin_solution(ident, n=None):
    config = harness.load_builtin_config(ident)
    spec = catalog.build_problem_spec(config.problem)
    solve = solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential
    return solve(spec, config.t_end, n or config.grid["n_steps"])


def test_newton_on_the_window_jacobian_unsticks_stalled_windows():
    # where the |v|^(-2/3) partial is large, diagonal Newton advances about a
    # node a sweep: 126 nodes of example63_forced were committed by windows at
    # the sweep cap (9) before the attempt after a stall took full Newton steps
    iters = _builtin_solution("example63_forced").corrector_iterations
    assert iters.size == 2049
    assert np.count_nonzero(iters == solvers._FIXED_POINT_CAP - 1) <= 16
    # and no node is left to root finding, which records _FIXED_POINT_CAP
    assert not (iters == solvers._FIXED_POINT_CAP).any()
    # example46 never stalls, so its sweeps are those of diagonal Newton
    assert _builtin_solution("example46", 4096).corrector_iterations.sum() == 11258
