"""Fast convolution paths against their direct references.

The blocked FFT history sums plus the in-block FFT sums must
reproduce the corrector sums of `kernels.pc_sums` at every node, the FFT
whole-grid operators must reproduce `np.convolve`, and the windowed
corrector must reproduce the scalar predictor-corrector of
`_oracles.march_reference`.
"""

import dataclasses
import math

import numpy as np
import pytest

from _oracles import march_reference
from fracasym import catalog, harness, kernels, solvers
from fracasym.fracops import trapezoid_coefficients
from fracasym.history import BLOCK, LOWER, BlockedHistory
from fracasym.solvers import ProblemKind, ProblemSpec, solve_direct, solve_sequential


# 129, 511, 513 and 1000: grids inside the first block; BLOCK - 1: one
# block less a node; BLOCK: a whole block; BLOCK + 1 = 2^10 + 1: the square
# of 1024 is cut to one target by the grid's end; 1030 = 2^10 + 6: that
# square is cut to 6 targets; 2000 = 1024 + 976, a last block cut by the
# grid's end; 3001: the square of 2048 cut to 953 targets
@pytest.mark.parametrize("n", [129, 511, 513, 1000, BLOCK - 1, BLOCK, BLOCK + 1, 1030, 2000,
                               3001])
@pytest.mark.parametrize("trapezoid", [0, 1])
@pytest.mark.parametrize("with_v", [True, False])
def test_blocked_history_matches_direct_sums_at_every_step(n, trapezoid, with_v):
    # the corrector sums run over the unknowns f[1..n], which are all the
    # blocks see; the weight rows are random, or with trapezoid = 1 the
    # solver's own, of a growing kernel (mu = 1.5) and a singular one (mu = 0.25)
    rng = np.random.default_rng(n + 10 * trapezoid + with_v)
    bx, ax, bv, av = (rng.normal(size=n + 1) for _ in range(4))
    if trapezoid:
        ax, av = (trapezoid_coefficients(mu, n)[0] for mu in (1.5, 0.25))
    rows = (ax, av) if with_v else (ax,)
    f = rng.normal(size=n + 1)
    blocked = BlockedHistory(rows, f[1:])
    i, j = np.indices((LOWER, LOWER))
    for r, w in enumerate(rows):  # strictly lower Toeplitz in the weights
        assert np.array_equal(blocked.lower[r], np.where(i > j, w[i - j], 0.0))
    for start in range(1, n + 1, BLOCK):  # the block of unknowns from node start
        outside = blocked.block(start - 1)
        for m in range(start, min(start + BLOCK, n + 1)):
            i = m - start
            # the in-block sums of the block's values up to node m, at node m
            got = outside[:, i] + blocked.inblock(f[start:m + 1])[:, -1]
            # the corrector sums (cx, cv) of the direct per-step reference and
            # the sums of |w| |f| over the same terms
            want = np.array(kernels.pc_sums(bx, ax, bv, av, f, m, 1)[1::2])
            size = np.array(kernels.pc_sums(np.abs(bx), np.abs(ax), np.abs(bv),
                                            np.abs(av), np.abs(f), m, 1)[1::2])
            assert np.all(np.abs(got - want[:len(rows)]) <= 1e-12 * size[:len(rows)]), m


def test_a_stack_of_values_gets_the_in_block_sums_of_each():
    rng = np.random.default_rng(5)
    rows = tuple(rng.normal(size=BLOCK + 1) for _ in range(2))
    blocked = BlockedHistory(rows, np.zeros(BLOCK + 1))
    for size in (2, 3, 100, BLOCK):
        stack = rng.normal(size=(2, size))
        got = blocked.inblock(stack)
        assert got.shape == (2, len(rows), size)
        for g, sums in zip(stack, got):
            # the rounding of an FFT spreads over all its outputs: bound it by
            # the largest sum of |a[i-j] g[j]| over the pairs j < i of a node
            terms = max(np.convolve(np.abs(w[1:size]), np.abs(g))[:size - 1].max()
                        for w in rows)
            assert np.all(np.abs(sums - blocked.inblock(g)) <= 1e-15 * terms)


def test_a_single_node_has_no_in_block_sums():
    blocked = BlockedHistory((np.ones(BLOCK + 1), np.ones(BLOCK + 1)), np.zeros(BLOCK + 1))
    assert np.array_equal(blocked.inblock(np.array([3.0])), np.zeros((2, 1)))
    assert np.array_equal(blocked.inblock(np.array([[3.0], [4.0]])), np.zeros((2, 2, 1)))


@pytest.mark.parametrize("mu", [0.3, 1.6, 1.95])
def test_prefix_sums_of_the_weight_heads_are_correctly_rounded(mu):
    a = trapezoid_coefficients(mu, BLOCK)[0]
    blocked = BlockedHistory((a, 2.0 * a), np.zeros(BLOCK))
    want = np.array([math.fsum(a[1:i + 1]) for i in range(BLOCK)])
    assert blocked.prefix.shape == (2, BLOCK)
    assert np.all(np.abs(blocked.prefix - [want, 2.0 * want]) <= 1e-15 * want)
    # a grid shorter than a block needs (and has) the heads up to its end
    assert BlockedHistory((a[:101],), np.zeros(100)).prefix.shape == (1, 100)


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


# N < BLOCK; a block cut by the grid's end (1000 of BLOCK = 1024); 1025, a
# last block of one node, whose square is cut to one target; 4099 = 2^12 + 3,
# a last block of 3 nodes
@pytest.mark.parametrize("n", [100, 1000, 1025, 4099])
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
    # and no node reaches the cap: a window whose first node does not
    # converge raises StepFailure
    assert not (iters == solvers._FIXED_POINT_CAP).any()
    # example46 never stalls, so its sweeps are those of diagonal Newton
    assert _builtin_solution("example46", 4096).corrector_iterations.sum() == 14336


@pytest.mark.parametrize("n", [BLOCK, 2 * BLOCK, 4 * BLOCK])
def test_a_grid_of_2k_steps_fills_whole_blocks(monkeypatch, n):
    # the history is indexed by the unknowns f[1..n], so n = 2^k of them fill
    # n / BLOCK blocks: one window per block, and a square for every block but
    # the first
    sweep, add_block = solvers._sweep, BlockedHistory._add_block
    windows, squares = [], []
    monkeypatch.setattr(solvers, "_sweep", lambda *args: windows.append(args) or sweep(*args))
    monkeypatch.setattr(BlockedHistory, "_add_block",
                        lambda self, m: squares.append(m) or add_block(self, m))
    _builtin_solution("manufactured_tau2", n)
    assert (len(windows), len(squares)) == (n // BLOCK, n // BLOCK - 1)


def _count_inblock(monkeypatch):
    """The ndim of the values of every `BlockedHistory.inblock` call from now on."""
    inblock, calls = BlockedHistory.inblock, []
    monkeypatch.setattr(BlockedHistory, "inblock",
                        lambda self, g: calls.append(g.ndim) or inblock(self, g))
    return calls


@pytest.mark.parametrize("n", [100, 1000, 4099])
@pytest.mark.parametrize("ident, sweeps", [("manufactured_tau2", 2),
                                           ("manufactured_tau2_seq", 2), ("zero_rhs", 1)])
def test_a_state_independent_block_ends_at_its_fixed_point(monkeypatch, ident, sweeps, n):
    # the source does not depend on the state, so the first sweep moves each
    # iterate onto its f-value (zero_rhs starts on it) and the next one moves
    # no node: that sweep ends the block, and its own in-block sums give the
    # block's sums without a stacked check.  The first sweep takes them from
    # the prefix sums, so only a second sweep makes a (1-d) in-block call
    calls = _count_inblock(monkeypatch)
    iters = _builtin_solution(ident, n).corrector_iterations
    assert np.all(iters[1:] == sweeps)
    assert calls == [1] * ((sweeps - 1) * -(-n // BLOCK))


def test_newton_and_partial_windows_keep_the_stacked_check(monkeypatch):
    # example63_forced stalls at its builtin N, so it has Newton attempts and
    # windows after a partial commit; these still end in the stacked check,
    # and its sweeps sum to what they did when only two passing sweeps in a
    # row ended a window
    sweep, windows = solvers._sweep, []
    monkeypatch.setattr(solvers, "_sweep",
                        lambda *args: windows.append((args[7], args[9])) or sweep(*args))
    calls = _count_inblock(monkeypatch)
    iters = _builtin_solution("example63_forced").corrector_iterations
    newton, offsets = zip(*windows)  # the newton and offset arguments
    assert any(newton) and any(offsets)
    assert 2 in calls
    assert iters.sum() == 9096


def test_a_whole_block_fixed_point_commits_its_own_in_block_sums(monkeypatch):
    # f depends on tau alone and lies within a factor 2 of the start, so the
    # first sweep (by the prefix sums) lands on it exactly and the second
    # moves no node: the block ends there and returns that sweep's own
    # transform, the one in-block call, as its sums
    rows = tuple(trapezoid_coefficients(mu, BLOCK)[0] for mu in (1.6, 0.3))
    history = BlockedHistory(rows, np.zeros(BLOCK))
    tau = np.linspace(0.0, 1.0, BLOCK + 1)[1:]
    w = np.array([[0.3], [0.2]])
    f = solvers.RightHandSide(lambda t, u, v: 1.0 + 0.5 * np.sin(7.0 * t))
    calls = _count_inblock(monkeypatch)
    done, sweeps, phi, sums = solvers._sweep(f, tau, np.zeros((2, BLOCK)), w, history, w,
                                             1.0, False, np.zeros(BLOCK), 0)
    assert (done, sweeps, calls) == (BLOCK, 2, [1])
    assert np.array_equal(phi, f.fn(tau, 0.0, 0.0))
    for a, got in zip(rows, sums):
        # the direct sums over the pairs j < i, correctly rounded, against the
        # FFT bound of test_a_stack_of_values_gets_the_in_block_sums_of_each
        want = np.array([math.fsum(a[i:0:-1] * phi[:i]) for i in range(BLOCK)])
        terms = np.convolve(np.abs(a[1:BLOCK]), np.abs(phi))[:BLOCK - 1].max()
        assert np.all(np.abs(got - want) <= 1e-15 * terms)


def test_the_first_sweep_of_a_whole_block_makes_no_in_block_call(monkeypatch):
    # every node starts at phi0, so the first sweep's in-block sums are
    # phi0 * prefix; the sweeps after it sum their iterates by FFT.  f records
    # how many in-block calls came before each of its calls (one a sweep)
    rows = tuple(trapezoid_coefficients(mu, BLOCK)[0] for mu in (1.6, 0.3))
    history = BlockedHistory(rows, np.zeros(BLOCK))
    tau = np.linspace(0.0, 1.0, BLOCK + 1)[1:]
    w = np.array([[1e-3], [2e-3]])
    calls, before, firsts = _count_inblock(monkeypatch), [], []

    def fn(t, u, v):
        before.append(len(calls))
        firsts.append(u.copy())
        return 1.0 + 0.1 * np.sin(u) * np.cos(v)

    base = np.ones((2, BLOCK))
    sweeps = solvers._sweep(solvers.RightHandSide(fn), tau, base, w, history, w, 1.0, False,
                            np.zeros(BLOCK), 0)[1]
    assert sweeps > 2
    assert before[:2] == [0, 1]
    # the x the first sweep hands f: the direct sums of the constant start
    want = np.array([1.0 + 1e-3 * math.fsum(rows[0][1:i + 1]) + 1e-3 for i in range(BLOCK)])
    assert np.all(np.abs(firsts[0] - want) <= 1e-15 * want)


def test_only_a_newton_attempt_builds_the_dense_block(monkeypatch):
    build = BlockedHistory.__dict__["lower"].func
    builds = []
    monkeypatch.setattr(BlockedHistory, "lower",
                        property(lambda self: builds.append(self) or build(self)))
    config = harness.load_builtin_config("example63_forced")
    spec = catalog.build_problem_spec(config.problem)
    # the builtin stalls, so its attempts after a stall take Newton steps
    iters = solve_direct(spec, config.t_end, 512).corrector_iterations
    assert builds and (iters == solvers._FIXED_POINT_CAP - 1).any()
    # its rhs without partials stalls as well, and takes no Newton step
    builds.clear()
    plain = dataclasses.replace(spec, rhs=solvers.RightHandSide(spec.rhs.fn, True))
    iters = solve_direct(plain, config.t_end, 512).corrector_iterations
    assert not builds and (iters == solvers._FIXED_POINT_CAP - 1).any()
    # example46 never stalls
    _builtin_solution("example46")
    assert not builds


@pytest.mark.parametrize("n", [2 ** 17, 2 ** 18, 2 ** 19])
def test_example63_forced_sends_no_node_to_root_finding_at_large_n(n):
    # the first Newton window after the capped first block sits at the edge
    # of the stop rule; its sums must be causal, as its Jacobian is, so that
    # the rounding of later, unconverged nodes cannot move a converged one
    iters = _builtin_solution("example63_forced", n).corrector_iterations
    assert not (iters == solvers._FIXED_POINT_CAP).any()
