import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import zeta

from fracasym import (DomainError, GridFunction, StepFailure, gamma_fn,
                      residual_check, rl_integral, solve_direct, solve_sequential)
from fracasym.catalog import build_problem_spec, builtin_config_ids, make_rhs, signed_power
from fracasym import harness, solvers
from fracasym.history import BLOCK, LOWER, BlockedHistory
from fracasym.solvers import ProblemKind, ProblemSpec, RightHandSide

INV_GAMMA_1_5 = 1.1283791670955126


def direct_spec(rhs, alpha=0.5, beta=0.25, b=0.0):
    return ProblemSpec(ProblemKind.DIRECT, alpha, beta, b, rhs)


def sequential_spec(rhs, alpha=0.5, beta=0.25, b1=0.0, b2=0.0):
    return ProblemSpec(ProblemKind.SEQUENTIAL, alpha, beta, b1, rhs, b2=b2)


def test_spec_validation():
    zero = make_rhs("zero", None, 0.5, "direct")
    with pytest.raises(DomainError):
        ProblemSpec(ProblemKind.DIRECT, 0.5, 0.5, 0.0, zero)  # beta < alpha required
    with pytest.raises(DomainError):
        ProblemSpec(ProblemKind.SEQUENTIAL, 0.5, 0.0, 0.0, zero)  # beta > 0 required
    with pytest.raises(DomainError):
        ProblemSpec(ProblemKind.DIRECT, 1.2, 0.1, 0.0, zero)
    # beta = 0 is allowed for the direct problem
    ProblemSpec(ProblemKind.DIRECT, 0.5, 0.0, 0.0, zero)


def test_kind_mismatch():
    zero = make_rhs("zero", None, 0.5, "direct")
    with pytest.raises(DomainError):
        solve_sequential(direct_spec(zero), 1.0, 16)
    with pytest.raises(DomainError):
        solve_direct(sequential_spec(zero), 1.0, 16)


def test_minimum_steps():
    zero = make_rhs("zero", None, 0.5, "direct")
    with pytest.raises(DomainError):
        solve_direct(direct_spec(zero, b=1.0), 1.0, 1)


# --------------------------------------------------------------------------
# closed forms

def test_direct_zero_rhs_constant():
    spec = direct_spec(make_rhs("zero", None, 0.5, "direct"), b=3.0)
    sol = solve_direct(spec, 20.0, 256)
    assert np.all(sol.x.values == 3.0)
    assert np.all(sol.dbeta_x.values == 0.0)
    assert sol.x.values[0] == 3.0


def test_sequential_zero_rhs_power():
    spec = sequential_spec(make_rhs("zero", None, 0.5, "sequential"), b2=1.0)
    sol = solve_sequential(spec, 1.0, 256)
    exact = sol.x.taus ** 0.5 / gamma_fn(1.5)
    assert np.max(np.abs(sol.x.values - exact)) <= 1e-10
    assert sol.x.values[-1] == pytest.approx(INV_GAMMA_1_5, rel=1e-12)
    # order-alpha derivative history is b2 exactly (zero source)
    assert np.allclose(sol.dalpha_x.values, 1.0, rtol=0, atol=1e-15)


# Gamma(1.5) ~ 0.886 < Gamma(1.25) ~ 0.906, so b2 = 1.7e308 overflows both
# coefficients; Gamma(1.9) ~ 0.962 > Gamma(1.45) ~ 0.886, so 1.65e308 with
# alpha 0.9, beta 0.45 overflows the Dbeta x one alone
@pytest.mark.parametrize("alpha, beta, b2, name", [
    (0.5, 0.25, 1.7e308, "b2 / Gamma(alpha+1)"),
    (0.9, 0.45, 1.65e308, "b2 / Gamma(alpha-beta+1)"),
])
def test_an_overflowing_initial_value_coefficient_is_named(alpha, beta, b2, name):
    spec = sequential_spec(make_rhs("zero", None, alpha, "sequential"), alpha, beta, b2=b2)
    with pytest.raises(DomainError) as excinfo:
        solve_sequential(spec, 1.0, 16)
    assert str(excinfo.value) == f"initial-value coefficient {name} overflows a float"


def test_sequential_zero_rhs_flat():
    spec = sequential_spec(make_rhs("zero", None, 0.5, "sequential"), b1=5.0)
    sol = solve_sequential(spec, 2.0, 64)
    assert np.all(sol.x.values == 5.0)


def test_an_overflowing_dalpha_history_is_rejected():
    # x and Dbeta x stay finite, but b2 plus the running integral of f
    # passes the largest float at node 2, with no numpy warning
    big = np.finfo(float).max
    spec = sequential_spec(RightHandSide(lambda t, u, v: 0.2 * big + 0.0 * t),
                           alpha=0.1, beta=0.05, b2=0.95 * big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure) as excinfo:
            solve_sequential(spec, 0.3, 2)
    assert (excinfo.value.node, excinfo.value.tau) == (2, 0.3)
    assert str(excinfo.value) == "step 2 (tau=0.3): Dalpha x is not finite"


@pytest.mark.parametrize("kind, beta", [("direct", 0.25), ("direct", 0.0),
                                        ("sequential", 0.25)])
def test_solution_grids_are_read_only_views_on_one_time_grid(kind, beta):
    spec = build_problem_spec({"kind": kind, "alpha": 0.5, "beta": beta, "b1": 0.0,
                               "b2": 0.0, "rhs": {"name": "manufactured_power_mu",
                                                  "params": {"mu": 2.0}}})
    solve = solve_direct if kind == "direct" else solve_sequential
    sol = solve(spec, 2.0, 64)
    grids = (sol.x, sol.dbeta_x, sol.dalpha_x)
    assert np.array_equal(sol.x.taus, np.linspace(0.0, 2.0, 65))
    assert all(g.taus is sol.x.taus for g in grids)
    for array in (*(g.values for g in grids), sol.x.taus, sol.rhs_history):
        with pytest.raises(ValueError):
            array[1] = 5.0


# --------------------------------------------------------------------------
# manufactured solutions

def manufactured_direct(alpha=0.5):
    rhs = make_rhs("manufactured_power_mu", {"mu": 2.0}, alpha, "direct")
    return direct_spec(rhs, alpha=alpha)


def test_manufactured_direct_accuracy():
    sol = solve_direct(manufactured_direct(), 1.0, 2048)
    err = np.max(np.abs(sol.x.values - sol.x.taus ** 2))
    assert err < 1e-3  # comfortably: measured ~4e-8


def test_manufactured_convergence_orders():
    for maker, solver in ((manufactured_direct, solve_direct),):
        errs = []
        for n in (512, 1024, 2048):
            sol = solver(maker(), 1.0, n)
            errs.append(np.max(np.abs(sol.x.values - sol.x.taus ** 2)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0


def test_manufactured_sequential():
    rhs = make_rhs("manufactured_power_mu", {"mu": 2.0}, 0.5, "sequential")
    errs = []
    for n in (512, 1024, 2048):
        sol = solve_sequential(sequential_spec(rhs), 1.0, n)
        errs.append(np.max(np.abs(sol.x.values - sol.x.taus ** 2)))
    assert errs[-1] < 1e-4
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


def test_beta_zero_feeds_state_back():
    seen = []

    def fn(tau, u, v):
        seen.append((u, v))
        source = gamma_fn(3.0) / gamma_fn(2.5) * tau ** 1.5  # alone, x = 1 + tau^2
        return np.exp(-tau) * np.sqrt(np.abs(u)) * np.cos(v) + source

    rhs = RightHandSide(fn)
    spec = ProblemSpec(ProblemKind.DIRECT, 0.5, 0.0, 1.0, rhs)  # sqrt(|u|) is smooth near 1
    # 4099 = 4 * 1024 + 3: four whole blocks, their squares and a last block of 3 nodes
    sol = solve_direct(spec, 1.0, 4099)
    assert np.max(np.abs(sol.x.values - 1.0 - sol.x.taus ** 2)) > 0.1  # the state fed back
    assert np.array_equal(sol.dbeta_x.values, sol.x.values)
    # f at node 0, then three calls a sweep: the value, and the difference
    # quotients in u and in v, each of which moves exactly one argument
    (lead_u, lead_v), calls = seen[0], seen[1:]
    assert np.all(lead_u == lead_v) and len(calls) % 3 == 0
    for (u, v), (u_moved, v_kept), (u_kept, v_moved) in zip(calls[::3], calls[1::3],
                                                             calls[2::3]):
        assert np.all(u == v)
        assert np.all(u_moved != u) and np.array_equal(v_kept, v)
        assert np.array_equal(u_kept, u) and np.all(v_moved != v)


def test_beta_zero_marches_both_quantities_on_one_history_row(monkeypatch):
    # example63_forced's problem at beta = 0 stalls, so Newton windows run on
    # the one weight row that both quantities share
    config = harness.load_builtin_config("example63_forced")
    spec = build_problem_spec(config.problem)
    rows, newton = [], []

    class Spy(BlockedHistory):
        def __init__(self, a, g):
            rows.append(len(a))
            super().__init__(a, g)

    step = solvers._newton_step

    def newton_step(*args):
        newton.append(args[-1].shape[0])  # the coupling rows
        return step(*args)

    monkeypatch.setattr(solvers, "BlockedHistory", Spy)
    monkeypatch.setattr(solvers, "_newton_step", newton_step)
    sol = solve_direct(dataclasses.replace(spec, beta=0.0), config.t_end, 2048)
    assert newton and set(newton) == {2}  # x and Dbeta x, broadcast from one row
    solve_direct(dataclasses.replace(spec, beta=0.2), config.t_end, 2048)
    assert rows == [1, 2]
    assert np.array_equal(sol.x.values, sol.dbeta_x.values)
    iters = sol.corrector_iterations
    assert (iters == solvers._FIXED_POINT_CAP).any()


# --------------------------------------------------------------------------
# history consistency

def test_histories_satisfy_composition():
    # Dbeta x must match J^(alpha-beta) applied to Dalpha x
    rhs = make_rhs("exp_decay_power", {"rate": 1.0, "exponent": 0.5}, 0.5, "sequential")
    spec = sequential_spec(rhs, b1=1.0, b2=1.0)
    sol = solve_sequential(spec, 10.0, 2048)
    recon = rl_integral(sol.dalpha_x, spec.alpha - spec.beta).values
    assert np.max(np.abs(sol.dbeta_x.values - recon)) < 1e-3


def test_direct_histories_consistent():
    spec = manufactured_direct()
    sol = solve_direct(spec, 1.0, 1024)
    recon = rl_integral(GridFunction(1.0, sol.rhs_history),
                        spec.alpha - spec.beta).values
    assert np.max(np.abs(sol.dbeta_x.values - recon)) < 1e-6


def test_rhs_history_matches_rhs_of_state():
    rhs = make_rhs("exp_decay_power", {"rate": 1.0, "exponent": 0.5}, 0.5, "sequential")
    spec = sequential_spec(rhs, b1=1.0, b2=1.0)
    sol = solve_sequential(spec, 5.0, 512)
    f = np.array([rhs.fn(t, u, v) for t, u, v in
                  zip(sol.x.taus, sol.x.values, sol.dbeta_x.values)])
    assert np.max(np.abs(f - sol.rhs_history)) < 1e-11


# --------------------------------------------------------------------------
# residual_check

def test_residual_zero_rhs():
    spec = direct_spec(make_rhs("zero", None, 0.5, "direct"), b=3.0)
    assert residual_check(solve_direct(spec, 10.0, 128)) == 0.0


def test_residual_manufactured():
    sol = solve_direct(manufactured_direct(), 1.0, 2048)
    assert residual_check(sol) < 1e-3


def test_residual_decreases_under_doubling():
    rhs = make_rhs("exp_decay_power", {"rate": 1.0, "exponent": 0.5}, 0.5, "sequential")
    spec = sequential_spec(rhs, b1=1.0, b2=1.0)
    r1 = residual_check(solve_sequential(spec, 50.0, 1024))
    r2 = residual_check(solve_sequential(spec, 50.0, 2048))
    assert r2 < r1


# --------------------------------------------------------------------------
# singular right-hand sides and corrector robustness

def example63_rhs(forcing=0.0):
    params = {"pre_exponent": -5.0 / 12.0, "rate": 1.0, "u_exponent": 0.6,
              "v_exponent": 1.0 / 3.0, "forcing": forcing}
    return make_rhs("damped_singular_product", params, 2.0 / 3.0, "direct")


def test_singular_trivial_branch_stays_constant():
    # the unforced product nonlinearity vanishes on the constant branch
    spec = ProblemSpec(ProblemKind.DIRECT, 2 / 3, 1 / 3, 1.0, example63_rhs())
    sol = solve_direct(spec, 50.0, 1024)
    assert np.all(sol.x.values == 1.0)
    assert np.all(sol.dbeta_x.values == 0.0)
    assert sol.rhs_history[0] == 0.0  # never evaluated at the singular origin


def test_singular_forced_branch_is_bounded():
    spec = ProblemSpec(ProblemKind.DIRECT, 2 / 3, 1 / 3, 1.0, example63_rhs(1.0))
    sol = solve_direct(spec, 50.0, 2048)
    assert np.all(np.isfinite(sol.x.values))
    assert np.max(np.abs(sol.x.values)) < 10.0
    # the corrector equation holds at every interior node
    f = np.array([spec.rhs.fn(t, u, v) for t, u, v in
                  zip(sol.x.taus[1:], sol.x.values[1:], sol.dbeta_x.values[1:])])
    assert np.max(np.abs(f - sol.rhs_history[1:])) < 1e-9


@pytest.mark.parametrize("kind, beta", [(ProblemKind.DIRECT, 0.0),
                                        (ProblemKind.DIRECT, 0.3),
                                        (ProblemKind.SEQUENTIAL, 0.3)])
def test_open_first_subinterval_rule_converges_to_the_power_rule(kind, beta):
    # f = c tau^(-g) is never evaluated at 0, and J^mu f = c Gamma(1-g) /
    # Gamma(1-g+mu) tau^(mu-g) in closed form.  Near 0 the product rule acts
    # as a trapezoid sum whose node-0 value is f(h), so its error at tau is
    # tau^(mu-1)/Gamma(mu) c (zeta(g) + 1/2) h^(1-g) to leading order
    # (Navot's expansion for an algebraic endpoint singularity)
    c, g, alpha, t_end = 1.5, 0.4, 0.6, 2.0
    rhs = RightHandSide(lambda t, u, v: c * t ** -g, singular_at_zero=True)
    shift = 1.0 if kind is ProblemKind.SEQUENTIAL else 0.0  # x = b1 + J^(alpha+1) f
    orders = {"x": alpha + shift, "dbeta_x": alpha - beta + shift}
    start = {"x": 1.0, "dbeta_x": 1.0 if beta == 0.0 else 0.0}  # beta = 0: Dbeta x is x
    solve = solve_direct if kind is ProblemKind.DIRECT else solve_sequential
    errs = []
    for n in (128, 256, 512):
        sol = solve(ProblemSpec(kind, alpha, beta, 1.0, rhs), t_end, n)
        h = sol.x.step
        taus = sol.x.taus[sol.x.taus >= t_end / 4]
        worst = 0.0
        for name, mu in orders.items():
            got = getattr(sol, name).values
            exact = start[name] + c * gamma_fn(1.0 - g) / gamma_fn(1.0 - g + mu) * taus ** (mu - g)
            err = got[-taus.size:] - exact
            lead = taus ** (mu - 1.0) / gamma_fn(mu) * c * (zeta(g) + 0.5) * h ** (1.0 - g)
            assert np.max(np.abs(err / lead - 1.0)) < 0.01, name
            worst = max(worst, np.max(np.abs(err / exact)))
            # at node 1 the rule integrates f(h) as a constant over [0, h]
            open_cell = h ** mu / gamma_fn(mu + 1.0) * c * h ** -g
            assert got[1] == pytest.approx(start[name] + open_cell, rel=1e-12), name
        errs.append(worst)
    assert errs[-1] < 0.03
    assert all(math.log2(errs[i] / errs[i + 1]) >= 0.5 for i in range(2))  # 1 - g = 0.6


def test_difference_quotients_solve_a_stiff_rhs_without_partials():
    # strong derivative coupling near v = 0: plain Picard sweeps stall here,
    # and the difference quotients of fn give the diagonal Newton step
    stiff = RightHandSide(lambda t, u, v: 5.0 * signed_power(v, 1.0 / 3.0) + 1.0)
    spec = ProblemSpec(ProblemKind.DIRECT, 0.6, 0.4, 0.0, stiff)
    sol = solve_direct(spec, 2.0, 128)
    f = np.array([stiff.fn(t, u, v) for t, u, v in
                  zip(sol.x.taus[1:], sol.x.values[1:], sol.dbeta_x.values[1:])])
    assert np.max(np.abs(f - sol.rhs_history[1:])) < 1e-9


def test_a_rhs_without_partials_matches_the_solve_with_them():
    config = harness.load_builtin_config("example63_forced")
    spec = build_problem_spec(config.problem)
    plain = dataclasses.replace(spec, rhs=RightHandSide(spec.rhs.fn, True))
    ref = solve_direct(spec, config.t_end, 2048)
    sol = solve_direct(plain, config.t_end, 2048)
    assert np.max(np.abs(sol.x.values - ref.x.values)) < 1e-13
    # the Newton windows after a stall make it commit no more nodes at the
    # sweep cap than the catalog rhs does
    capped = solvers._FIXED_POINT_CAP
    assert (np.count_nonzero(sol.corrector_iterations == capped)
            <= np.count_nonzero(ref.corrector_iterations == capped))


@pytest.mark.parametrize("k", [19, 20, 22, 23, 24])
def test_a_rhs_without_partials_solves_node_1_on_fine_grids(k):
    # node 1 of a singular rhs depends on h alone, so 1024 steps of
    # h = t_end / 2^k probe it.  Where the iterates of Dbeta x cross the cusp
    # of example63_forced's |v|^(1/3) at v = 0, a slope taken from the
    # iterates alone can make them cycle
    config = harness.load_builtin_config("example63_forced")
    spec = build_problem_spec(config.problem)
    plain = dataclasses.replace(spec, rhs=RightHandSide(spec.rhs.fn, True))
    t_end = 1024 * config.t_end / 2 ** k
    sol = solve_direct(plain, t_end, 1024)
    ref = solve_direct(spec, t_end, 1024)
    assert np.max(np.abs(sol.x.values - ref.x.values)) < 1e-13


@pytest.mark.parametrize("k", [23, 24])
@pytest.mark.parametrize("ident", builtin_config_ids())
def test_node_1_converges_at_the_finest_steps_load_admits(ident, k):
    # load admits a finest grid of 2^24 steps, and node 1 depends on h alone,
    # so 1024 steps of h = t_end / 2^k probe it.  There the first step of
    # example63_forced's node 1 jumps across the root, and the iterates swung
    # about it until the sweep cap: the bracket that the signs of phi - F
    # give holds them
    config = harness.load_builtin_config(ident)
    spec = build_problem_spec(config.problem)
    solve = solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential
    sol = solve(spec, 1024 * config.t_end / 2 ** k, 1024)
    assert sol.corrector_iterations.max() <= solvers._FIXED_POINT_CAP


def _attempts(monkeypatch, spec, t_end, n):
    """(block, newton, nodes committed, sweeps, stalled) of every window
    attempt of the solve of spec on n steps."""
    sweep, attempts = solvers._sweep, []

    def spy(f, tau, base, w, history, k, phi0, newton, *args):
        done, sweeps, phi, sums = sweep(f, tau, base, w, history, k, phi0, newton, *args)
        block = (round(tau[0] * n / t_end) - 1) // BLOCK
        stalled = sweeps == solvers._FIXED_POINT_CAP and done < tau.size
        attempts.append((block, newton, done, sweeps, stalled))
        return done, sweeps, phi, sums

    monkeypatch.setattr(solvers, "_sweep", spy)
    solve_direct(spec, t_end, n)
    return attempts


def test_a_block_finishes_on_newton_windows_once_diagonal_sweeps_fall_behind(monkeypatch):
    # a diagonal attempt right after a Newton attempt that stalls short of a
    # Newton window's LOWER nodes latches its block onto Newton windows; the
    # next block starts unlatched
    config = harness.load_builtin_config("example63_forced")
    spec = build_problem_spec(config.problem)
    attempts = _attempts(monkeypatch, spec, config.t_end, 32768)
    first = [a for a in attempts if a[0] == 0]
    latch = next(i for i in range(1, len(first)) if first[i - 1][1] and not first[i][1]
                 and first[i][4] and first[i][2] < LOWER)
    assert all(newton for _, newton, *_ in first[latch + 1:])
    assert not next(a for a in attempts if a[0] == 1)[1]
    # at the builtin's grid no diagonal attempt after a Newton one stalls
    attempts = _attempts(monkeypatch, spec, config.t_end, config.grid["n_steps"])
    assert (len(attempts), sum(a[3] for a in attempts)) == (5, 29)


# an infinite slope at the root, and a jump with no root at all
@pytest.mark.parametrize("fn", [lambda t, u, v: -50.0 * np.cbrt(u - 0.2),
                                lambda t, u, v: -5.0 * np.sign(u - 0.3)],
                         ids=["cbrt", "sign"])
def test_a_window_whose_first_node_does_not_converge_fails_there(fn):
    spec = ProblemSpec(ProblemKind.DIRECT, 0.5, 0.25, 0.0, RightHandSide(fn))
    with pytest.raises(StepFailure, match="did not converge") as excinfo:
        solve_direct(spec, 1.0, 64)
    assert excinfo.value.node == 1


def test_a_picard_step_lands_on_f():
    # f depends on tau alone and lies below half the start phi0 = 1 at some
    # nodes, where phi0 - (phi0 - F) misses F by an ulp: the first sweep
    # takes F itself, and the second moves no node
    n = 64
    rows = tuple(np.linspace(1.0, 0.1, n) for _ in range(2))
    history = BlockedHistory(rows, np.zeros(n))
    tau = np.linspace(0.0, 1.0, n + 1)[1:]
    w = np.array([[0.3], [0.2]])
    f = RightHandSide(lambda t, u, v: 0.1 + t * t)
    done, sweeps, phi, _ = solvers._sweep(f, tau, np.zeros((2, n)), w, history, w,
                                          1.0, False, np.zeros(n), 0)
    assert (done, sweeps) == (n, 2)
    assert np.array_equal(phi, f.fn(tau, 0.0, 0.0))


@pytest.mark.parametrize("newton", [False, True])
def test_a_first_node_whose_f_is_not_finite_in_its_bracket_is_cut(newton):
    # F = 3 - 2u with its partials declared 0: the Picard steps from 0 reach 3,
    # then -3, which leaves the bracket [0, 3] that the signs of phi - F show,
    # so the node takes the midpoint 1.5.  F is nan there: the node is cut,
    # where another midpoint would not move it and so pass the stop rule
    def partials(t, u, v):
        return np.where(np.abs(u - 1.5) < 0.3, np.nan, 3.0 - 2.0 * u), 0.0, 0.0

    rhs = RightHandSide(lambda t, u, v: partials(t, u, v)[0], partials=partials)
    w = np.ones((2, 1))  # x = v = phi
    history = BlockedHistory((np.zeros(2), np.zeros(2)), np.zeros(2))
    done, sweeps, phi, _ = solvers._sweep(rhs, np.array([1.0]), np.zeros((2, 1)), w, history,
                                          w, 0.0, newton, np.zeros(1), 0)
    assert (done, sweeps, phi.size) == (0, 3, 0)


def test_nonfinite_rhs_reports_location():
    bad = RightHandSide(lambda t, u, v: np.where(t > 0.5, np.nan, 0.0))
    spec = ProblemSpec(ProblemKind.DIRECT, 0.5, 0.25, 1.0, bad)
    with pytest.raises(StepFailure) as excinfo:
        solve_direct(spec, 1.0, 64)
    assert excinfo.value.node == 33


def test_nonfinite_rhs_at_the_lead_node_names_node_0():
    # a regular rhs is evaluated at tau = 0 before the first block
    bad = RightHandSide(lambda t, u, v: np.where(t == 0.0, np.nan, 0.0))
    spec = ProblemSpec(ProblemKind.DIRECT, 0.5, 0.25, 1.0, bad)
    with pytest.raises(StepFailure) as excinfo:
        solve_direct(spec, 1.0, 64)
    assert excinfo.value.node == 0
    assert str(excinfo.value) == "step 0 (tau=0): rhs returned non-finite value nan"


# --------------------------------------------------------------------------
# state-independent sources: one call of fn a block, no corrector sweep

def _solve(spec, t_end, n):
    return (solve_direct if spec.kind is ProblemKind.DIRECT else solve_sequential)(spec, t_end, n)


def _swept(spec):
    """spec with its source undeclared: the same fn through the corrector sweeps."""
    rhs = dataclasses.replace(spec.rhs, state_independent=False)
    return dataclasses.replace(spec, rhs=rhs)


def _assert_same_solution(spec, t_end, n):
    assert spec.rhs.state_independent
    got, want = _solve(spec, t_end, n), _solve(_swept(spec), t_end, n)
    for name in ("x", "dbeta_x", "dalpha_x"):
        assert np.array_equal(getattr(got, name).values, getattr(want, name).values), name
    assert np.array_equal(got.rhs_history, want.rhs_history)


@pytest.mark.parametrize("n", [100, 1000, 4099])
@pytest.mark.parametrize("ident", ["manufactured_tau2", "manufactured_tau2_seq", "zero_rhs"])
def test_a_state_independent_source_solves_as_its_sweeps_do(ident, n):
    config = harness.load_builtin_config(ident)
    _assert_same_solution(build_problem_spec(config.problem), config.t_end, n)


@pytest.mark.parametrize("n", [100, 1000, 4099])
@pytest.mark.parametrize("kind, beta", [(ProblemKind.DIRECT, 0.0), (ProblemKind.DIRECT, 0.3),
                                        (ProblemKind.SEQUENTIAL, 0.3)])
def test_a_singular_state_independent_source_solves_as_its_sweeps_do(kind, beta, n):
    # node 1 is the lead node: its f-value enters through the first
    # subinterval's weight of every node of the block it is filled in
    rhs = RightHandSide(lambda t, u, v: 1.5 * t ** -0.5, singular_at_zero=True,
                        state_independent=True)
    _assert_same_solution(ProblemSpec(kind, 0.6, beta, 1.0, rhs, b2=1.0), 20.0, n)


@pytest.mark.parametrize("bad", [7, 1500, 4099])
def test_a_state_independent_source_fails_at_its_nonfinite_node_as_its_sweeps_do(bad):
    # one interior node in the first block, one in the second, and the last node
    n, t_end = 4099, 1.0
    tau = np.linspace(0.0, t_end, n + 1)[bad]
    rhs = RightHandSide(lambda t, u, v: np.where(t == tau, np.nan, 1.0 + t),
                        state_independent=True)
    spec = ProblemSpec(ProblemKind.DIRECT, 0.5, 0.25, 1.0, rhs)
    failures = []
    for case in (spec, _swept(spec)):
        with pytest.raises(StepFailure) as excinfo:
            _solve(case, t_end, n)
        failures.append((excinfo.value.node, str(excinfo.value)))
    message = f"step {bad} (tau={tau:.6g}): rhs value or corrector step not finite"
    assert failures == [(bad, message)] * 2


def test_signed_power():
    assert signed_power(8.0, 1 / 3) == pytest.approx(2.0)
    assert signed_power(-8.0, 1 / 3) == pytest.approx(-2.0)
    assert signed_power(0.0, 0.5) == 0.0


# --------------------------------------------------------------------------
# fused partials of the catalog right-hand sides

_FUSED = {
    "exp_decay_power": ("exp_decay_power", {"rate": 0.7, "exponent": 0.5}),
    "damped_regular": ("damped_singular_product", {"pre_exponent": 0.5, "forcing": 1.0}),
    "damped_singular": ("damped_singular_product", {"pre_exponent": -5.0 / 12.0,
                                                    "forcing": 1.0}),
}


def _fused(case):
    name, params = _FUSED[case]
    rhs = make_rhs(name, params, 0.6, "direct")
    assert rhs.partials is not None
    return rhs


def _points():
    # every pair of these u and v values, 0 and negative ones included
    values = np.array([-2.5, -0.8, -0.3, 0.0, 0.4, 1.1, 3.0])
    u, v = np.meshgrid(values, values)
    tau = np.linspace(0.1, 4.0, u.size)
    return tau, u.ravel(), v.ravel()


@pytest.mark.parametrize("case", sorted(_FUSED))
def test_fused_value_is_fn_bit_for_bit(case):
    rhs = _fused(case)
    tau, u, v = _points()
    with np.errstate(divide="ignore", invalid="ignore"):  # the partials at 0
        f, _, _ = rhs.partials(tau, u, v)
    assert np.array_equal(f, rhs.fn(tau, u, v))


@pytest.mark.parametrize("case", sorted(_FUSED))
def test_fused_partials_match_central_differences(case):
    rhs = _fused(case)
    tau, u, v = _points()
    keep = (u != 0.0) & (v != 0.0)
    tau, u, v = tau[keep], u[keep], v[keep]
    _, fu, fv = (np.broadcast_to(out, tau.shape) for out in rhs.partials(tau, u, v))
    hu, hv = 1e-6 * np.abs(u), 1e-6 * np.abs(v)
    du = (rhs.fn(tau, u + hu, v) - rhs.fn(tau, u - hu, v)) / (2.0 * hu)
    dv = (rhs.fn(tau, u, v + hv) - rhs.fn(tau, u, v - hv)) / (2.0 * hv)
    np.testing.assert_allclose(fu, du, rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(fv, dv, rtol=1e-6, atol=1e-12)


# right-hand sides made without partials, whose difference quotient in u or
# in v steps out of fn's domain at u = 0 or v = 0
_DERIVED = {"sqrt_of_minus_u": lambda t, u, v: 0.5 + np.sqrt(-u),
            "sqrt_of_minus_v": lambda t, u, v: 0.5 + np.sqrt(-v)}


# (x, v) where a partial is not finite: u = 0, or v = 0 for the product
@pytest.mark.parametrize("case, x, v", [("exp_decay_power", 0.0, 0.5),
                                        ("damped_regular", 0.0, 0.5),
                                        ("damped_regular", 0.5, 0.0),
                                        ("damped_singular", 0.5, 0.0),
                                        ("sqrt_of_minus_u", 0.0, 0.5),
                                        ("sqrt_of_minus_v", 0.5, 0.0)])
@pytest.mark.parametrize("newton", [False, True])
def test_a_sweep_at_a_nonfinite_partial_takes_the_picard_step(case, x, v, newton):
    rhs = RightHandSide(_DERIVED[case]) if case in _DERIVED else _fused(case)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, fu, fv = rhs.partials(1.0, x, v)
    assert not (np.isfinite(fu) and np.isfinite(fv))
    # a one-node window whose start phi0 = 1 sits at (x, v): a diagonal Newton
    # step with the non-finite denominator would leave phi at 1, which then
    # passes the stop rule without solving phi = f(1, x(phi), v(phi)); a full
    # Newton step on the non-finite Jacobian would make phi nan and cut the node
    w = np.array([[0.1], [0.2]])
    base = np.array([[x], [v]]) - w
    history = BlockedHistory((np.zeros(2), np.zeros(2)), np.zeros(2))
    done, sweeps, phi, _ = solvers._sweep(rhs, np.array([1.0]), base, w, history, w, 1.0,
                                          newton, np.zeros(1), 0)
    assert done == 1 and phi[0] != 1.0
    z = base[:, 0] + w[:, 0] * phi[0]
    assert phi[0] == pytest.approx(rhs.fn(1.0, z[0], z[1]), rel=1e-12, abs=1e-15)


def test_a_newton_step_at_a_node_depends_on_the_nodes_before_it_alone():
    # a stiff window: coupling entries far above the diagonal make a pivoting
    # LU of J exchange rows, and the later nodes, far from converged, have
    # steps 20 orders above the first one's
    rng = np.random.default_rng(3)
    n = 128
    coupling = np.tril(rng.uniform(0.0, 1.0, (2, n, n)), -1)
    denom = rng.uniform(1.0, 2.0, n)
    fu, fv = rng.uniform(-40.0, -20.0, n), rng.uniform(20.0, 40.0, n)
    step = rng.normal(size=n) * np.logspace(-12, 8, n)
    got = solvers._newton_step(step, denom, fu, fv, coupling)
    jac = np.diag(denom) - fu[:, None] * coupling[0] - fv[:, None] * coupling[1]
    want = np.empty(n)  # forward substitution
    for i in range(n):
        want[i] = (step[i] - jac[i, :i].dot(want[:i])) / jac[i, i]
    assert got[0] == step[0] / denom[0]
    np.testing.assert_allclose(got[:16], want[:16], rtol=1e-12, atol=0.0)


def _jacobian(size, seed):
    """step, denom, F_u, F_v and the coupling of a random window."""
    rng = np.random.default_rng(seed)
    coupling = np.tril(rng.uniform(0.0, 1.0, (2, size, size)), -1) / size
    return (rng.normal(size=size), rng.uniform(1.0, 2.0, size),
            *rng.uniform(-2.0, 2.0, (2, size)), coupling)


# one block of the substitution, a block and one node, two and four blocks
@pytest.mark.parametrize("size", [1, 31, 32, 33, 127, 128])
def test_a_blocked_newton_step_matches_a_dense_solve(size):
    step, denom, fu, fv, coupling = _jacobian(size, size)
    jac = np.diag(denom) - fu[:, None] * coupling[0] - fv[:, None] * coupling[1]
    want = np.linalg.solve(jac, step)
    got = solvers._newton_step(step, denom, fu, fv, coupling)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# a zero on the diagonal, and an entry of J that is not finite
@pytest.mark.parametrize("name, value", [("denom", 0.0), ("fu", np.inf), ("fv", np.nan)])
def test_a_newton_step_on_a_singular_or_nonfinite_jacobian_is_none(name, value):
    args = dict(zip(("step", "denom", "fu", "fv", "coupling"), _jacobian(65, 0)))
    args[name][40] = value
    with np.errstate(invalid="ignore"):  # inf times the zeros of the coupling
        assert solvers._newton_step(**args) is None
