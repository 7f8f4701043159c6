import numpy as np
import pytest

from fracasym import DomainError, GridFunction, bihari_bound, rl_integral
from fracasym.catalog import make_phi
from fracasym.grid import as_order


def test_basic_construction():
    g = GridFunction(2.0, [0.0, 1.0, 2.0, 3.0])
    assert g.n_steps == 3
    assert g.step == pytest.approx(2.0 / 3.0)
    assert np.allclose(g.taus, [0.0, 2 / 3, 4 / 3, 2.0])


@pytest.mark.parametrize("t_end,values", [
    (0.0, [0.0, 1.0]),
    (-1.0, [0.0, 1.0]),
    (1.0, [1.0]),
    (1.0, [0.0, float("inf")]),
    (1.0, [0.0, float("nan")]),
])
def test_invalid_construction(t_end, values):
    with pytest.raises(DomainError):
        GridFunction(t_end, values)


def test_values_immutable():
    g = GridFunction(1.0, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        g.values[0] = 5.0


def test_from_callable():
    g = GridFunction.from_callable(lambda t: t ** 2, 2.0, 4)
    assert np.allclose(g.values, [0.0, 0.25, 1.0, 2.25, 4.0])


def test_from_callable_broadcasts_a_scalar_result():
    # the broadcast rule of every user callable, grid.as_values
    g = GridFunction.from_callable(lambda t: 2.0, 1.0, 8)
    assert np.array_equal(g.values, np.full(9, 2.0))
    assert not g.values.flags.writeable


def test_cumulative_integral_exact_for_linear_data():
    g = GridFunction.from_callable(lambda t: 3.0 * t + 1.0, 2.0, 16)
    expected = 1.5 * g.taus ** 2 + g.taus
    assert np.allclose(g.cumulative_integral(), expected, rtol=1e-13, atol=1e-14)


def test_integral_to_partial_cell():
    g = GridFunction.from_callable(lambda t: 2.0 * t, 1.0, 10)
    # integral of 2t over [0, x] is x^2, exact for piecewise-linear data
    for x in (0.05, 0.13, 0.5, 0.77, 1.0):
        assert g.integral_to(x) == pytest.approx(x ** 2, rel=1e-12, abs=1e-14)


def test_index_and_value_lookup():
    g = GridFunction.from_callable(lambda t: t, 10.0, 100)
    assert g.index_at(5.0) == 50
    assert g.value_at(5.05) == pytest.approx(5.05)
    with pytest.raises(DomainError):
        g.index_at(11.0)


@pytest.mark.parametrize("tau", [-1.0, -1e-9, 20.0, 10.0 * (1 + 1e-9)])
def test_integral_to_rejects_times_outside_the_grid(tau):
    g = GridFunction(10.0, np.ones(101))
    with pytest.raises(DomainError):
        g.integral_to(tau)
    assert g.integral_to(10.0 * (1 + 1e-13)) == pytest.approx(10.0)


def test_bihari_bound_rejects_a_negative_time():
    g = GridFunction(10.0, np.ones(101))
    with pytest.raises(DomainError):
        bihari_bound(1.0, 0.0, 1.0, 0.5, g, make_phi("identity"), -1.0)


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.5])
def test_fractional_order_domain(bad):
    g = GridFunction(1.0, [0.0, 0.5, 1.0])
    with pytest.raises(DomainError):
        as_order(bad)
    with pytest.raises(DomainError):
        rl_integral(g, bad)


def test_fractional_order_accepts_one():
    assert as_order(1.0) == 1.0
    g = GridFunction(1.0, [1.0, 1.0, 1.0])
    assert np.allclose(rl_integral(g, 1.0).values, [0.0, 0.5, 1.0])
