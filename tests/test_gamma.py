import numpy as np
import pytest
import scipy.special

from fracasym import DomainError, gamma_fn

SQRT_PI = 1.7724538509055160273


def test_factorial_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)


def test_half_integer():
    assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
    assert gamma_fn(1.5) == pytest.approx(0.5 * SQRT_PI, rel=1e-13)


def test_against_scipy_on_working_range():
    # up to 171, just below the overflow of a double at about 171.624
    xs = np.linspace(0.01, 171.0, 4000)
    ref = scipy.special.gamma(xs)
    got = np.array([gamma_fn(x) for x in xs])
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def test_recurrence():
    for x in np.linspace(0.1, 10.0, 37):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        gamma_fn(bad)
