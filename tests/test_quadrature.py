import math

import numpy as np
import pytest

from qctl import DomainError, quad_integrate, quadrature_weights


def test_constant_integrates_exactly():
    x = np.linspace(0.0, 1.0, 101)
    assert quad_integrate(x, np.ones_like(x)) == pytest.approx(1.0, abs=1e-15)


def test_simpson_exact_on_parabola():
    x = np.linspace(0.0, 1.0, 101)
    assert quad_integrate(x, x**2) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_standard_normal_mass():
    # Oracle: closed-form error-function mass over [-8, 8] standard deviations.
    x = np.linspace(-8.0, 8.0, 801)
    density = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    expected = math.erf(8.0 / math.sqrt(2.0))
    assert quad_integrate(x, density) == pytest.approx(expected, abs=1e-8)


def test_even_count_falls_back_to_trapezoid():
    x = np.linspace(0.0, 1.0, 100)
    y = x**2
    h = x[1] - x[0]
    trapezoid = h * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1])
    assert quad_integrate(x, y) == pytest.approx(trapezoid, rel=1e-14)
    # Trapezoid error on x^2 is h^2/12 * (b - a) * f'' / 2... just check it is
    # clearly worse than Simpson but still second-order accurate.
    assert abs(quad_integrate(x, y) - 1.0 / 3.0) < 2.0 * h**2


def test_complex_integrand():
    x = np.linspace(0.0, math.pi, 201)
    value = quad_integrate(x, np.exp(1j * x))
    assert value == pytest.approx(2.0j, abs=1e-9)


def test_rejects_too_few_samples():
    with pytest.raises(DomainError):
        quad_integrate(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_rejects_samples_off_the_grid():
    with pytest.raises(DomainError, match="does not match"):
        quad_integrate(np.linspace(0.0, 1.0, 5), np.ones(4))


def test_rejects_non_uniform_grid():
    x = np.array([0.0, 0.1, 0.3, 0.4, 0.5])
    with pytest.raises(DomainError):
        quadrature_weights(x)


def test_weights_sum_to_span():
    x = np.linspace(-3.0, 2.0, 257)
    assert quadrature_weights(x).sum() == pytest.approx(5.0, rel=1e-13)
