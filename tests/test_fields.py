import numpy as np
import pytest

from surfcalc.fields import (FDScalarField, MissingDerivative, ScalarField,
                             VectorField, as_scalar_field, as_vector_field,
                             random_scalar_field, random_vector_field)


def sample_points(rng, n=50):
    return rng.uniform(-1.0, 1.0, size=(3, n))


def test_scalar_field_values_and_derivatives(rng):
    f = ScalarField("sin(x1)*x2 + exp(0.5*x3) + t^2")
    x = sample_points(rng)
    vals = f.value(x, t=0.3)
    assert np.allclose(vals, np.sin(x[0]) * x[1] + np.exp(0.5 * x[2]) + 0.09)
    g = f.grad(x, t=0.3)
    assert np.allclose(g[0], np.cos(x[0]) * x[1])
    assert np.allclose(g[1], np.sin(x[0]))
    assert np.allclose(g[2], 0.5 * np.exp(0.5 * x[2]))
    assert np.allclose(f.dt(x, t=0.3), 0.6)


def test_hessian_symmetry(rng):
    f = ScalarField("x1^2*x2 + cos(x2*x3)")
    x = sample_points(rng)
    h = f.hess(x)
    assert np.allclose(h, np.swapaxes(h, 0, 1))


def test_fd_field_matches_analytic(rng):
    """Callable-backed fields reproduce exact gradients to <= 1e-8."""
    exact = ScalarField("sin(x1)*x2 + exp(0.5*x3)*cos(t)")
    fd = FDScalarField(lambda x1, x2, x3, t=0.0:
                       np.sin(x1) * x2 + np.exp(0.5 * x3) * np.cos(t))
    x = sample_points(rng)
    for t in (0.0, 0.4):
        assert np.max(np.abs(fd.grad(x, t) - exact.grad(x, t))) <= 1e-8
        assert np.max(np.abs(fd.dt(x, t) - exact.dt(x, t))) <= 1e-8
    # nested second derivatives stay usable (looser by construction)
    assert np.max(np.abs(fd.hess(x, 0.0) - exact.hess(x, 0.0))) <= 1e-5


def test_fd_field_can_forbid_differencing():
    fd = FDScalarField(lambda x1, x2, x3, t=0.0: x1, allow_fd=False)
    with pytest.raises(MissingDerivative):
        fd.d("x1")


def test_as_scalar_field_dispatch():
    assert isinstance(as_scalar_field(2.5), ScalarField)
    assert isinstance(as_scalar_field("x1 + 1"), ScalarField)
    assert isinstance(as_scalar_field(lambda x1, x2, x3, t=0.0: x1),
                      FDScalarField)
    f = ScalarField("x1")
    assert as_scalar_field(f) is f


def test_vector_field_jacobian(rng):
    v = VectorField(["x2*x3", "sin(x1)", "x1^2 - 0.3*x2"])
    x = sample_points(rng)
    jac = v.jacobian(x)
    assert np.allclose(jac[0, 1], x[2])
    assert np.allclose(jac[0, 2], x[1])
    assert np.allclose(jac[1, 0], np.cos(x[0]))
    assert np.allclose(jac[2, 0], 2 * x[0])
    assert np.allclose(jac[2, 1], -0.3)
    with pytest.raises(ValueError):
        VectorField(["x1", "x2"])


def test_random_fields_are_reproducible():
    a = random_scalar_field(np.random.default_rng(7))
    b = random_scalar_field(np.random.default_rng(7))
    x = np.random.default_rng(1).uniform(-1, 1, (3, 20))
    assert np.allclose(a.value(x), b.value(x))
    v = random_vector_field(np.random.default_rng(7), time_dependent=True)
    assert as_vector_field(v) is v
    assert v.value(x, 0.2).shape == (3, 20)
