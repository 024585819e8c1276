import numpy as np
import pytest

from surfcalc.evolving_surface import dilation_density
from surfcalc.fields import (ScalarField, VectorField, as_scalar_field,
                             as_vector_field, random_scalar_field,
                             random_vector_field)
from surfcalc.fluid_models import FluidFields, pressure_law_builtin
from surfcalc.variational_checks import time_window_variation


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


def test_as_scalar_field_dispatch():
    assert isinstance(as_scalar_field(2.5), ScalarField)
    assert isinstance(as_scalar_field("x1 + 1"), ScalarField)
    with pytest.raises(TypeError):
        as_scalar_field(lambda x1, x2, x3, t=0.0: x1)
    f = ScalarField("x1")
    assert as_scalar_field(f) is f


def _plain(x1, x2, x3, t=0.0):
    return 2.0 + x1


@pytest.mark.parametrize("build", [
    lambda: VectorField([_plain, "0", "0"]),
    lambda: FluidFields(rho=_plain),
    lambda: pressure_law_builtin("quadratic").effective_field(_plain),
    lambda: time_window_variation([_plain, "0", "0"], 1.0),
    lambda: dilation_density(_plain),
], ids=["VectorField", "FluidFields", "effective_field",
        "time_window_variation", "dilation_density"])
def test_callable_field_is_rejected(build):
    """Fields are expressions only; a plain callable has no exact partials."""
    with pytest.raises(TypeError, match="expression string"):
        build()


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
