"""Scalar/vector fields over ambient space-time points.

A field evaluator exposes values, first spatial partials, and the time
partial at points ``x`` in R^3 (arrays of shape ``(3, ...)``) and time
``t``.  Fields are expression-backed and give exact derivatives.

Evaluators are also callable on :class:`~surfcalc.autodiff.Dual` coordinates,
which is how chart-coordinate derivatives of composed surface quantities are
obtained elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

from .expressions import Expr, Num, parse_expr

__all__ = [
    "ScalarField",
    "VectorField",
    "as_scalar_field",
    "as_vector_field",
    "random_scalar_field",
    "random_vector_field",
]

_VARS = ("x1", "x2", "x3", "t")


class ScalarField:
    """Expression-backed scalar field f(x1, x2, x3, t) with exact partials."""

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = parse_expr(expr, _VARS)
        elif not isinstance(expr, Expr):
            try:
                expr = Num(float(expr))
            except TypeError:
                raise TypeError("a scalar field is an expression string, an "
                                f"Expr or a number, not {type(expr).__name__}"
                                ) from None
        self.expr = expr
        self._partials = {}

    def __call__(self, x1, x2, x3, t=0.0):
        return self.expr.evaluate({"x1": x1, "x2": x2, "x3": x3, "t": t})

    def d(self, var):
        """Exact partial derivative with respect to ``var`` as a new field."""
        if var not in self._partials:
            self._partials[var] = ScalarField(self.expr.diff(var))
        return self._partials[var]

    # -- array-style evaluation helpers --------------------------------------

    def value(self, x, t=0.0):
        return _bc(self(x[0], x[1], x[2], t), x)

    def grad(self, x, t=0.0):
        return np.stack([_bc(self.d(v)(x[0], x[1], x[2], t), x) for v in _VARS[:3]])

    def dt(self, x, t=0.0):
        return _bc(self.d("t")(x[0], x[1], x[2], t), x)

    def __repr__(self):
        return f"ScalarField({self.expr})"


def _bc(val, x):
    """Broadcast a (possibly constant) result to the shape of the points."""
    shape = np.shape(x[0])
    if np.shape(val) != shape:
        val = np.broadcast_to(np.asarray(val, dtype=float), shape).copy()
    return val


def as_scalar_field(f):
    return f if isinstance(f, ScalarField) else ScalarField(f)


class VectorField:
    """Vector field in R^3 assembled from three scalar components."""

    def __init__(self, components):
        self.comp = [as_scalar_field(c) for c in components]
        if len(self.comp) != 3:
            raise ValueError("a vector field needs exactly 3 components")

    def __getitem__(self, i):
        return self.comp[i]

    def __call__(self, x1, x2, x3, t=0.0):
        return [c(x1, x2, x3, t) for c in self.comp]

    def value(self, x, t=0.0):
        return np.stack([c.value(x, t) for c in self.comp])

    def jacobian(self, x, t=0.0):
        """J[i, j] = d v_i / d x_j."""
        return np.stack([c.grad(x, t) for c in self.comp])

    def dt(self, x, t=0.0):
        return np.stack([c.dt(x, t) for c in self.comp])


def as_vector_field(v):
    if isinstance(v, VectorField):
        return v
    return VectorField(list(v))


# -- random smooth field families (seeded, for property suites) --------------

_BASIS = [parse_expr(s, _VARS) for s in (
    "x1", "x2", "x3",
    "x1*x2", "x2*x3", "x1*x3",
    "x1^2", "x2^2", "x3^2",
    "sin(x1)", "cos(x2)", "sin(x3)",
    "sin(x1)*cos(x3)", "cos(x1*x2)", "exp(0.3*x3)",
)]


def random_scalar_field(rng, amplitude=0.5, terms=4, time_dependent=False):
    """A random smooth scalar field: a short combination of basis shapes."""
    idx = rng.choice(len(_BASIS), size=terms, replace=False)
    expr = Num(float(rng.uniform(-amplitude, amplitude)))
    for i in idx:
        coef = float(rng.uniform(-amplitude, amplitude))
        term = Num(coef) * _BASIS[int(i)]
        if time_dependent and rng.uniform() < 0.5:
            term = term * (Num(1.0) + Num(float(rng.uniform(-0.3, 0.3))) * parse_expr("t", _VARS))
        expr = expr + term
    return ScalarField(expr)


def random_vector_field(rng, time_dependent=False):
    """Three random scalar fields of amplitude 0.5 and 3 terms each."""
    return VectorField([
        random_scalar_field(rng, 0.5, 3, time_dependent) for _ in range(3)
    ])
