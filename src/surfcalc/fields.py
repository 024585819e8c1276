"""Scalar/vector/matrix fields over ambient space-time points.

A field evaluator exposes values, first and second spatial partials, and the
time partial at points ``x`` in R^3 (arrays of shape ``(3, ...)``) and time
``t``.  Analytic fields are expression-backed and give exact derivatives;
callable-backed fields fall back to 4th-order central finite differences.

Evaluators are also callable on :class:`~surfcalc.autodiff.Dual` coordinates,
which is how chart-coordinate derivatives of composed surface quantities are
obtained elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

from .expressions import Expr, Num, parse_expr

__all__ = [
    "MissingDerivative",
    "ScalarField",
    "VectorField",
    "FDScalarField",
    "as_scalar_field",
    "as_vector_field",
    "random_scalar_field",
    "random_vector_field",
]

_VARS = ("x1", "x2", "x3", "t")


class MissingDerivative(RuntimeError):
    """A required derivative is unavailable (analytic missing, FD disabled)."""


class ScalarField:
    """Expression-backed scalar field f(x1, x2, x3, t) with exact partials."""

    rank = "scalar"

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = parse_expr(expr, _VARS)
        elif not isinstance(expr, Expr):
            expr = Num(float(expr))
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

    def hess(self, x, t=0.0):
        rows = []
        for vi in _VARS[:3]:
            di = self.d(vi)
            rows.append([_bc(di.d(vj)(x[0], x[1], x[2], t), x) for vj in _VARS[:3]])
        return np.array(rows)

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


class FDScalarField:
    """Scalar field backed by a plain callable; derivatives by central FD.

    First partials use the 4th-order 5-point stencil with step
    ``extent * 2**-10``; second partials nest the same stencil with a wider
    step (``extent * 2**-5``) to keep cancellation error in check.
    """

    rank = "scalar"

    def __init__(self, func, extent=1.0, allow_fd=True, _order=0):
        self.func = func
        self.extent = extent
        self.allow_fd = allow_fd
        self._order = _order
        self.h1 = extent * 2.0 ** -10
        self.h2 = extent * 2.0 ** -5

    def __call__(self, x1, x2, x3, t=0.0):
        return self.func(x1, x2, x3, t)

    def d(self, var):
        if not self.allow_fd:
            raise MissingDerivative(
                "analytic derivative unavailable and finite differences disabled"
            )
        h = self.h1 if self._order == 0 else self.h2
        idx = {"x1": 0, "x2": 1, "x3": 2, "t": 3}[var]

        def diffed(x1, x2, x3, t=0.0, _f=self.func, _i=idx, _h=h):
            args = [np.asarray(x1, dtype=float), np.asarray(x2, dtype=float),
                    np.asarray(x3, dtype=float), np.asarray(t, dtype=float)]

            def at(offset):
                shifted = list(args)
                shifted[_i] = shifted[_i] + offset
                return _f(*shifted)

            return (8.0 * (at(_h) - at(-_h)) - (at(2 * _h) - at(-2 * _h))) / (12.0 * _h)

        return FDScalarField(diffed, self.extent, self.allow_fd, self._order + 1)

    value = ScalarField.value
    grad = ScalarField.grad
    hess = ScalarField.hess
    dt = ScalarField.dt


def as_scalar_field(f):
    if isinstance(f, (ScalarField, FDScalarField)):
        return f
    if callable(f) and not isinstance(f, (str, Expr)):
        return FDScalarField(f)
    return ScalarField(f)


class VectorField:
    """Vector field in R^3 assembled from three scalar components."""

    rank = "vector"

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

    def hess(self, x, t=0.0):
        return np.stack([c.hess(x, t) for c in self.comp])


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


def random_vector_field(rng, amplitude=0.5, terms=3, time_dependent=False):
    return VectorField([
        random_scalar_field(rng, amplitude, terms, time_dependent) for _ in range(3)
    ])
