"""First-order forward-mode automatic differentiation with named seed directions.

A ``Dual`` carries a value together with its partial derivatives with respect
to a set of named directions (e.g. the chart coordinates ``X1``, ``X2``).
Values and partials may be plain floats or numpy arrays, so a single Dual can
represent a whole grid of evaluation points at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Dual", "seed", "sin", "cos", "exp", "sqrt", "value_of", "partial_of"]


def _as_dual(x):
    if isinstance(x, Dual):
        return x
    return Dual(x, {})


class Dual:
    __slots__ = ("val", "parts")

    def __init__(self, val, parts=None):
        self.val = val
        self.parts = {} if parts is None else parts

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _as_dual(other)
        parts = dict(self.parts)
        for k, p in o.parts.items():
            parts[k] = parts[k] + p if k in parts else p
        return Dual(self.val + o.val, parts)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, {k: -p for k, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-_as_dual(other))

    def __rsub__(self, other):
        return _as_dual(other) + (-self)

    def __mul__(self, other):
        o = _as_dual(other)
        parts = {k: p * o.val for k, p in self.parts.items()}
        for k, p in o.parts.items():
            q = self.val * p
            parts[k] = parts[k] + q if k in parts else q
        return Dual(self.val * o.val, parts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_dual(other)
        inv = 1.0 / o.val
        val = self.val * inv
        parts = {k: p * inv for k, p in self.parts.items()}
        for k, p in o.parts.items():
            q = val * inv * p
            parts[k] = parts[k] - q if k in parts else -q
        return Dual(val, parts)

    def __rtruediv__(self, other):
        return _as_dual(other) / self

    def __pow__(self, expo):
        if isinstance(expo, Dual):
            raise TypeError("exponent must be a constant")
        val = self.val ** expo
        fac = expo * self.val ** (expo - 1)
        return Dual(val, {k: fac * p for k, p in self.parts.items()})

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Dual({self.val!r}, {self.parts!r})"


def seed(name, value):
    """A Dual representing an independent variable called ``name``."""
    one = np.ones_like(np.asarray(value, dtype=float)) if np.ndim(value) else 1.0
    return Dual(value, {name: one})


def value_of(x):
    return x.val if isinstance(x, Dual) else x


def partial_of(x, name, like=None):
    """Partial derivative of ``x`` with respect to seed ``name`` (0 if absent)."""
    if isinstance(x, Dual) and name in x.parts:
        return x.parts[name]
    template = like if like is not None else value_of(x)
    return np.zeros_like(np.asarray(template, dtype=float)) if np.ndim(template) else 0.0


def _lift(fn, dfn):
    def wrapped(x):
        if isinstance(x, Dual):
            fac = dfn(x.val)
            return Dual(fn(x.val), {k: fac * p for k, p in x.parts.items()})
        return fn(x)

    return wrapped


sin = _lift(np.sin, np.cos)
cos = _lift(np.cos, lambda v: -np.sin(v))
exp = _lift(np.exp, np.exp)
sqrt = _lift(np.sqrt, lambda v: 0.5 / np.sqrt(v))
