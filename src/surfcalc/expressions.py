"""A small analytic-expression language with exact derivatives.

Expressions are built over named variables (ambient coordinates ``x1, x2, x3``
and time ``t``, or chart coordinates ``X1, X2``) from ``+ - * / ^``, integer
and fractional powers, and the functions ``sin``, ``cos``, ``exp``, ``sqrt``.
They can be parsed from strings (the scenario-config field grammar, a subset
of Python's: :mod:`ast` parses it and :func:`parse_expr` maps the nodes) or
assembled programmatically.

Evaluation accepts floats, numpy arrays, or :class:`~surfcalc.autodiff.Dual`
numbers, so derivatives propagate automatically through compositions.  Exact
partial derivatives with respect to a variable are available as new
expressions via :meth:`Expr.diff`.

Nodes are hash-consed: equal subexpressions are one object, and one
evaluation (one ``evaluate`` call, or one :func:`evaluate_all` over a list)
computes each distinct function call once.
"""

from __future__ import annotations

import ast
import math
import re
import warnings
import weakref

from . import autodiff as ad

__all__ = ["Expr", "Num", "Var", "parse_expr", "substitute", "evaluate_all",
           "ParseError"]

# every live node, keyed by its class, its children and its constants
_NODES = weakref.WeakValueDictionary()


class ParseError(ValueError):
    """Raised for a malformed field expression."""


class Expr:
    """Base class; concrete nodes implement ``evaluate`` and ``diff``.

    Constructing a node with the class, the child objects and the constants
    of a live node returns that node.  Floats are keyed by their exact bits,
    so ``Num(0.0) is not Num(-0.0)``.
    """

    _fields = ()

    def __new__(cls, *fields):
        key = (cls,) + tuple(f.hex() if isinstance(f, float) else f
                             for f in fields)
        node = _NODES.get(key)
        if node is None:
            node = super().__new__(cls)
            node.__dict__.update(zip(cls._fields, fields))
            _NODES[key] = node
        return node

    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    # operator sugar used when assembling expressions in code
    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __rsub__(self, other):
        return _sub(_wrap(other), self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    def __neg__(self):
        return _mul(Num(-1.0), self)

    def __pow__(self, expo):
        return _pow(self, expo)


def _wrap(x):
    if isinstance(x, Expr):
        return x
    return Num(float(x))


class Num(Expr):
    _fields = ("value",)

    def __new__(cls, value):
        return super().__new__(cls, float(value))

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def __repr__(self):
        return repr(self.value)


class Var(Expr):
    _fields = ("name",)

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ParseError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return Num(1.0 if var == self.name else 0.0)

    def __repr__(self):
        return self.name


class _Binary(Expr):
    _fields = ("a", "b")


class Add(_Binary):
    def evaluate(self, env):
        env = _scope(env)
        return _value(self.a, env) + _value(self.b, env)

    def diff(self, var):
        return _add(self.a.diff(var), self.b.diff(var))

    def __repr__(self):
        return f"({self.a} + {self.b})"


class Sub(_Binary):
    def evaluate(self, env):
        env = _scope(env)
        return _value(self.a, env) - _value(self.b, env)

    def diff(self, var):
        return _sub(self.a.diff(var), self.b.diff(var))

    def __repr__(self):
        return f"({self.a} - {self.b})"


class Mul(_Binary):
    def evaluate(self, env):
        env = _scope(env)
        return _value(self.a, env) * _value(self.b, env)

    def diff(self, var):
        return _add(_mul(self.a.diff(var), self.b), _mul(self.a, self.b.diff(var)))

    def __repr__(self):
        return f"({self.a} * {self.b})"


class Div(_Binary):
    def evaluate(self, env):
        env = _scope(env)
        return _value(self.a, env) / _value(self.b, env)

    def diff(self, var):
        num = _sub(_mul(self.a.diff(var), self.b), _mul(self.a, self.b.diff(var)))
        return _div(num, _mul(self.b, self.b))

    def __repr__(self):
        return f"({self.a} / {self.b})"


class Pow(Expr):
    """Power with a constant real exponent."""

    _fields = ("base", "expo")

    def __new__(cls, base, expo):
        return super().__new__(cls, base, float(expo))

    def evaluate(self, env):
        env = _scope(env)
        return _value(self.base, env) ** self.expo

    def diff(self, var):
        inner = self.base.diff(var)
        return _mul(_mul(Num(self.expo), _pow(self.base, self.expo - 1.0)), inner)

    def __repr__(self):
        return f"({self.base} ^ {self.expo})"


_FUNCS = {
    "sin": (ad.sin, lambda arg: Call("cos", arg)),
    "cos": (ad.cos, lambda arg: _mul(Num(-1.0), Call("sin", arg))),
    "exp": (ad.exp, lambda arg: Call("exp", arg)),
    "sqrt": (ad.sqrt, lambda arg: _div(Num(0.5), Call("sqrt", arg))),
}


class Call(Expr):
    _fields = ("fn", "arg")

    def __new__(cls, fn, arg):
        if fn not in _FUNCS:
            raise ParseError(f"unknown function {fn!r}")
        return super().__new__(cls, fn, arg)

    def evaluate(self, env):
        env = _scope(env)
        return _FUNCS[self.fn][0](_value(self.arg, env))

    def diff(self, var):
        outer = _FUNCS[self.fn][1](self.arg)
        return _mul(outer, self.arg.diff(var))

    def __repr__(self):
        return f"{self.fn}({self.arg})"


# -- evaluation scope: one memo of Call results per evaluation --------------


class _Scope(dict):
    """The bindings of one evaluation and its memo of ``Call`` results,
    keyed by node (interned, so equal calls share one entry)."""

    __slots__ = ("memo",)


def _scope(env):
    """``env`` as an evaluation scope: a scope passes through, any other
    mapping starts a new one with an empty memo."""
    if type(env) is _Scope:
        return env
    scope = _Scope(env)
    scope.memo = {}
    return scope


def _value(node, scope):
    """Value of ``node`` in ``scope``; a ``Call`` is read from the memo before
    its subtree is descended into."""
    if type(node) is not Call:
        return node.evaluate(scope)
    value = scope.memo.get(node)
    if value is None:
        value = scope.memo[node] = node.evaluate(scope)
    return value


def evaluate_all(exprs, env):
    """Values of ``exprs`` in one ``env``, sharing one memo across the list."""
    scope = _scope(env)
    return [_value(e, scope) for e in exprs]


# -- simplifying constructors (keep derivative trees small) ------------------


def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return Mul(a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value / b.value)
    return Div(a, b)


def _pow(base, expo):
    expo = float(expo)
    if expo == 0.0:
        return Num(1.0)
    if expo == 1.0:
        return base
    if _is_num(base):
        return Num(base.value ** expo)
    return Pow(base, expo)


_REBUILD = {Add: _add, Sub: _sub, Mul: _mul, Div: _div, Pow: _pow, Call: Call}


def substitute(expr, name, replacement):
    """Replace every occurrence of variable ``name`` with ``replacement``."""
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, Num):
        return expr
    rebuild = _REBUILD.get(type(expr))
    if rebuild is None:
        raise TypeError(f"cannot substitute into {type(expr).__name__}")
    fields = (getattr(expr, f) for f in expr._fields)
    return rebuild(*(substitute(f, name, replacement) if isinstance(f, Expr)
                     else f for f in fields))


# -- reading a field expression: Python's ast parses, nodes map onto Expr ----

_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div}
_SIGN = {ast.UAdd: 1.0, ast.USub: -1.0}
# anything outside the grammar's characters (a comment, a comma, a quote)
# is rejected before Python reads the text
_BAD_CHAR = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]")
# Python rejects the leading zeros of "007"; the field grammar reads 7
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")
_DECIMAL = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_expr(text, variables=("x1", "x2", "x3", "t")):
    """Parse ``text`` into an :class:`Expr` over the given variable names."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} in expression")
    source = _LEADING_ZEROS.sub("", " ".join(text.split())).replace("^", "**")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "1if" warns, it must not print
        try:
            body = ast.parse(source, mode="eval").body
        except (SyntaxError, ValueError, Warning) as exc:
            raise ParseError(f"malformed expression {text!r}: "
                             f"{getattr(exc, 'msg', exc)}") from None

    def read(node):
        kind = type(node)
        if kind is ast.BinOp and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](read(node.left), read(node.right))
        if kind is ast.BinOp and type(node.op) is ast.Pow:
            return _pow(read(node.left), exponent(node.right))
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return _mul(Num(-1.0), read(node.operand))
        if kind is ast.UnaryOp and type(node.op) is ast.UAdd:
            return read(node.operand)
        if kind is ast.Constant:
            number = source[node.col_offset:node.end_col_offset]
            if _DECIMAL.fullmatch(number):
                return Num(float(number))
        if kind is ast.Name:
            if node.id in _CONSTANTS:
                return Num(_CONSTANTS[node.id])
            if node.id not in variables:
                raise ParseError(f"unknown variable {node.id!r}")
            return Var(node.id)
        # "f(a)" only: not "f()", "(f)(a)" or "f(*a)"
        if (kind is ast.Call and type(node.func) is ast.Name
                and node.func.col_offset == node.col_offset
                and len(node.args) == 1 and not node.keywords):
            return Call(node.func.id, read(node.args[0]))
        raise ParseError(f"unsupported expression "
                         f"{source[node.col_offset:node.end_col_offset]!r}")

    def exponent(node):
        """A signed number, ``pi`` or ``e``."""
        if type(node) is ast.UnaryOp and type(node.op) in _SIGN:
            return _SIGN[type(node.op)] * exponent(node.operand)
        if type(node) is ast.Constant or (type(node) is ast.Name
                                          and node.id in _CONSTANTS):
            return read(node).value
        raise ParseError("exponent must be a numeric constant")

    try:
        return read(body)
    except (ArithmeticError, TypeError) as exc:  # folding "1/0", "(-8)^0.5"
        raise ParseError(f"bad constant in {text!r}: {exc}") from None
