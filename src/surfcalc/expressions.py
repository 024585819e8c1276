"""A small analytic-expression language with exact derivatives.

Expressions are built over named variables (ambient coordinates ``x1, x2, x3``
and time ``t``, or chart coordinates ``X1, X2``) from ``+ - * / ^``, integer
and fractional powers, and the functions ``sin``, ``cos``, ``exp``.  They can
be parsed from strings (the scenario-config field grammar) or assembled
programmatically.

Evaluation accepts floats, numpy arrays, or :class:`~surfcalc.autodiff.Dual`
numbers, so derivatives propagate automatically through compositions.  Exact
partial derivatives with respect to a variable are available as new
expressions via :meth:`Expr.diff`.

Nodes are hash-consed: equal subexpressions are one object, and one
evaluation (one ``evaluate`` call, or one :func:`evaluate_all` over a list)
computes each distinct function call once.
"""

from __future__ import annotations

import math
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

    def __call__(self, **env):
        return self.evaluate(env)

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


def substitute(expr, name, replacement):
    """Replace every occurrence of variable ``name`` with ``replacement``."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, Add):
        return _add(substitute(expr.a, name, replacement),
                    substitute(expr.b, name, replacement))
    if isinstance(expr, Sub):
        return _sub(substitute(expr.a, name, replacement),
                    substitute(expr.b, name, replacement))
    if isinstance(expr, Mul):
        return _mul(substitute(expr.a, name, replacement),
                    substitute(expr.b, name, replacement))
    if isinstance(expr, Div):
        return _div(substitute(expr.a, name, replacement),
                    substitute(expr.b, name, replacement))
    if isinstance(expr, Pow):
        return _pow(substitute(expr.base, name, replacement), expr.expo)
    if isinstance(expr, Call):
        return Call(expr.fn, substitute(expr.arg, name, replacement))
    raise TypeError(f"cannot substitute into {type(expr).__name__}")


# -- tokenizer / recursive-descent parser ------------------------------------

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and (
                j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-")
            ):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif text.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
        elif c in "+-*/^()":
            tokens.append(("op", c))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} in expression")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, text = self.next()
        if kind != "op" or text != value:
            raise ParseError(f"expected {value!r}, got {text!r}")

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input at {self.peek()[1]!r}")
        return e

    def expr(self):
        e = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = _add(e, rhs) if op == "+" else _sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.next()[1]
            rhs = self.unary()
            e = _mul(e, rhs) if op == "*" else _div(e, rhs)
        return e

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return _mul(Num(-1.0), self.unary())
        if self.peek() == ("op", "+"):
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            # exponent must be a constant (possibly signed) number
            sign = 1.0
            while self.peek() in (("op", "-"), ("op", "+")):
                if self.next()[1] == "-":
                    sign = -sign
            kind, text = self.next()
            if kind == "num":
                expo = sign * float(text)
            elif kind == "name" and text in _CONSTANTS:
                expo = sign * _CONSTANTS[text]
            else:
                raise ParseError("exponent must be a numeric constant")
            return _pow(base, expo)
        return base

    def atom(self):
        kind, text = self.next()
        if kind == "num":
            try:
                return Num(float(text))
            except ValueError:
                raise ParseError(f"malformed number {text!r}") from None
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if self.peek() == ("op", "("):
                self.next()
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text])
            if self.variables is not None and text not in self.variables:
                raise ParseError(f"unknown variable {text!r}")
            return Var(text)
        raise ParseError(f"unexpected token {text!r}")


def parse_expr(text, variables=("x1", "x2", "x3", "t")):
    """Parse ``text`` into an :class:`Expr` over the given variable names.

    Pass ``variables=None`` to accept any identifier.
    """
    return _Parser(_tokenize(text), variables).parse()
