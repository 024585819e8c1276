import math
import operator
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfcalc import autodiff as ad
from surfcalc import expressions
from surfcalc.evolving_surface import motion_builtin, moving_atlas
from surfcalc.expressions import (Add, Call, Div, Expr, Mul, Num, ParseError,
                                  Pow, Sub, Var, evaluate_all, parse_expr,
                                  substitute)
from surfcalc.variational_checks import (_direction_exprs, _jet,
                                         time_window_variation, varied_atlas)

VARS = ("x1", "x2", "x3", "t")


def ev(expr, **env):
    full = {"x1": 0.0, "x2": 0.0, "x3": 0.0, "t": 0.0}
    full.update(env)
    return expr.evaluate(full)


def test_arithmetic_and_precedence():
    e = parse_expr("1 + 2*x1 - x2/4", VARS)
    assert ev(e, x1=3.0, x2=8.0) == pytest.approx(5.0)
    assert ev(parse_expr("2^3", VARS)) == pytest.approx(8.0)
    assert ev(parse_expr("-x1^2", VARS), x1=3.0) == pytest.approx(-9.0)
    assert ev(parse_expr("(1+2)*(3-1)", VARS)) == pytest.approx(6.0)


def test_functions():
    e = parse_expr("sin(x1) + cos(x2) + exp(x3) + sqrt(t)", VARS)
    val = ev(e, x1=0.3, x2=0.4, x3=0.5, t=0.25)
    assert val == pytest.approx(math.sin(0.3) + math.cos(0.4)
                                + math.exp(0.5) + 0.5)


def test_parse_errors():
    for bad in ("x1 +", "sin()", "bogus(x1)", "x9", "1..2", "(x1", "x1 x2",
                "t^2e-", "x1 # c", "0x1F", "1_000", "True", "'a'", "x1 % 2",
                "sin(x1, x2)", "x1 if t else x2", "(sin)(x1)", "x1^x2",
                "x1^2^3", "x1 // 2", "1if t else x2",
                "1/0", "0^-1", "10^400", "(-8)^0.5"):
        with pytest.raises(ParseError):
            parse_expr(bad, VARS)


def test_parse_errors_print_no_warning():
    """Python warns about "1if" while it tokenizes; the reader turns that
    into a ParseError and nothing is printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError):
            parse_expr("1if t else x2", VARS)
    assert caught == []


def test_number_and_exponent_forms():
    assert parse_expr("x1^(2)", VARS) is parse_expr("x1^2", VARS)
    assert parse_expr("x1^(-2)", VARS) is parse_expr("x1^-2", VARS)
    assert parse_expr("x1**-+-pi", VARS) is parse_expr("x1^pi", VARS)
    assert parse_expr("007 * x1", VARS) is parse_expr("7.0*x1", VARS)
    assert parse_expr("1.e1 + .5E-1 * x1\n\t- 2", VARS) is \
        (Num(10.0) + Num(0.05) * Var("x1")) - 2.0


def test_diff_matches_finite_difference():
    e = parse_expr("sin(x1*x2) + exp(-x3) * x1^3 / (2 + t)", VARS)
    env = {"x1": 0.7, "x2": -0.4, "x3": 0.2, "t": 0.1}
    h = 1e-6
    for var in VARS:
        up = dict(env, **{var: env[var] + h})
        dn = dict(env, **{var: env[var] - h})
        fd = (e.evaluate(up) - e.evaluate(dn)) / (2 * h)
        assert e.diff(var).evaluate(env) == pytest.approx(fd, abs=1e-8)


def test_diff_of_power_and_quotient():
    e = parse_expr("x1^2.5 / x2", VARS)
    env = {"x1": 2.0, "x2": 3.0, "x3": 0.0, "t": 0.0}
    assert e.diff("x1").evaluate(env) == pytest.approx(2.5 * 2.0 ** 1.5 / 3.0)
    assert e.diff("x2").evaluate(env) == pytest.approx(-(2.0 ** 2.5) / 9.0)


def test_substitute():
    e = parse_expr("x1^2 + t", VARS)
    s = substitute(e, "x1", parse_expr("x2 + 1", VARS))
    assert ev(s, x2=2.0, t=0.5) == pytest.approx(9.5)
    # substitution leaves other variables alone
    assert ev(substitute(e, "x3", Num(7.0)), x1=2.0, t=0.0) == pytest.approx(4.0)


def test_substitute_resimplifies_and_rejects_unknown_nodes():
    x1, x2 = Var("x1"), Var("x2")
    assert substitute(x1 * x2, "x2", Num(0.0)) is Num(0.0)
    assert substitute(Call("sin", x2) ** 3, "x2", x1) is Call("sin", x1) ** 3

    class Opaque(Expr):
        _fields = ("a",)

    with pytest.raises(TypeError, match="Opaque"):
        substitute(Opaque(x1) + x2, "x1", x2)


def test_simplifying_constructors():
    zero, one = Num(0.0), Num(1.0)
    x = Var("x1")
    assert isinstance(zero * x, Num)
    assert (one * x) is x
    assert (x + zero) is x
    assert isinstance(parse_expr("0*sin(x1)", VARS).diff("x1"), Num)


def test_equal_expressions_are_one_node():
    assert parse_expr("sin(X1)", ("X1",)) is parse_expr("sin(X1)", ("X1",))
    assert parse_expr("x1*x2 + 1", VARS) is Var("x1") * Var("x2") + 1.0
    assert substitute(parse_expr("cos(x1)", VARS), "x1", Var("x2")) is \
        Call("cos", Var("x2"))
    # keyed by the value's exact bits: the sign of zero survives
    assert Num(0.0) is not Num(-0.0)
    assert math.copysign(1.0, Num(-0.0).value) == -1.0


def test_dead_nodes_are_freed():
    node = weakref.ref(parse_expr("x1 * 98765.4321", VARS))
    assert node() is None


def test_memo_lives_for_one_evaluation():
    e = parse_expr("sin(x1) + sin(x1)", VARS)
    env = {"x1": 0.3}
    assert e.evaluate(env) == 2.0 * np.sin(0.3)
    env["x1"] = 0.5
    assert e.evaluate(env) == 2.0 * np.sin(0.5)


def _distinct_calls(e, out):
    if isinstance(e, Call):
        out.add((e.fn, repr(e.arg)))
    for child in vars(e).values():
        if isinstance(child, Expr):
            _distinct_calls(child, out)
    return out


def test_each_distinct_call_evaluated_once(sphere, monkeypatch):
    """The position, velocity and tangent basis of a varied sphere chart hold
    100 calls of 4 distinct ones; one evaluation of the 12 expressions
    computes each of the 4 once."""
    wobble = ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")
    mov = moving_atlas(sphere, motion_builtin("dilation"))
    chart = varied_atlas(mov, time_window_variation(wobble, 0.4), 1e-2).charts[0]
    evals = Counter()
    for fn, (value, deriv) in list(expressions._FUNCS.items()):
        def counted(x, fn=fn, value=value):
            evals[fn] += 1
            return value(x)
        monkeypatch.setitem(expressions._FUNCS, fn, (counted, deriv))
    X = np.stack([np.linspace(0.5, 2.5, 5), np.linspace(0.1, 6.0, 5)])
    chart.evaluate(_jet(chart), X[0], X[1], 0.3)
    distinct = set()
    for e in _jet(chart):
        _distinct_calls(e, distinct)
    assert len(distinct) == 4
    assert evals == Counter(fn for fn, _ in distinct)


def _count_evaluations(monkeypatch, classes):
    """A counter of ``evaluate`` calls per node of ``classes``."""
    evals = Counter()
    for cls in classes:
        def counted(self, env, original=cls.evaluate):
            evals[self] += 1
            return original(self, env)
        monkeypatch.setattr(cls, "evaluate", counted)
    return evals


def test_shared_subtree_evaluated_once(monkeypatch):
    u = parse_expr("x1*x2 + 1", VARS)
    exprs = [u * u, u * 2.0, Call("sin", u) - u]
    env = {"x1": np.linspace(-1.0, 2.0, 7), "x2": 0.3, "x3": 0.0, "t": 0.0}
    evals = _count_evaluations(monkeypatch, [Add])
    together = evaluate_all(exprs, env)
    assert evals[u] == 1
    separate = [e.evaluate(env) for e in exprs]
    assert evals[u] == 4  # once per evaluation, though (u * u) reads it twice
    assert all(np.array_equal(a, b) for a, b in zip(together, separate))


def test_jet_evaluates_no_arithmetic_node_twice(sphere, monkeypatch):
    """Leaves (numbers, variables) are read where used; every other node of
    the dilating sphere's jet under the wobble variation is evaluated once."""
    wobble = ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")
    chart = moving_atlas(sphere, motion_builtin("dilation")).charts[0]
    jet = _jet(chart, _direction_exprs(time_window_variation(wobble, 0.4)))
    evals = _count_evaluations(monkeypatch, [Add, Sub, Mul, Div, Pow, Call])
    X = np.stack([np.linspace(0.5, 2.5, 5), np.linspace(0.1, 6.0, 5)])
    chart.evaluate(jet, X[0], X[1], 0.3)
    nodes, stack = set(), list(jet)
    while stack:
        node = stack.pop()
        if not isinstance(node, (Num, Var)) and node not in nodes:
            nodes.add(node)
            stack.extend(c for c in vars(node).values() if isinstance(c, Expr))
    assert set(evals) == nodes
    assert set(evals.values()) == {1}


def test_dual_frame_forms_each_sin_cos_pair_once(sphere, monkeypatch):
    """A sphere frame reads sin and cos of X1 and of X2 as duals: one
    ``np.sin`` and one ``np.cos`` array call per argument."""
    calls = Counter()
    for name in ("sin", "cos"):
        def counted(x, *args, name=name, kernel=getattr(np, name), **kw):
            calls[name] += 1
            return kernel(x, *args, **kw)
        monkeypatch.setattr(np, name, counted)
    X = np.stack([np.linspace(0.6, 2.5, 6), np.linspace(0.1, 6.0, 6)])
    sphere.charts[0].frame(X[0], X[1])
    assert calls == Counter(sin=2, cos=2)


def test_evaluate_vectorized():
    e = parse_expr("x1*x2 + sin(t)", VARS)
    x1 = np.linspace(-1, 1, 7)
    out = e.evaluate({"x1": x1, "x2": 2.0, "x3": 0.0, "t": 0.0})
    assert np.allclose(out, 2.0 * x1)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3),
       expr=st.sampled_from(["x1 + x2", "x1*x2", "x1 - x2/2",
                             "sin(x1) * cos(x2)", "exp(x1/4) + x2^2"]))
def test_diff_linearity_property(a, b, expr):
    e = parse_expr(expr, VARS)
    env = {"x1": a, "x2": b, "x3": 0.0, "t": 0.0}
    h = 1e-5
    for var in ("x1", "x2"):
        up = dict(env, **{var: env[var] + h})
        dn = dict(env, **{var: env[var] - h})
        fd = (e.evaluate(up) - e.evaluate(dn)) / (2 * h)
        assert e.diff(var).evaluate(env) == pytest.approx(fd, abs=2e-6, rel=2e-6)


# Random operator-built trees over x1, x2, t: + - * and sin/cos/exp.
_TREES = st.recursive(
    st.sampled_from([Var("x1"), Var("x2"), Var("t")])
    | st.floats(-2.0, 2.0, allow_subnormal=False).map(Num),
    lambda sub: (st.tuples(sub, sub, st.sampled_from("+-*")).map(
        lambda a: {"+": a[0] + a[1], "-": a[0] - a[1], "*": a[0] * a[1]}[a[2]])
        | st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(
            lambda a: Call(*a))),
    max_leaves=10)
_POINT = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@settings(max_examples=150, deadline=None)
@given(e=_TREES, point=_POINT)
def test_diff_matches_dual_partials(e, point):
    env = dict(zip(("x1", "x2", "t"), point))
    for var in env:
        seeded = dict(env, **{var: ad.seed(var, env[var])})
        try:
            e.evaluate(env)
            exact = e.diff(var).evaluate(env)
        except RuntimeWarning:  # past float64, as exp(exp(exp(2))) = e^1618:
            with pytest.raises(RuntimeWarning):  # the dual route refuses it too
                e.evaluate(seeded)
            continue
        dual = e.evaluate(seeded)
        assert exact == pytest.approx(ad.partial_of(dual, var), rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(e=_TREES, point=_POINT)
def test_repr_parses_back(e, point):
    env = dict(zip(("x1", "x2", "t"), point))
    again = parse_expr(repr(e), ("x1", "x2", "t"))
    assert again.evaluate(env) == e.evaluate(env)


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
_LITERALS = st.floats(0.0, 1e3).map(lambda v: (repr(v), Num(v)))
_CONSTS = st.sampled_from([("pi", Num(math.pi)), ("e", Num(math.e))])


@st.composite
def _source_and_tree(draw, depth=4):
    """A fully parenthesised source string and the tree it must read as,
    the tree built through the Expr operators, ``**`` and ``Call``."""
    kind = draw(st.sampled_from("v" if depth == 0 else "vb^-f"))
    try:
        if kind == "v":
            return draw(st.sampled_from([(v, Var(v)) for v in VARS])
                        | _LITERALS | _CONSTS)
        text, tree = draw(_source_and_tree(depth - 1))
        if kind == "b":
            op = draw(st.sampled_from(sorted(_BINOPS)))
            rtext, rtree = draw(_source_and_tree(depth - 1))
            return f"({text} {op} {rtext})", _BINOPS[op](tree, rtree)
        if kind == "^":
            sign = draw(st.sampled_from(["", "-"]))
            etext, expo = draw(_LITERALS | _CONSTS)
            caret = draw(st.sampled_from(["^", "**"]))
            value = -expo.value if sign else expo.value
            return f"({text} {caret} {sign}{etext})", tree ** value
        if kind == "-":
            return f"(-{text})", -tree
        fn = draw(st.sampled_from(["sin", "cos", "exp", "sqrt"]))
        return f"{fn}({text})", Call(fn, tree)
    except (ArithmeticError, TypeError):
        # constant folding left the reals (1/0, a negative base to a
        # fractional power): the parser raises the same, nothing to compare
        assume(False)


@settings(max_examples=300, deadline=None)
@given(pair=_source_and_tree())
def test_parse_matches_operator_built_tree(pair):
    text, tree = pair
    assert parse_expr(text, VARS) is tree
