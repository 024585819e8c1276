import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcalc import autodiff as ad
from surfcalc.autodiff import (Dual, cos, exp, partial_of, seed, sin, sqrt,
                               value_of)
from surfcalc.chart_geometry import _total

finite = st.floats(-10, 10, allow_nan=False)
nonzero = st.floats(0.5, 10).map(lambda v: v)


def test_seed_and_partials():
    x = seed("x", 2.0)
    y = seed("y", 3.0)
    f = x * x * y + y
    assert value_of(f) == pytest.approx(15.0)
    assert partial_of(f, "x") == pytest.approx(12.0)
    assert partial_of(f, "y") == pytest.approx(5.0)
    assert partial_of(f, "absent") == 0.0


def test_division_and_power():
    x = seed("x", 2.0)
    f = 1.0 / x + x ** 3
    assert value_of(f) == pytest.approx(8.5)
    assert partial_of(f, "x") == pytest.approx(-0.25 + 12.0)


def test_elementary_functions():
    x = seed("x", 0.7)
    assert partial_of(sin(x), "x") == pytest.approx(math.cos(0.7))
    assert partial_of(cos(x), "x") == pytest.approx(-math.sin(0.7))
    assert partial_of(exp(x), "x") == pytest.approx(math.exp(0.7))
    assert partial_of(sqrt(x), "x") == pytest.approx(0.5 / math.sqrt(0.7))


def test_vectorized_seeds():
    vals = np.linspace(0.5, 2.0, 9)
    x = seed("x", vals)
    f = x * sin(x)
    assert np.allclose(value_of(f), vals * np.sin(vals))
    assert np.allclose(partial_of(f, "x"), np.sin(vals) + vals * np.cos(vals))


def test_chain_through_plain_numbers():
    x = seed("x", 1.5)
    f = 2.0 * x + 3.0 - x / 4.0
    assert partial_of(f, "x") == pytest.approx(2.0 - 0.25)
    assert value_of(3.25) == 3.25  # pass-through for non-duals


@settings(max_examples=80, deadline=None)
@given(a=finite, b=finite)
def test_product_rule_property(a, b):
    x = seed("x", a)
    y = seed("y", b)
    f = x * y
    assert partial_of(f, "x") == pytest.approx(b)
    assert partial_of(f, "y") == pytest.approx(a)


@settings(max_examples=80, deadline=None)
@given(a=finite, b=finite, c=finite)
def test_addition_is_linear_in_derivatives(a, b, c):
    x = seed("x", a)
    f = (x + b) + (x * c)
    assert partial_of(f, "x") == pytest.approx(1.0 + c)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.3, 5.0))
def test_inverse_composition(a):
    x = seed("x", a)
    f = sqrt(x * x)
    assert value_of(f) == pytest.approx(a)
    assert partial_of(f, "x") == pytest.approx(1.0, abs=1e-10)


def test_dual_comparison_with_fd():
    def fn(x):
        return sin(x) * exp(-x) + x ** 2 / (1.0 + x)

    for a in (0.2, 1.0, 2.5):
        d = fn(seed("x", a))
        h = 1e-6
        fd = (value_of(fn(Dual(a + h))) - value_of(fn(Dual(a - h)))) / (2 * h)
        assert partial_of(d, "x") == pytest.approx(fd, abs=1e-8)


def test_ndarray_on_the_left_defers_to_the_dual():
    d = Dual(np.array([1.0, -2.0, 3.0]), {"x": np.array([0.5, 1.0, 2.0])})
    a = np.array([2.0, 4.0, -1.0])
    for op, reflected in ((lambda u, v: u + v, "__radd__"),
                          (lambda u, v: u - v, "__rsub__"),
                          (lambda u, v: u * v, "__rmul__"),
                          (lambda u, v: u / v, "__rtruediv__")):
        got = op(a, d)
        want = getattr(d, reflected)(a)
        assert isinstance(got, Dual)
        assert np.array_equal(got.val, want.val)
        assert got.parts.keys() == want.parts.keys()
        assert np.array_equal(got.parts["x"], want.parts["x"])


# -- the formulas these operators replaced, kept as bit-exact oracles ---------

_EDGES = np.array([0.0, -0.0, -1.5, 2.0, 3e-310, -7.25, np.inf, -np.inf,
                   np.nan, 1e308])


def _same(a, b, signed_zero=True):
    """Equal entries, NaN matching NaN of any sign; with ``signed_zero`` the
    sign of every zero too."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (np.array_equal(a, b, equal_nan=True)
            and (not signed_zero or np.array_equal(np.signbit(a) & (a == a),
                                                   np.signbit(b) & (b == b))))


def _same_dual(a, b, signed_zero=True):
    return (_same(a.val, b.val, signed_zero) and a.parts.keys() == b.parts.keys()
            and all(_same(a.parts[k], b.parts[k], signed_zero)
                    for k in a.parts))


def _edge_duals():
    rng = np.random.default_rng(3)
    val = rng.permutation(_EDGES)
    return (Dual(val, {"a": rng.permutation(_EDGES), "b": _EDGES[::-1]}),
            Dual(rng.permutation(_EDGES), {"b": rng.permutation(_EDGES),
                                           "c": 1.0}))


def _generic_product(x, y):
    parts = {k: p * y.val for k, p in x.parts.items()}
    for k, p in y.parts.items():
        q = x.val * p
        parts[k] = parts[k] + q if k in parts else q
    return Dual(x.val * y.val, parts)


def _old_lift(fn, dfn):
    def wrapped(x):
        fac = dfn(x.val)
        return Dual(fn(x.val), {k: fac * p for k, p in x.parts.items()})
    return wrapped


_OLD_LIFTED = {sin: _old_lift(np.sin, np.cos),
               cos: _old_lift(np.cos, lambda v: -np.sin(v)),
               exp: _old_lift(np.exp, np.exp),
               sqrt: _old_lift(np.sqrt, lambda v: 0.5 / np.sqrt(v))}


def test_subtraction_and_square_match_the_generic_formulas():
    x, y = _edge_duals()
    with np.errstate(all="ignore"):
        for u, v in ((x, y), (y, x), (x, x), (x, 2.5), (x, _EDGES),
                     (-0.0, x), (_EDGES, y)):
            assert _same_dual(u - v, ad._as_dual(u) + (-ad._as_dual(v)))
        for u in (x, y):
            assert _same_dual(u * u, _generic_product(u, u))


def test_lifted_functions_match_their_two_call_forms():
    x, y = _edge_duals()
    with np.errstate(all="ignore"):
        for u in (x, y):
            for new, old in _OLD_LIFTED.items():
                assert _same_dual(new(u), old(u))
            s, c = ad.sincos(u)
            assert _same_dual(s, _OLD_LIFTED[sin](u))
            assert _same_dual(c, _OLD_LIFTED[cos](u))


def test_sum_from_the_first_term_matches_sum_from_zero():
    """Equal to ``sum`` but for the sign of an exact-zero total."""
    x, y = _edge_duals()
    with np.errstate(all="ignore"):
        terms = [x * y, x - y, y * 2.0, x]
        assert _same_dual(_total(terms), sum(terms), signed_zero=False)
        plain = [np.array(_EDGES), _EDGES[::-1], -_EDGES]
        assert _same(_total(plain), sum(plain), signed_zero=False)
