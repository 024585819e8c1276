import math
import warnings

import numpy as np
import pytest

from surfcalc import evolving_surface
from surfcalc.autodiff import value_of
from surfcalc.chart_geometry import (Chart, ChartAtlas, OutOfDomain,
                                     QuadratureRule,
                                     SingularMetric, default_rule, integrate,
                                     metric_at, plane_chart, sphere_atlas,
                                     torus_atlas)
from surfcalc.evolving_surface import (FlowState, advance_flow, motion_builtin,
                                       moving_atlas)
from surfcalc.fields import ScalarField
from surfcalc.variational_checks import time_window_variation, varied_atlas
from conftest import random_nodes

METRIC_FIELDS = ("x", "g", "gram", "inv_gram", "J", "sqrtJ", "n", "P")
SNAPSHOT_FIELDS = {"x", "g", "inv_gram", "sqrtJ", "orientation"}


def test_sphere_area(sphere, sphere_rule):
    area = integrate(1.0, sphere, sphere_rule)
    assert abs(area - 4 * math.pi) / (4 * math.pi) <= 1e-8


def test_scaled_sphere_area():
    atlas = sphere_atlas(R=1.7)
    area = integrate(1.0, atlas, default_rule(atlas))
    exact = 4 * math.pi * 1.7 ** 2
    assert abs(area - exact) / exact <= 1e-8


def test_torus_area(torus, torus_rule):
    area = integrate(1.0, torus, torus_rule)
    exact = 4 * math.pi ** 2 * 2.0 * 0.5
    assert abs(area - exact) / exact <= 1e-10


def test_sphere_pointwise_geometry(sphere, torus, rng):
    R = 1.0
    for chart in sphere.charts:
        X = random_nodes(chart, rng, 200)
        st = metric_at(chart, X)
        # points on the sphere, outward unit normal, constant curvature
        assert np.allclose(np.linalg.norm(st.x, axis=0), R, atol=1e-12)
        assert np.allclose(st.n, st.x / R, atol=1e-12)
        assert np.max(np.abs(chart.frame(X[0], X[1]).H + 2.0 / R)) <= 1e-8
    # the torus (R, r) = (2, 0.5) has non-constant curvature: outward normal
    # (cos X2 cos X1, cos X2 sin X1, sin X2), H = -(1/r + cos X2/(R + r cos X2))
    chart = torus.charts[0]
    X = random_nodes(chart, rng, 1000)
    c1, s1, c2, s2 = np.cos(X[0]), np.sin(X[0]), np.cos(X[1]), np.sin(X[1])
    st = metric_at(chart, X)
    assert np.max(np.abs(st.n - np.stack([c2 * c1, c2 * s1, s2]))) <= 1e-12
    H = -(1.0 / 0.5 + c2 / (2.0 + 0.5 * c2))
    assert np.max(np.abs(chart.frame(X[0], X[1]).H - H)) <= 1e-12


def test_projector_identities(sphere, torus, rng):
    for atlas in (sphere, torus):
        for chart in atlas.charts:
            X = random_nodes(chart, rng, 1000)
            st = metric_at(chart, X)
            # P is the orthogonal projector onto the tangent plane
            PP = np.einsum("ik...,kj...->ij...", st.P, st.P)
            assert np.max(np.abs(PP - st.P)) <= 1e-10
            Pn = np.einsum("ij...,j...->i...", st.P, st.n)
            assert np.max(np.abs(Pn)) <= 1e-10
            trace = np.einsum("ii...->...", st.P)
            assert np.max(np.abs(trace - 2.0)) <= 1e-10
            # P equals g^{ab} g_a (x) g_b built from the chart metric
            P2 = np.einsum("ab...,ai...,bj...->ij...", st.inv_gram, st.g, st.g)
            assert np.max(np.abs(st.P - P2)) <= 1e-10
            # normal orthogonal to the tangent basis, J = det(gram)
            assert np.max(np.abs(np.einsum("ai...,i...->a...", st.g, st.n))) <= 1e-10
            det = (st.gram[0, 0] * st.gram[1, 1] - st.gram[0, 1] * st.gram[1, 0])
            assert np.max(np.abs(st.J - det)) <= 1e-10 * np.max(np.abs(det))


def test_contravariant_basis_is_dual_to_the_tangents(sphere, torus, rng):
    """g^a = g^ab g_b satisfies g^a . g_b = delta^a_b and sum_a g_a (x) g^a
    = P, read off ``metric_at`` and ``frame.metric()`` alike.  The bundled
    charts are orthogonal up to rounding; the sheared map has g_12 != 0."""
    sheared = Chart(["X1 + 0.4*X2", "X2", "0.2*X1*X2"],
                    domain=((-1.0, 1.0), (-1.0, 1.0)))
    X = random_nodes(sheared, rng, 300)
    assert np.min(np.abs(metric_at(sheared, X).gram[0, 1])) >= 0.1
    for chart in (*sphere.charts, *torus.charts, sheared):
        X = random_nodes(chart, rng, 300)
        for st in (metric_at(chart, X), chart.frame(X[0], X[1]).metric()):
            dual = np.einsum("ai...,bi...->ab...", st.gup, st.g)
            assert np.max(np.abs(dual - np.eye(2)[..., None])) <= 1e-13
            P = np.einsum("ai...,aj...->ij...", st.g, st.gup)
            assert np.max(np.abs(P - st.P)) <= 1e-13


def test_partition_of_unity_sums_to_one(sphere, rng):
    # sample points of chart 0, map into chart 1, sum the weights
    chart0, chart1 = sphere.charts
    X = random_nodes(chart0, rng, 400)
    st = metric_at(chart0, X)
    total = sphere.pou(0, X[0], X[1]).copy()
    other = chart1.invert(st.x)
    inside = chart1.contains(other[0], other[1])
    vals = np.zeros(X.shape[1])
    vals[inside] = sphere.pou(1, other[0][inside], other[1][inside])
    assert np.max(np.abs(total + vals - 1.0)) <= 1e-12


def test_out_of_domain_rejected():
    chart = plane_chart(extent=1.0).charts[0]
    with pytest.raises(OutOfDomain):
        chart.frame(np.array([5.0]), np.array([0.0]))


def _outward(atlas, rule, centre):
    """n . (x - centre) at every node of every chart, concatenated."""
    out = []
    for chart, (X, _, _) in zip(atlas.charts, rule.nodes):
        st = metric_at(chart, X)
        out.append(np.einsum("i...,i...->...", st.n, st.x - centre(X)))
    return np.concatenate(out)


def _flipped(atlas):
    return ChartAtlas([Chart(c.param, c.domain, c.periodic, -1, c.pou_bump,
                             c.invert, c.name) for c in atlas.charts])


def test_orientation_validation(sphere, torus):
    """Normals point away from the sphere's centre and from the torus's tube
    centre R (cos X1, sin X1, 0) at every node; orientation -1 flips all."""
    def origin(X):
        return np.zeros((3, 1))

    def tube(X):
        return 2.0 * np.stack([np.cos(X[0]), np.sin(X[0]), 0.0 * X[0]])

    for atlas, centre in ((sphere, origin), (torus, tube)):
        rule = QuadratureRule(atlas, order=24, periodic_order=48)
        assert np.all(_outward(atlas, rule, centre) > 0.0)
        assert np.all(_outward(_flipped(atlas), rule, centre) < 0.0)


def test_frame_metric_consistency(sphere, rng):
    chart = sphere.charts[0]
    X = random_nodes(chart, rng, 50)
    frame = chart.frame(X[0], X[1], 0.0)
    st = frame.metric()
    assert np.allclose(st.x, np.stack([np.broadcast_to(value_of(c), frame.shape)
                                       for c in frame.x]))
    assert np.all(st.sqrtJ > 0)


def test_vector_integral_odd_symmetry(sphere, sphere_rule_fast):
    # the position integrates to zero over the centered sphere
    for coord in ("x1", "x2", "x3"):
        assert abs(integrate(coord, sphere, sphere_rule_fast)) <= 1e-9
    with pytest.raises(TypeError):
        integrate(lambda x, t: x[0], sphere, sphere_rule_fast)


def test_quadrature_convergence(sphere):
    coarse = integrate(1.0, sphere, QuadratureRule(sphere, 24, 48))
    fine = integrate(1.0, sphere, QuadratureRule(sphere, 80, 192))
    exact = 4 * math.pi
    assert abs(fine - exact) < abs(coarse - exact)


def test_frame_values_full_shape(rng):
    """Constant components (the plane's x3 = 0 is a plain float) come back
    as full-shape float arrays, and matrices match the metric snapshot."""
    chart = plane_chart().charts[0]
    X = random_nodes(chart, rng, 50)
    frame = chart.frame(X[0], X[1])
    x = frame.values(frame.x)
    assert x.shape == (3, 50) and x.dtype == float
    assert np.all(x[2] == 0.0)
    assert np.array_equal(x[:2], X)
    assert np.array_equal(frame.values(frame.P), frame.metric().P)


def test_frame_values_time_partial(sphere, rng):
    """The chart velocity ``x_t`` is zero on the static sphere and x(0) on
    the dilating sphere x(t) = (1 + t) x(0); a ``t`` partial is no read."""
    dilating = moving_atlas(sphere, motion_builtin("dilation"))
    for base, moving in zip(sphere.charts, dilating.charts):
        X = random_nodes(base, rng, 100)
        static = base.frame(X[0], X[1], 0.4)
        assert np.array_equal(static.x_t, np.zeros((3, 100)))
        frame = moving.frame(X[0], X[1], 0.4)
        assert np.array_equal(frame.x_t, metric_at(base, X).x)
        with pytest.raises(ValueError):
            frame.values(frame.x, "t")


def test_frame_duals_carry_chart_partials_only(sphere, rng):
    """Time is a plain parameter of a frame: no dual it makes has a ``t``
    part, on a rotating chart and for a ``t``-dependent field."""
    chart = moving_atlas(sphere, motion_builtin("rotation")).charts[0]
    X = random_nodes(chart, rng, 20)
    frame = chart.frame(X[0], X[1], 0.3)
    f = frame.eval_scalar(ScalarField("x1*t + sin(x3 - t)"))
    for q in frame.x + [f]:
        assert q.parts and set(q.parts) <= {"X1", "X2"}


@pytest.mark.parametrize("surface", ["sphere", "torus", "dilating", "rotating",
                                     "varied"])
def test_metric_records_equal_frame_values(surface, sphere, sphere_rule, torus,
                                           torus_rule):
    """``frame.metric()`` and the frame-free ``metric_at`` equal the dual
    frame's own values bit for bit, field by field, on the default rules:
    the numeric kernel repeats the dual arithmetic (a quotient is a * (1/b))."""
    dilating = moving_atlas(sphere, motion_builtin("dilation"))
    atlas, rule, t = {
        "sphere": (sphere, sphere_rule, 0.0),
        "torus": (torus, torus_rule, 0.0),
        "dilating": (dilating, sphere_rule, 0.2),
        "rotating": (moving_atlas(sphere, motion_builtin("rotation")),
                     sphere_rule, 0.3),
        "varied": (varied_atlas(dilating, time_window_variation(
            ["x2*x3", "sin(x1) - x3", "x1*x2 + 0.5"], 0.4), 3e-3),
            sphere_rule, 0.2),
    }[surface]
    for chart, (X, _, _) in zip(atlas.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], t)
        for st in (frame.metric(), metric_at(chart, X, t)):
            assert set(vars(st)) == SNAPSHOT_FIELDS
            for name in METRIC_FIELDS:
                assert np.array_equal(getattr(st, name),
                                      frame.values(getattr(frame, name))), name


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("surface", ["sphere", "torus", "dilation",
                                     "rotation"])
def test_frame_metric_equals_chart_metric(surface, t, sphere, torus):
    """``frame.metric()`` reads the frame's own geometry and ``Chart.metric``
    builds it from plain values: both give the same MetricState, bit for
    bit, on every chart."""
    atlas = {"sphere": sphere, "torus": torus}.get(surface) or moving_atlas(
        sphere, motion_builtin(surface))
    rule = QuadratureRule(atlas, order=24, periodic_order=48)
    for chart, (X, _, _) in zip(atlas.charts, rule.nodes):
        st = chart.frame(X[0], X[1], t).metric()
        ref = chart.metric(X[0], X[1], t)
        for name in METRIC_FIELDS:
            assert np.array_equal(getattr(st, name), getattr(ref, name)), name


@pytest.mark.parametrize("surface", ["sphere", "torus"])
def test_frame_shares_symmetric_entries(surface, request):
    """A dual frame builds g_01 and each off-diagonal P_ij once, and keeps
    g^ab as plain arrays equal to metric_at's."""
    atlas = moving_atlas(request.getfixturevalue(surface),
                         motion_builtin("rotation"))
    rule = QuadratureRule(atlas, order=24, periodic_order=48)
    for chart, (X, _, _) in zip(atlas.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], 0.3)
        st = metric_at(chart, X, 0.3)
        assert frame.gram[1][0] is frame.gram[0][1]
        for i in range(3):
            for j in range(3):
                assert frame.P[j][i] is frame.P[i][j]
        for a in range(2):
            for b in range(2):
                entry = frame.inv_gram[a][b]
                assert type(entry) is np.ndarray
                assert np.array_equal(entry, st.inv_gram[a, b])


def test_degenerate_chart_raises_singular_metric():
    """J = 4 X2^2 vanishes on X2 = 0: frames and metric_at refuse the chart
    before any square root or reciprocal of J, so no warning is emitted."""
    chart = Chart(["X1", "X2*X2", "0"], domain=((-1.0, 1.0), (-1.0, 1.0)))
    X = np.array([[0.3, -0.2, 0.5], [0.5, 0.0, -0.4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric):
            chart.frame(X[0], X[1])
        with pytest.raises(SingularMetric):
            metric_at(chart, X)
        with pytest.raises(OutOfDomain):
            metric_at(chart, X + 2.0)
        assert np.all(metric_at(chart, X[:, [0, 2]]).J > 0)


def _eager_geometry(g, orientation):
    """Every derived field of tangents ``g`` (2, 3, ...) at once, in the
    order and by the formulas of the former eager plain-array kernel."""
    g01 = g[0][0] * g[1][0] + g[0][1] * g[1][1] + g[0][2] * g[1][2]
    g00 = g[0][0] * g[0][0] + g[0][1] * g[0][1] + g[0][2] * g[0][2]
    g11 = g[1][0] * g[1][0] + g[1][1] * g[1][1] + g[1][2] * g[1][2]
    J = g00 * g11 - g01 * g01
    sqrtJ = np.sqrt(J)
    r = 1.0 / sqrtJ
    c = [g[0][1] * g[1][2] - g[0][2] * g[1][1],
         g[0][2] * g[1][0] - g[0][0] * g[1][2],
         g[0][0] * g[1][1] - g[0][1] * g[1][0]]
    n = np.array([(orientation * ci) * r for ci in c])
    P = np.array([[(1.0 if i == j else 0.0) - n[i] * n[j] for j in range(3)]
                  for i in range(3)])
    return {"gram": np.array([[g00, g01], [g01, g11]]), "J": J,
            "sqrtJ": sqrtJ, "n": n, "P": P}


def test_flow_map_metric_equals_eager_values(sphere):
    """A flow-map snapshot holds x, g_a, g^ab and sqrt J only; g_ab, J, n
    and P are built on first read, bit for bit equal to an eager build."""
    state = advance_flow(FlowState.create(sphere, resolution=(16, 32)),
                         motion_builtin("dilation"), 0.02)
    for xp, grid, chart in zip(state.xpad, state.grids, sphere.charts):
        st = evolving_surface._geometry_from_positions(xp, grid,
                                                       chart.orientation)
        assert set(vars(st)) == SNAPSHOT_FIELDS
        ref = _eager_geometry(st.g, chart.orientation)
        for name in ("sqrtJ", "gram", "J", "n", "P"):
            assert np.array_equal(getattr(st, name), ref[name]), name
