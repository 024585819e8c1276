import math

import numpy as np
import pytest

from surfcalc import surface_ops, variational_checks
from surfcalc.autodiff import value_of
from surfcalc.chart_geometry import ChartFrame, QuadratureRule
from surfcalc.evolving_surface import motion_builtin, moving_atlas
from surfcalc.fields import (ScalarField, random_scalar_field,
                             random_vector_field)
from surfcalc.fluid_models import (CoefficientFields, FluidFields,
                                   residual_tangential, thermo_quantities)
from surfcalc.surface_ops import (_AMBIENT, _contract, _jac_dual, _Point,
                                  dissipation_density,
                                  grad_scalar_dual, ibp_residuals,
                                  identity_residuals, material_residuals,
                                  strain_dual, stress_dual,
                                  surface_divergence_vec,
                                  surface_divergence_vec_chart,
                                  surface_gradient, surface_laplacian)
from surfcalc.variational_checks import dissipation_work_energy
from conftest import random_nodes


def frame_at(atlas, rng, n=200, m=0, t=0.0):
    chart = atlas.charts[m]
    X = random_nodes(chart, rng, n)
    return chart.frame(X[0], X[1], t)


def test_identity_residuals_random_families(sphere, torus, rng):
    for atlas in (sphere, torus):
        for _ in range(3):
            f = random_scalar_field(rng, time_dependent=True)
            v = random_vector_field(rng, time_dependent=True)
            phi = random_vector_field(rng)
            g = random_scalar_field(rng)
            frame = frame_at(atlas, rng, 300)
            res = identity_residuals(frame, f, v, phi, g, 1.0, 1.0)
            for key, val in res.items():
                assert val <= 1e-9, (atlas.name, key, val)


def test_divergence_routes_agree(sphere, rng):
    v = random_vector_field(rng)
    frame = frame_at(sphere, rng, 200)
    st = frame.metric()
    a = surface_divergence_vec(v, st)
    b = value_of(surface_divergence_vec_chart(v, frame))
    assert np.max(np.abs(a - b)) <= 1e-10


def test_gradient_routes_agree(sphere, rng):
    f = random_scalar_field(rng)
    frame = frame_at(sphere, rng, 200)
    st = frame.metric()
    a = surface_gradient(f, st)
    b = np.stack([np.broadcast_to(value_of(c), frame.shape)
                  for c in grad_scalar_dual(f, frame)])
    assert np.max(np.abs(a - b)) <= 1e-10


def test_position_and_normal_divergence_on_sphere(sphere, rng):
    # div of the position is 2 and div of the outward normal is 2 (= -H)
    frame = frame_at(sphere, rng, 200)
    div_x = surface_divergence_vec_chart(["x1", "x2", "x3"], frame)
    assert np.max(np.abs(value_of(div_x) - 2.0)) <= 1e-10
    st = frame.metric()
    jac = np.zeros((3, 3) + frame.shape)
    div_n = np.einsum("ij...,ij...->...", st.P, np.broadcast_to(
        np.eye(3).reshape(3, 3, *([1] * len(frame.shape))), jac.shape))
    assert np.max(np.abs(div_n - (-frame.H))) <= 1e-10


def test_laplacian_of_linear_harmonic(sphere, rng):
    # x3 restricted to the unit sphere is an eigenfunction: lap = -2 x3
    frame = frame_at(sphere, rng, 200)
    st = frame.metric()
    lap = value_of(surface_laplacian("x3", frame))
    assert np.max(np.abs(lap + 2.0 * st.x[2])) <= 1e-9


def test_stress_at_rest_is_isotropic_tension(sphere):
    # v = 0, sigma = 1: S = -P; at the north pole P = diag(1, 1, 0)
    chart = sphere.charts[0]
    (lo1, hi1), (lo2, hi2) = chart.domain
    X1 = np.array([0.5 * (lo1 + hi1)])
    X2 = np.array([0.5 * (lo2 + hi2)])
    frame = chart.frame(X1, X2)
    st = frame.metric()
    S, Dproj = stress_dual(("0", "0", "0"), 1.0, 1.0, 1.0, frame)[:2]
    assert np.max(np.abs(frame.values(S) + st.P)) <= 1e-12
    assert np.max(np.abs(frame.values(Dproj))) <= 1e-12


def test_tensor_invariants(sphere, rng):
    frame = frame_at(sphere, rng, 150)
    st = frame.metric()
    v = random_vector_field(rng)
    S, Dproj, divv, mu_d, lam_d, _ = stress_dual(
        v, random_scalar_field(rng), 1.0, 0.5, frame)
    # projected strain and stress are tangential and symmetric
    for M in (frame.values(Dproj), frame.values(S)):
        assert np.max(np.abs(np.einsum("ij...,j...->i...", M, st.n))) <= 1e-12
        assert np.max(np.abs(M - np.swapaxes(M, 0, 1))) <= 1e-12
    ed = frame.values(dissipation_density(Dproj, divv, mu_d, lam_d))
    assert np.all(ed >= -1e-14)


def test_dilation_strain_and_dissipation(sphere, sphere_rule):
    # v = x on the unit sphere: D_proj = P, |D_proj|^2 = 2, div v = 2
    total = 0.0
    charts = sphere.charts_for(sphere_rule)
    for chart, (X, w, psi) in zip(charts, sphere_rule.nodes):
        frame = chart.frame(X[0], X[1])
        Dproj, divv = (frame.values(q)
                       for q in strain_dual(("x1", "x2", "x3"), frame))
        st = frame.metric()
        norm2 = np.einsum("ij...,ij...->...", Dproj, Dproj)
        assert np.max(np.abs(norm2 - 2.0)) <= 1e-10
        assert np.max(np.abs(divv - 2.0)) <= 1e-10
        total += float(np.sum(w * psi * norm2 * st.sqrtJ))
    assert abs(total - 8 * math.pi) / (8 * math.pi) <= 1e-8


def test_gradient_energy_oracle(sphere, sphere_rule):
    # int |grad of x3|^2 over the unit sphere = 8 pi / 3
    total = 0.0
    charts = sphere.charts_for(sphere_rule)
    for chart, (X, w, psi) in zip(charts, sphere_rule.nodes):
        frame = chart.frame(X[0], X[1])
        st = frame.metric()
        g = np.stack([np.broadcast_to(value_of(c), frame.shape)
                      for c in grad_scalar_dual("x3", frame)])
        total += float(np.sum(w * psi * np.einsum("i...,i...->...", g, g)
                              * st.sqrtJ))
    exact = 8 * math.pi / 3
    assert abs(total - exact) / exact <= 1e-8


def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def test_strain_from_the_normal_matches_the_projector_route(sphere, torus,
                                                            rng):
    """strain_dual's A - n w^T - w n^T and tr A - c equal the projector
    route P sym(jac) P and tr(P jac) to rounding, values and both
    X-partials; the strain and the stress are symmetric by identity and
    annihilate the normal."""
    for atlas in (sphere, torus):
        for _ in range(3):
            frame = frame_at(atlas, rng, 200)
            v = random_vector_field(rng)
            jac, P = _jac_dual(v, frame), frame.P
            sym = [[0.5 * (jac[i][j] + jac[j][i]) for j in range(3)]
                   for i in range(3)]
            want = (_matmul(P, _matmul(sym, P)), _contract(P, jac))
            got = strain_dual(v, frame)
            for wrt in (None, "X1", "X2"):
                for a, b in zip(got, want):
                    err = np.max(np.abs(frame.values(a, wrt)
                                        - frame.values(b, wrt)))
                    assert err <= 1e-14, (atlas.name, wrt, err)
            S, Dproj = stress_dual(v, random_scalar_field(rng), 1.0, 0.5,
                                   frame, jac)[:2]
            n = frame.values(frame.n)
            for M in (Dproj, S):
                assert all(M[j][i] is M[i][j]
                           for i in range(3) for j in range(3))
                Mn = np.einsum("ij...,j...->i...", frame.values(M), n)
                assert np.max(np.abs(Mn)) <= 1e-14, atlas.name


def test_joint_jacobian_equals_one_evaluation_per_partial(sphere, torus, rng):
    """The nine partials read in one evaluation equal nine eval_scalar
    calls bit for bit, values and partials."""
    for atlas in (sphere, torus):
        for _ in range(3):
            frame = frame_at(atlas, rng, 100)
            v = random_vector_field(rng)
            jac = _jac_dual(v, frame)
            for i, c in enumerate(v.comp):
                for j, var in enumerate(_AMBIENT):
                    one = frame.eval_scalar(c.d(var))
                    for wrt in (None, "X1", "X2"):
                        assert np.array_equal(frame.values(jac[i][j], wrt),
                                              frame.values(one, wrt))


def test_dissipation_density_routes(sphere, torus, rng):
    """The dual dissipation density against the ambient projector route:
    P sym(grad v) P and tr(P grad v) from the plain Jacobian of v."""
    mu = ScalarField(1.0 + random_scalar_field(rng, 0.3).expr)
    lam = ScalarField(0.5 + random_scalar_field(rng, 0.3).expr)
    for atlas in (sphere, torus):
        frame = frame_at(atlas, rng, 100)
        st = frame.metric()
        v = random_vector_field(rng)
        Dproj, divv = strain_dual(v, frame)
        a = frame.values(dissipation_density(
            Dproj, divv, frame.eval_scalar(mu), frame.eval_scalar(lam)))

        jac = v.jacobian(st.x)
        sym = 0.5 * (jac + np.swapaxes(jac, 0, 1))
        Dp = np.einsum("ij...,jk...,kl...->il...", st.P, sym, st.P)
        div_v = np.einsum("ij...,ij...->...", st.P, jac)
        b = (2.0 * mu.value(st.x) * np.einsum("ij...,ij...->...", Dp, Dp)
             + lam.value(st.x) * div_v ** 2)
        assert np.max(np.abs(a - b)) <= 1e-12, atlas.name


def test_each_strain_built_once(sphere, monkeypatch, rng):
    """The stress-path callers build the strain of one velocity on one frame
    once: a second build would be a second code path for the same tensor."""
    calls = []
    original = surface_ops.strain_dual

    def counting(v, frame, jac=None):
        calls.append(v)
        return original(v, frame, jac)

    monkeypatch.setattr(surface_ops, "strain_dual", counting)
    monkeypatch.setattr(variational_checks, "strain_dual", counting)
    frame = frame_at(sphere, rng, 50, t=0.3)
    fields = FluidFields(rho="2 + 0.3*x3", v=random_vector_field(rng),
                         sigma=random_scalar_field(rng), theta="2 + x1")
    coeffs = CoefficientFields(mu=1.0, lam=0.5)
    rule = QuadratureRule(sphere, order=8, periodic_order=16)
    for name, run, frames in (
            ("thermo_quantities",
             lambda: thermo_quantities(fields, coeffs, frame), 1),
            ("residual_tangential",
             lambda: residual_tangential(fields, coeffs, frame), 1),
            ("dissipation_work_energy",
             lambda: dissipation_work_energy(fields.v, 0.0, 1.0, 0.5, 1.0,
                                             ("0", "0", "0"), sphere, rule),
             len(sphere.charts))):
        calls.clear()
        run()
        assert len(calls) == frames, (name, len(calls))


def test_identity_residuals_evaluate_each_field_once(sphere, rng,
                                                     monkeypatch):
    """identity_residuals evaluates each dual field once per frame: the
    ambient partials of f, the components of v, one Jacobian each of v and
    phi, and g, mu, lam (3 + 1 + 3 + 9 + 9 + 3 = 28 evaluations).  Fields
    are counted at ChartFrame.eval_scalars, which eval_scalar and the joint
    Jacobian both go through."""
    frame = frame_at(sphere, rng, 50)
    seen = []
    original = ChartFrame.eval_scalars

    def recording(self, fields):
        seen.extend(fields)
        return original(self, fields)

    monkeypatch.setattr(ChartFrame, "eval_scalars", recording)
    identity_residuals(frame, "x1*x3 + 0.2*x2", ("x2*x3", "sin(x1)", "x1*x1"),
                       ("0.4*x3", "cos(x2)", "0.2 - x1*x2"), "1 + 0.1*x3",
                       "1 + 0.2*x1", "0.5 + 0.1*x2")
    assert len(seen) == 28
    assert len({id(f) for f in seen}) == len(seen)


def test_integration_by_parts(sphere, torus, sphere_rule, torus_rule, rng):
    for atlas, rule in ((sphere, sphere_rule), (torus, torus_rule)):
        for k in range(10):
            f = random_scalar_field(rng)
            phi = random_vector_field(rng)
            r_comp, r_div = ibp_residuals(f, phi, atlas, rule, m=k % 3)
            assert r_comp <= 1e-6, (atlas.name, k, r_comp)
            assert r_div <= 1e-6, (atlas.name, k, r_div)


# -- time derivatives on a moving frame ----------------------------------------

MOTIONS = [("rotation", {"rate": 0.7}), ("dilation", {})]


def moving_frame(atlas, rng, name, params, m=0, n=200, t=0.3):
    motion = motion_builtin(name, **params)
    chart = moving_atlas(atlas, motion).charts[m]
    X = random_nodes(chart, rng, n)
    return chart.frame(X[0], X[1], t), motion.velocity


@pytest.mark.parametrize("name, params", MOTIONS)
def test_material_residuals_hold_on_moving_charts(sphere, torus, rng, name,
                                                  params):
    """Every row of material_residuals is at rounding level on a chart that
    moves with the velocity, for a time-dependent f."""
    for atlas in (sphere, torus):
        for m in range(len(atlas.charts)):
            f = random_scalar_field(rng, time_dependent=True)
            frame, vel = moving_frame(atlas, rng, name, params, m)
            res = material_residuals(frame, f, vel)
            assert len(res) == 3
            for key, val in res.items():
                assert val <= 1e-10, (atlas.name, name, key, val)


def test_static_chart_fails_velocity_consistency(sphere, rng):
    """A chart that does not move with v is caught by its own row."""
    vel = motion_builtin("rotation", rate=0.7).velocity
    frame = frame_at(sphere, rng, 200, t=0.3)
    f = random_scalar_field(rng, time_dependent=True)
    assert material_residuals(frame, f, vel)["chart_velocity_consistency"] >= 0.1


def test_material_derivative_in_place_of_normal_one_is_caught(
        sphere, rng, monkeypatch):
    """With D_t in place of D_t^N the scalar commutation row fails: it
    misses the tangential advection (v.grad_G) f."""
    frame, vel = moving_frame(sphere, rng, *MOTIONS[0])
    f = random_scalar_field(rng, time_dependent=True)
    monkeypatch.setattr(_Point, "DtN", _Point.Dt)
    res = material_residuals(frame, f, vel)
    assert res["transport_commutation_scalar"] > 1e-3


def _dtn_product_momentum_loop(frame, rho, v, i):
    """D_t^N(rho v_i) as residual_conservative's momentum loop wrote it."""
    x, t = frame.values(frame.x), frame.t
    n = frame.values(frame.n)
    vval = v.value(x, t)
    vn = np.einsum("i...,i...->...", vval, n)
    r, jac, grad_rho = rho.value(x, t), v.jacobian(x, t), rho.grad(x, t)
    grad_rvi = r * jac[i] + vval[i] * grad_rho
    return (rho.dt(x, t) * vval[i] + r * v.comp[i].dt(x, t)
            + vn * np.einsum("j...,j...->...", n, grad_rvi))


def _dtn_product_material(frame, f, v, i):
    """D_t^N(f v_i) as material_residuals' momentum identity wrote it."""
    xarr, t = frame.values(frame.x), frame.t
    vval, nval = v.value(xarr, t), frame.values(frame.n)
    fval, gradf, ft = f.value(xarr, t), f.grad(xarr, t), f.dt(xarr, t)
    vn = np.einsum("i...,i...->...", vval, nval)
    jac, vt = v.jacobian(xarr, t), v.dt(xarr, t)
    grad_fvi = fval * jac[i] + vval[i] * gradf
    dt_fvi = ft * vval[i] + fval * vt[i]
    return dt_fvi + vn * np.einsum("j...,j...->...", nval, grad_fvi)


def test_dtn_product_is_both_inline_forms(sphere, torus, rng):
    """_Point.DtN_product runs the IEEE operations of both forms it
    replaced, so its values equal theirs bit for bit."""
    for atlas in (sphere, torus):
        for name, params in MOTIONS:
            frame, _ = moving_frame(atlas, rng, name, params)
            f = random_scalar_field(rng, time_dependent=True)
            v = random_vector_field(rng, time_dependent=True)
            pt = _Point(frame, v)
            for i in range(3):
                got = pt.DtN_product(f, v, i)
                assert np.array_equal(got, _dtn_product_momentum_loop(
                    frame, f, v, i))
                assert np.array_equal(got, _dtn_product_material(
                    frame, f, v, i))


def test_material_acceleration_builds_no_projector(sphere, rng):
    """D_t v needs neither the frame's dual projector nor n, P or v.n of the
    point data; they are built on first read."""
    frame, vel = moving_frame(sphere, rng, "dilation", {})
    pt = _Point(frame, vel)
    pt.Dt_vec(vel)
    assert "P" not in vars(frame)
    assert not {"n", "P", "vn"} & set(vars(pt))
    pt.DtN(ScalarField("x1*t"))
    assert {"n", "vn"} <= set(vars(pt)) and "P" not in vars(pt)
