import math

import numpy as np
import pytest

from surfcalc import surface_ops, variational_checks
from surfcalc.autodiff import value_of
from surfcalc.chart_geometry import ChartFrame, QuadratureRule
from surfcalc.fields import (ScalarField, random_scalar_field,
                             random_vector_field)
from surfcalc.fluid_models import (CoefficientFields, FluidFields,
                                   residual_tangential, thermo_quantities)
from surfcalc.surface_ops import (dissipation_density, grad_scalar_dual,
                                  ibp_residuals, identity_residuals,
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
    for chart, (X, w, psi) in zip(sphere.charts, sphere_rule.nodes):
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
    for chart, (X, w, psi) in zip(sphere.charts, sphere_rule.nodes):
        frame = chart.frame(X[0], X[1])
        st = frame.metric()
        g = np.stack([np.broadcast_to(value_of(c), frame.shape)
                      for c in grad_scalar_dual("x3", frame)])
        total += float(np.sum(w * psi * np.einsum("i...,i...->...", g, g)
                              * st.sqrtJ))
    exact = 8 * math.pi / 3
    assert abs(total - exact) / exact <= 1e-8


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
    phi, and g, mu, lam (3 + 1 + 3 + 9 + 9 + 3 = 28 evaluations)."""
    frame = frame_at(sphere, rng, 50)
    seen = []
    original = ChartFrame.eval_scalar

    def recording(self, f):
        seen.append(f)
        return original(self, f)

    monkeypatch.setattr(ChartFrame, "eval_scalar", recording)
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
