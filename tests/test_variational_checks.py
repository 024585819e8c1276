import math

import numpy as np
import pytest

from surfcalc import variational_checks
from surfcalc.chart_geometry import Chart, QuadratureRule
from surfcalc.evolving_surface import motion_builtin, moving_atlas, worst_of
from surfcalc.fields import ScalarField, VectorField, as_scalar_field, \
    as_vector_field, random_scalar_field, random_vector_field
from surfcalc.fluid_models import pressure_law_builtin
from surfcalc.pde_solvers import flux_law_builtin
from surfcalc.surface_ops import (div_matrix_dual, div_vector_dual,
                                  grad_scalar_dual, stress_dual)
from surfcalc.variational_checks import (DegenerateGradient, VariationField,
                                         action_integral,
                                         check_action_variation,
                                         check_dissipation_work_variation,
                                         check_flux_variation,
                                         dissipation_work_energy,
                                         gradient_flux_energy,
                                         jacobian_variation_residual,
                                         tangential_pairing_residual,
                                         time_window_variation, varied_atlas)
from surfcalc.variational_checks import (_kernel_gradient_residual,
                                         _ladder_report, _plain_chart_data,
                                         _shifted_field, _shifted_velocity)


def test_time_window_variation_vanishes_at_endpoints(sphere, sphere_rule_fast):
    var = time_window_variation(("x1", "-x3", "0.5"), T=0.4)
    assert var.initial_residual(sphere, sphere_rule_fast, t0=0.0) <= 1e-14
    assert var.initial_residual(sphere, sphere_rule_fast, t0=0.4) <= 1e-13
    mid = var.initial_residual(sphere, sphere_rule_fast, t0=0.2)
    assert mid > 1e-3


def test_varied_atlas_displaces_positions(sphere):
    var = VariationField(("x3", "0", "x1"))
    eps = 1e-2
    moved = varied_atlas(sphere, var, eps)
    chart0, chartV = sphere.charts[0], moved.charts[0]
    X1, X2 = np.array([0.3]), np.array([1.2])
    base = chart0.position(X1, X2, 0.0)
    shifted = chartV.position(X1, X2, 0.0)
    z = np.stack([base[2], np.zeros_like(base[0]), base[0]])
    assert np.allclose(shifted, base + eps * z)


def test_translation_action_oracle(torus, torus_rule):
    # constant speed, invariant area element: A = -|c|^2/2 * area * T
    motion = motion_builtin("translation", c=(0.3, -0.2, 0.1))
    T = 0.5
    a = action_integral(torus, motion, 1.0, T, rule=torus_rule, nt=16)
    area = 4 * math.pi ** 2 * 2.0 * 0.5
    exact = -0.5 * (0.3 ** 2 + 0.2 ** 2 + 0.1 ** 2) * area * T
    assert abs(a - exact) / abs(exact) <= 1e-10


def test_static_action_is_zero(torus, torus_rule):
    a = action_integral(torus, motion_builtin("static"), 1.0, 0.5,
                        rule=torus_rule, nt=8)
    assert abs(a) <= 1e-12


def test_dilating_sphere_barotropic_action_oracle(sphere, sphere_rule):
    """Closed-form action of the dilating unit sphere with unit initial
    density and a quadratic pressure law:
    -4 pi (T/2 + 1/(1+T) - 1)."""
    motion = motion_builtin("dilation")
    law = pressure_law_builtin("quadratic")
    T = 0.4
    a = action_integral(sphere, motion, 1.0, T, law=law,
                        rule=sphere_rule, nt=64)
    exact = -4 * math.pi * (T / 2 + 1.0 / (1 + T) - 1.0)
    assert abs(a - exact) / abs(exact) <= 1e-8


def test_action_variation_ladder_on_torus(torus, torus_rule):
    motion = motion_builtin("dilation")
    law = pressure_law_builtin("quadratic")
    T = 0.4
    var = time_window_variation(
        ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2"), T)
    rep = check_action_variation(torus, motion, var, rho0=1.0, T=T, law=law,
                                 rule=torus_rule, nt=20)
    assert not rep["floor_limited"]
    assert abs(rep["slope"] - 2.0) <= 0.1
    assert rep["extrapolated_error"] <= 1e-6
    # errors decrease along the ladder
    assert rep["errors"][0] > rep["errors"][-1]


def test_ladder_fits_only_rungs_above_their_noise():
    # fd = 1 + e^2/3 exactly; the second entry (sum of |terms|) sets the noise
    def ladder(magnitude):
        return _ladder_report(lambda e: (e + e ** 3 / 3.0, magnitude),
                              (1e-2, 3e-3, 1e-3, 3e-4), analytic=1.0)

    quiet = ladder(1.0)
    assert abs(quiet["slope"] - 2.0) <= 1e-6 and not quiet["floor_limited"]
    one_rung = ladder(1e8)   # only eps = 1e-2 is above 10x its noise
    assert one_rung["slope"] is None and not one_rung["floor_limited"]
    drowned = ladder(1e12)
    assert drowned["slope"] is None and drowned["floor_limited"]


def test_dissipation_work_variation(sphere, sphere_rule, rng):
    v = VectorField(("x2*x3", "sin(x1)", "x1*x1 - 0.3*x2"))
    phi = VariationField(("0.4*x3 + x1*x2", "cos(x2)", "0.2 - x1"))
    rep = check_dissipation_work_variation(
        v, "x3*x1 + 1", 1.0, 0.5, "2 + 0.5*x3",
        ("0.1", "-0.2*x3", "0.3*x2"), phi, sphere, rule=sphere_rule)
    assert rep["error"] <= 1e-7


def test_pressure_only_work_variation(sphere, sphere_rule):
    """With no viscosity, unit tension, and no force, the variation reduces
    to the curvature term: checked at tight tolerance on the dense rule."""
    phi = VariationField(("0.4*x3 + x1*x2", "cos(x2)", "0.2 - x1"))
    rep = check_dissipation_work_variation(
        ("0", "0", "0"), 1.0, 0.0, 0.0, 1.0, ("0", "0", "0"),
        phi, sphere, rule=sphere_rule)
    assert rep["error"] <= 1e-8


def test_tangential_variation(sphere, sphere_rule):
    phi = VariationField(("-x2", "x1", "0"), tangential=True)
    rep = check_dissipation_work_variation(
        ("x2*x3", "sin(x1)", "x1*x1"), "x3", 1.0, 0.5, 1.0,
        ("0.1", "0", "0"), phi, sphere, rule=sphere_rule)
    assert rep["tangency_residual"] <= 1e-12
    assert rep["error"] <= 1e-7


def test_flux_variation_linear_is_exact(torus, torus_rule):
    rep = check_flux_variation("x3", flux_law_builtin("linear"),
                               "0.5*x1 + x2*x3", torus, rule=torus_rule)
    assert rep["linear"]
    assert max(rep["errors"]) <= 1e-8
    assert rep["kernel_gradient_residual"] <= 1e-10


def test_flux_variation_nonlinear_slope(torus, torus_rule):
    rep = check_flux_variation("x1 + 2*x3", flux_law_builtin("quadratic"),
                               "0.5*x1 + x2*x3", torus, rule=torus_rule)
    assert not rep["linear"]
    assert abs(rep["slope"] - 2.0) <= 0.1
    assert rep["extrapolated_error"] <= 1e-6


def test_flux_variation_degenerate_gradient(torus, torus_rule):
    with pytest.raises(DegenerateGradient):
        check_flux_variation(1.0, flux_law_builtin("quadratic"), "x1",
                             torus, rule=torus_rule)


def test_jacobian_variation_identity(sphere):
    motion = motion_builtin("dilation")
    var = time_window_variation(
        ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2"), 0.4)
    res = jacobian_variation_residual(sphere, motion, var, t=0.2)
    assert res <= 1e-7


def test_tangential_pairing(sphere, sphere_rule_fast, rng):
    f = random_vector_field(rng)
    z = random_vector_field(rng)
    assert tangential_pairing_residual(f, z, sphere,
                                       sphere_rule_fast) <= 1e-10


# -- one frame per chart: the ladders against their per-rung routes --------------


def _count_frames(monkeypatch):
    calls = []
    original = Chart.frame

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Chart, "frame", counting)
    return calls


def _flux_ladder_by_rung(f, flux, phi, atlas, rule, eps_list):
    """check_flux_variation as one frame per chart per rung: the analytic
    side on its own frames, each rung through gradient_flux_energy."""
    f, phi = as_scalar_field(f), as_scalar_field(phi)
    analytic = 0.0
    kernel_res = 0.0
    for chart, (X, w, psi) in zip(atlas.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], 0.0)
        st = frame.metric()
        gf = grad_scalar_dual(f, frame)
        zeta_d = sum(c * c for c in gf)
        q = [flux.d_expr.evaluate({"z": zeta_d}) * gf[i] for i in range(3)]
        divq = div_vector_dual(q, frame)
        analytic += float(np.sum(w * psi * st.sqrtJ * divq * phi.value(st.x, 0.0)))
        kernel_res = worst_of(kernel_res, _kernel_gradient_residual(
            flux, frame.values(gf)))
    report = _ladder_report(
        lambda e: gradient_flux_energy(_shifted_field(f, phi, e), flux, atlas,
                                       rule, abs_sum=True),
        eps_list, analytic)
    report["kernel_gradient_residual"] = kernel_res
    return report


@pytest.mark.parametrize("surface", ["sphere", "torus"])
@pytest.mark.parametrize("law", ["linear", "quadratic"])
def test_flux_ladder_on_one_frame_is_bit_identical(surface, law, request,
                                                   sphere_rule_fast,
                                                   torus_rule, monkeypatch):
    atlas = request.getfixturevalue(surface)
    rule = sphere_rule_fast if surface == "sphere" else torus_rule
    flux = flux_law_builtin(law)
    eps = (1e-2, 3e-3, 1e-3)
    oracle = _flux_ladder_by_rung("x1 + 2*x3", flux, "0.5*x1 + x2*x3",
                                  atlas, rule, eps)
    frames = _count_frames(monkeypatch)
    rep = check_flux_variation("x1 + 2*x3", flux, "0.5*x1 + x2*x3", atlas,
                               rule=rule, eps_list=eps)
    assert len(frames) == len(atlas.charts)
    for key in ("fd", "errors", "noise", "slope", "extrapolated", "analytic",
                "kernel_gradient_residual"):
        assert rep[key] == oracle[key], key


def test_dissipation_ladder_on_one_frame_is_bit_identical(sphere,
                                                          sphere_rule_fast,
                                                          monkeypatch):
    v = VectorField(("x2*x3", "sin(x1)", "x1*x1 - 0.3*x2"))
    sigma, rho, F = "x3*x1 + 1", "2 + 0.5*x3", ("0.1", "-0.2*x3", "0.3*x2")
    phi = as_vector_field(("0.4*x3 + x1*x2", "cos(x2)", "0.2 - x1"))
    rule, eps = sphere_rule_fast, 1e-3
    energies = [dissipation_work_energy(_shifted_velocity(v, phi, e), sigma,
                                        1.0, 0.5, rho, F, sphere, rule)
                for e in (eps, -eps)]
    analytic = 0.0
    for chart, (X, w, psi) in zip(sphere.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], 0.0)
        st = frame.metric()
        S = stress_dual(v, sigma, 1.0, 0.5, frame)[0]
        force = (div_matrix_dual(S, frame) + as_scalar_field(rho).value(st.x)
                 * as_vector_field(F).value(st.x))
        kernel = np.einsum("i...,i...->...", force, phi.value(st.x))
        analytic += float(np.sum(w * psi * st.sqrtJ * kernel))
    frames = _count_frames(monkeypatch)
    rep = check_dissipation_work_variation(v, sigma, 1.0, 0.5, rho, F,
                                           VariationField(phi), sphere,
                                           rule=rule, eps=eps)
    assert len(frames) == len(sphere.charts)
    assert rep["fd"] == (energies[0] - energies[1]) / (2.0 * eps)
    assert rep["analytic"] == analytic


def test_action_integral_reads_reference_time_once(torus, torus_rule,
                                                   monkeypatch):
    """The t = 0 chart data serve both the conserved density weights and the
    first Simpson node; the value is that of evaluating them apart."""
    motion = motion_builtin("dilation")
    law = pressure_law_builtin("quadratic")
    var = time_window_variation(("x3", "-x1", "0.5*x2"), 0.4)
    rho0 = ScalarField("1 + 0.2*x3")
    nt = 4
    mov = varied_atlas(moving_atlas(torus, motion), var, 3e-3)
    ts = np.linspace(0.0, 0.4, nt + 1)
    wt = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) * (0.4 / (3.0 * nt))
    rho0t = []
    for chart, (X, _, _) in zip(mov.charts, torus_rule.nodes):
        x0, _, _, sJ0 = _plain_chart_data(chart, X, 0.0)
        rho0t.append(rho0.value(x0, 0.0) * sJ0)
    total = magnitude = 0.0
    for tk, wk in zip(ts, wt):
        for m, (chart, (X, w, psi)) in enumerate(zip(mov.charts,
                                                     torus_rule.nodes)):
            _, xt, _, sJ = _plain_chart_data(chart, X, tk)
            kernel = (0.5 * rho0t[m] * np.einsum("i...,i...->...", xt, xt)
                      - law.p(rho0t[m] / sJ) * sJ)
            terms = w * psi * kernel
            total -= wk * float(np.sum(terms))
            magnitude += wk * float(np.sum(np.abs(terms)))

    calls = []
    original = variational_checks._plain_chart_data

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(variational_checks, "_plain_chart_data", counting)
    got = action_integral(torus, motion, rho0, 0.4, law=law, rule=torus_rule,
                          nt=nt, variation=var, eps=3e-3, abs_sum=True)
    assert len(calls) == (nt + 1) * len(torus.charts)
    assert got == (total, magnitude)
