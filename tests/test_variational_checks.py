import math
import warnings

import numpy as np
import pytest

from surfcalc import chart_geometry, variational_checks
from surfcalc.chart_geometry import (Chart, QuadratureRule, SingularMetric,
                                     plane_chart, rule_terms)
from surfcalc.evolving_surface import motion_builtin, moving_atlas, worst_of
from surfcalc.expressions import Num
from surfcalc.fields import ScalarField, VectorField, as_scalar_field, \
    as_vector_field, random_scalar_field, random_vector_field
from surfcalc.fluid_models import pressure_law_builtin
from surfcalc.pde_solvers import flux_law_builtin
from surfcalc.surface_ops import (div_matrix_dual, grad_scalar_dual,
                                  stress_dual)
from surfcalc.variational_checks import (DegenerateGradient, VariationField,
                                         action_first_variation,
                                         action_integral,
                                         check_action_variation,
                                         check_dissipation_work_variation,
                                         check_flux_variation,
                                         dissipation_work_energy,
                                         gradient_flux_energy,
                                         jacobian_variation_residual,
                                         tangential_pairing_residual,
                                         time_window_variation, varied_atlas)
from surfcalc.variational_checks import (_flux_energy_terms,
                                         _kernel_gradient_residual,
                                         _jet, _ladder_report, _partials,
                                         _tangents)


def _jet_data(jet):
    """``x``, ``x_t``, Gram determinant and area element of jet values, by
    einsum: an oracle for the rung geometry read off ``_geometry``."""
    x, xt, g1, g2 = np.split(jet, 4)
    e11 = np.einsum("i...,i...->...", g1, g1)
    e22 = np.einsum("i...,i...->...", g2, g2)
    e12 = np.einsum("i...,i...->...", g1, g2)
    J = e11 * e22 - e12 * e12
    return x, xt, J, np.sqrt(J)


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
    a, _ = action_integral(torus, motion, 1.0, T, rule=torus_rule, nt=16)
    area = 4 * math.pi ** 2 * 2.0 * 0.5
    exact = -0.5 * (0.3 ** 2 + 0.2 ** 2 + 0.1 ** 2) * area * T
    assert abs(a - exact) / abs(exact) <= 1e-10


def test_static_action_is_zero(torus, torus_rule):
    a, _ = action_integral(torus, motion_builtin("static"), 1.0, 0.5,
                           rule=torus_rule, nt=8)
    assert abs(a) <= 1e-12


def test_dilating_sphere_barotropic_action_oracle(sphere, sphere_rule):
    """Closed-form action of the dilating unit sphere with unit initial
    density and a quadratic pressure law:
    -4 pi (T/2 + 1/(1+T) - 1)."""
    motion = motion_builtin("dilation")
    law = pressure_law_builtin("quadratic")
    T = 0.4
    a, _ = action_integral(sphere, motion, 1.0, T, law=law,
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
    res = jacobian_variation_residual(
        sphere, motion, var, 0.2,
        QuadratureRule(sphere, order=24, periodic_order=48))
    assert res <= 1e-7


def test_tangential_pairing(sphere, sphere_rule_fast, rng):
    f = random_vector_field(rng)
    z = random_vector_field(rng)
    assert tangential_pairing_residual(f, z, sphere,
                                       sphere_rule_fast) <= 1e-10


# -- one frame per chart: the ladders against their per-rung routes --------------


def _blocks(rule):
    """Node blocks of a rule: rule-wide frame work builds one frame (or one
    chart evaluation) per block and time node."""
    return sum(math.ceil(X.shape[1] / chart_geometry._BLOCK)
               for X, _, _ in rule.nodes)


def _count_frames(monkeypatch):
    calls = []
    original = Chart.frame

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Chart, "frame", counting)
    return calls


def _shifted(base, direction, eps):
    """The rung base + eps * direction built as an expression (a field, or
    a vector field component by component), so each rung's partials come
    from differentiating it (test oracle)."""
    if isinstance(base, VectorField):
        return VectorField([_shifted(a, b, eps)
                            for a, b in zip(base.comp, direction.comp)])
    return ScalarField(base.expr + Num(float(eps)) * direction.expr)


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
        divq = frame.div(q)
        analytic += float(np.sum(w * psi * st.sqrtJ * divq * phi.value(st.x, 0.0)))
        kernel_res = worst_of(kernel_res, _kernel_gradient_residual(
            flux, frame.values(gf)))
    report = _ladder_report(
        lambda e: gradient_flux_energy(_shifted(f, phi, e), flux, atlas,
                                       rule),
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
    assert len(frames) == _blocks(rule)
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
    energies = [dissipation_work_energy(_shifted(v, phi, e), sigma,
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


def _count_evaluations(monkeypatch):
    """Record the time of every plain chart evaluation from here on."""
    calls = []
    original = Chart.evaluate

    def counting(self, exprs, X1, X2, t=0.0):
        calls.append(t)
        return original(self, exprs, X1, X2, t)

    monkeypatch.setattr(Chart, "evaluate", counting)
    return calls


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
        x0, _, _, sJ0 = _jet_data(chart.evaluate(_jet(chart), X[0], X[1], 0.0))
        rho0t.append(rho0.value(x0, 0.0) * sJ0)
    total = magnitude = 0.0
    for tk, wk in zip(ts, wt):
        for m, (chart, (X, w, psi)) in enumerate(zip(mov.charts,
                                                     torus_rule.nodes)):
            _, xt, _, sJ = _jet_data(chart.evaluate(_jet(chart), X[0], X[1], tk))
            kernel = (0.5 * rho0t[m] * np.einsum("i...,i...->...", xt, xt)
                      - law.p(rho0t[m] / sJ) * sJ)
            terms = w * psi * kernel
            total -= wk * float(np.sum(terms))
            magnitude += wk * float(np.sum(np.abs(terms)))

    calls = _count_evaluations(monkeypatch)
    got = action_integral(mov, motion_builtin("static"), rho0, 0.4, law=law,
                          rule=torus_rule, nt=nt)
    assert len(calls) == (nt + 1) * _blocks(torus_rule)
    assert got == (total, magnitude)


@pytest.mark.parametrize("surface", ["torus", "sphere"])
def test_action_ladder_shares_one_evaluation_per_node(surface, request,
                                                      sphere_rule_fast,
                                                      torus_rule,
                                                      monkeypatch):
    """Every rung of the action ladder equals action_integral of the
    varied_atlas chart at that +-eps, while the whole ladder evaluates each
    chart once per Simpson node."""
    atlas = request.getfixturevalue(surface)
    T, nt, eps = 0.4, 4, (1e-2, 3e-3, 1e-3)
    wobble = ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")
    if surface == "torus":
        rule, motion = torus_rule, motion_builtin("dilation")
        law, rho0 = pressure_law_builtin("quadratic"), ScalarField("1 + 0.2*x3")
        var = time_window_variation(wobble, T)
    else:
        # no time window: the rungs' reference configurations differ too
        rule, motion = sphere_rule_fast, motion_builtin("rotation", rate=0.7)
        law, rho0, var = None, "1 + 0.2*x3", VariationField(wobble)
    mov = moving_atlas(atlas, motion)
    oracle = {s * e: action_integral(varied_atlas(mov, var, s * e),
                                     motion_builtin("static"), rho0, T,
                                     law=law, rule=rule, nt=nt)
              for e in eps for s in (1.0, -1.0)}

    used = {}
    original = variational_checks._ladder_report

    def recording(energy, eps_list, analytic):
        for e in eps_list:
            used[e], used[-e] = energy(e), energy(-e)
        return original(energy, eps_list, analytic)

    monkeypatch.setattr(variational_checks, "_ladder_report", recording)
    calls = _count_evaluations(monkeypatch)
    check_action_variation(atlas, motion, var, rho0=rho0, T=T, law=law,
                           eps_list=eps, rule=rule, nt=nt)
    assert len(calls) == (nt + 1) * _blocks(rule)
    assert used == oracle


def test_frame_projector_built_on_first_read(torus, torus_rule, rng,
                                             monkeypatch):
    chart = moving_atlas(torus, motion_builtin("dilation")).charts[0]
    X = np.stack([rng.uniform(0.0, 6.0, 50), rng.uniform(0.0, 6.0, 50)])
    frame = chart.frame(X[0], X[1], 0.3)
    assert "P" not in frame.__dict__
    eager = [[(1.0 if i == j else 0.0) - frame.n[i] * frame.n[j]
              for j in range(3)] for i in range(3)]
    for wrt in (None, "X1", "X2"):
        assert np.array_equal(frame.values(frame.P, wrt),
                              frame.values(eager, wrt)), wrt
    assert np.array_equal(frame.metric().P, frame.values(frame.P))
    assert frame.P is frame.P

    frames = []
    original = Chart.frame

    def keeping(self, *args, **kwargs):
        frames.append(original(self, *args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(Chart, "frame", keeping)
    var = time_window_variation(("x3", "-x1", "0.5*x2"), 0.4)
    variational_checks.action_first_variation(
        torus, motion_builtin("dilation"), var, "1 + 0.2*x3", 0.4,
        law=pressure_law_builtin("quadratic"), rule=torus_rule, nt=2)
    assert frames and all("P" not in f.__dict__ for f in frames)


# -- partials only where one is read: the parent routes as oracles ---------------


def _action_first_variation_frame0(atlas, motion, variation, rho0, T, law,
                                   rule, nt):
    """action_first_variation with the dual rho0_tilde read off an extra
    frame on the reference chart (oracle)."""
    mov = moving_atlas(atlas, motion)
    vel, z = motion.velocity, variation.direction
    ts, wt = variational_checks._simpson_nodes(T, nt)
    total = 0.0
    for m, (chart, base) in enumerate(zip(mov.charts, atlas.charts)):
        X, w, psi = rule.nodes[m]
        frame0 = base.frame(X[0], X[1], 0.0)
        rho0t_d = frame0.eval_scalar(as_scalar_field(rho0)) * frame0.sqrtJ
        for tk, wk in zip(ts, wt):
            frame = chart.frame(X[0], X[1], tk)
            sJ = frame.values(frame.sqrtJ)
            x = frame.values(frame.x)
            rho_d = rho0t_d / frame.sqrtJ
            vval = vel.value(x, tk)
            Dt_v = vel.dt(x, tk) + np.einsum("j...,ij...->i...", vval,
                                             vel.jacobian(x, tk))
            force = frame.values(rho_d) * Dt_v
            if law is not None:
                peff_d = law.eff_expr.evaluate({"r": rho_d})
                gradp = np.stack([frame.tangential(peff_d, i)
                                  for i in range(3)])
                force = (force + gradp
                         + frame.values(peff_d) * frame.H * frame.values(frame.n))
            kernel = np.einsum("i...,i...->...", force, z.value(x, tk))
            total += wk * float(np.sum(w * psi * kernel * sJ))
    return total


def _flux_terms_dual(f, flux, frame, w, psi):
    """One chart's flux rung terms through grad_scalar_dual (oracle)."""
    zeta = frame.values(sum(c * c for c in grad_scalar_dual(f, frame)))
    return w * psi * frame.values(frame.sqrtJ) * flux.density(zeta)


MOTIONS = ["static", "translation", "rotation", "dilation"]


@pytest.mark.parametrize("motion", MOTIONS)
@pytest.mark.parametrize("surface", ["sphere", "torus"])
def test_action_variation_reads_rho0_off_the_first_node(surface, motion,
                                                        request):
    """The t = 0 frame of the moving chart gives the same dual rho0_tilde as
    a frame on the reference chart: the variation is bit-identical."""
    atlas = request.getfixturevalue(surface)
    rule = QuadratureRule(atlas, order=24, periodic_order=48)
    var = time_window_variation(("x3", "-x1", "0.5*x2 + x1*x3"), 0.4)
    for law in (None, "quadratic", "power"):
        law = law and pressure_law_builtin(law)
        for rho0 in ("1.0", "1 + 0.2*x3 - 0.1*x1*x2"):
            args = (atlas, motion_builtin(motion), var, rho0, 0.4)
            assert (action_first_variation(*args, law=law, rule=rule, nt=2)
                    == _action_first_variation_frame0(*args, law, rule, 2))


@pytest.mark.parametrize("motion", MOTIONS)
@pytest.mark.parametrize("surface", ["sphere", "torus"])
def test_flux_rungs_read_the_plain_snapshot(surface, motion, request):
    """Flux rung terms from the plain snapshot (frame.metric() and metric_at)
    equal those through grad_scalar_dual on the dual frame."""
    atlas = moving_atlas(request.getfixturevalue(surface),
                         motion_builtin(motion))
    rule = QuadratureRule(atlas, order=24, periodic_order=48)
    f, t = as_scalar_field("x1*x2 + sin(x3) + 2*x3"), 0.3
    for flux in (flux_law_builtin("linear"), flux_law_builtin("quadratic")):
        oracle, snapshot = [], []
        for chart, (X, w, psi) in zip(atlas.charts, rule.nodes):
            frame = chart.frame(X[0], X[1], t)
            oracle.append(_flux_terms_dual(f, flux, frame, w, psi))
            st = frame.metric()
            snapshot.append(_flux_energy_terms(_partials(f, st.x, t), flux,
                                               st.P, st.sqrtJ, w, psi))
        assert all(np.array_equal(a, b) for a, b in zip(snapshot, oracle))
        total = magnitude = 0.0
        for a in oracle:  # E and its sum of |terms|, added chart by chart
            total -= 0.5 * float(np.sum(a))
            magnitude += 0.5 * float(np.sum(np.abs(a)))
        assert (gradient_flux_energy(f, flux, atlas, rule, t)
                == (total, magnitude))


def test_frames_built_per_check(torus, sphere, monkeypatch):
    """One frame per Simpson node and chart block in the action variation,
    one per chart block in the flux ladder, none for the flux energy."""
    var = time_window_variation(("x3", "-x1", "0.5*x2"), 0.4)
    flux = flux_law_builtin("quadratic")
    for atlas in (torus, sphere):
        rule = QuadratureRule(atlas, order=24, periodic_order=48)
        nt = 4
        frames = _count_frames(monkeypatch)
        action_first_variation(atlas, motion_builtin("dilation"), var,
                               "1 + 0.2*x3", 0.4,
                               law=pressure_law_builtin("quadratic"),
                               rule=rule, nt=nt)
        assert len(frames) == _blocks(rule) * (nt + 1)
        frames.clear()
        check_flux_variation("x1 + 2*x3", flux, "0.5*x1 + x2*x3", atlas,
                             rule=rule, eps_list=(1e-2, 3e-3))
        assert len(frames) == _blocks(rule)
        frames.clear()
        gradient_flux_energy("x1 + 2*x3", flux, atlas, rule)
        assert frames == []


def test_flux_ladder_builds_no_field_per_rung(torus, monkeypatch):
    """A flux rung is df + e*dphi of partials evaluated once per block: the
    fields built (f, phi and their three partials each) do not grow with
    the ladder."""
    built = []
    original = ScalarField.__init__

    def counting(self, expr):
        built.append(expr)
        original(self, expr)

    monkeypatch.setattr(ScalarField, "__init__", counting)
    rule = QuadratureRule(torus, order=24, periodic_order=48)
    counts = []
    for eps in ((1e-2, 3e-3), (1e-2, 3e-3, 1e-3, 3e-4)):
        built.clear()
        check_flux_variation("x1 + 2*x3", flux_law_builtin("quadratic"),
                             "0.5*x1 + x2*x3", torus, rule=rule, eps_list=eps)
        counts.append(len(built))
    assert counts == [8, 8]


def _jacobian_variation_frame_route(atlas, motion, variation, t, rule):
    """jacobian_variation_residual with its right side read off a dual frame
    per block: g^ab, g_a and J of the frame, dy/dX_a of the direction
    composed with the frame's dual positions."""
    eps = 1e-4
    mov = moving_atlas(atlas, motion)
    z = [c.expr for c in variation.direction.comp]
    jets = {ch: _jet(ch, z) for ch in mov.charts}

    def block(chart, X, w, psi):
        v = chart.evaluate(jets[chart], X[0], X[1], t)
        Jp, Jm = (_jet_data(v[:12] + e * v[12:])[2] for e in (eps, -eps))
        dJ = (Jp - Jm) / (2.0 * eps)
        frame = chart.frame(X[0], X[1], t)
        y_d = [frame.eval_scalar(c) for c in variation.direction.comp]
        dy = np.stack([frame.values(y_d, a) for a in ("X1", "X2")])
        gup = np.einsum("ab...,bi...->ai...", frame.values(frame.inv_gram),
                        frame.values(frame.g))
        rhs = (2.0 * np.einsum("ai...,ai...->...", gup, dy)
               * frame.values(frame.J))
        return np.abs(dJ - rhs)
    return worst_of(0.0, *rule_terms(np.max, mov.charts, rule, block))


@pytest.mark.parametrize("motion", ["static", "translation", "rotation",
                                    "dilation"])
@pytest.mark.parametrize("surface", ["sphere", "torus"])
def test_jacobian_variation_reads_one_jet_per_block(surface, motion, request,
                                                    monkeypatch):
    """The Jacobian identity evaluates each chart once per node block and
    builds no frame; its value is that of the frame route."""
    atlas = request.getfixturevalue(surface)
    rule = QuadratureRule(atlas, order=24, periodic_order=48)
    var = time_window_variation(
        ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2"), 0.4)
    args = (atlas, motion_builtin(motion), var, 0.2, rule)
    oracle = _jacobian_variation_frame_route(*args)
    frames = _count_frames(monkeypatch)
    calls = _count_evaluations(monkeypatch)
    got = jacobian_variation_residual(*args)
    assert (len(calls), frames) == (_blocks(rule), [])
    assert got == oracle


@pytest.mark.parametrize("surface, motion", [("sphere", "static"),
                                             ("torus", "static"),
                                             ("sphere", "dilation")])
def test_rung_geometry_is_that_of_the_einsum_kernel(surface, motion, request):
    """J and sqrt J of every +-eps rung, and the t = 0 positions and sqrt J
    of the energy representations, are those of the einsum oracle, bit for
    bit."""
    atlas = request.getfixturevalue(surface)
    mov = moving_atlas(atlas, motion_builtin(motion))
    rule = QuadratureRule(atlas, order=12, periodic_order=24)
    var = time_window_variation(
        ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2"), 0.4)
    z = [c.expr for c in var.direction.comp]
    for chart, (X, _, _) in zip(mov.charts, rule.nodes):
        jet = _jet(chart, z)
        for t in (0.0, 0.1, 0.3):
            v = chart.evaluate(jet, X[0], X[1], t)
            for e in (0.0, 1e-2, -1e-2, 3e-4, -3e-4):
                rung = v[:12] + e * v[12:]
                _, _, J, sJ = _jet_data(rung)
                _, J_new, sJ_new = chart_geometry._geometry(_tangents(rung))
                assert np.all(J_new == J) and np.all(sJ_new == sJ)
        x0, _, _, sJ0 = _jet_data(chart.evaluate(_jet(chart), X[0], X[1], 0.0))
        st0 = chart.metric(X[0], X[1], 0.0)
        assert np.all(st0.x == x0) and np.all(st0.sqrtJ == sJ0)


@pytest.mark.parametrize("law", [None, "quadratic"])
def test_collapsing_rung_raises_singular_metric(law):
    """At t = 0.2 the +0.5 rung of z = t (0.4 - t) (-50 x1, 0, 0) maps the
    plane onto x1 = 0: the ladder raises SingularMetric, without a warning."""
    plane = plane_chart()
    var = time_window_variation(("-50*x1", "0", "0"), 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric):
            check_action_variation(
                plane, motion_builtin("static"), var, T=0.4,
                law=law and pressure_law_builtin(law), eps_list=(0.5, 0.25),
                rule=QuadratureRule(plane, order=8), nt=2)
