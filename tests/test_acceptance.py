"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
on failure) and asserts the stated tolerance.  The heavier criteria (heat
solver accuracy/order, the variational ladder) run at their stated
resolutions, so this module takes a few minutes.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from surfcalc.chart_geometry import (QuadratureRule, default_rule, integrate,
                                     mean_curvature_at, metric_at,
                                     sphere_atlas, torus_atlas)
from surfcalc.cli_runner import main as cli_main
from surfcalc.evolving_surface import (FlowState, MotionLaw, advance_flow,
                                       integrate_grid, jacobian_rate_check,
                                       motion_builtin, probe_steps,
                                       transport_scalar,
                                       transport_theorem_check)
from surfcalc.fields import (ScalarField, VectorField, random_scalar_field,
                             random_vector_field)
from surfcalc.fluid_models import (CoefficientFields, FluidFields,
                                   pressure_law_builtin, thermo_quantities)
from surfcalc.pde_solvers import (GridField, SurfaceGridSolver,
                                  flux_law_builtin, step_heat)
from surfcalc.surface_ops import (div_matrix_dual, ibp_residuals,
                                  identity_residuals, stress_dual)
from surfcalc.variational_checks import (VariationField,
                                         check_action_variation,
                                         check_dissipation_work_variation,
                                         check_energy_representations,
                                         check_flux_variation,
                                         jacobian_variation_residual,
                                         time_window_variation)
from conftest import random_nodes

WOBBLE = ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} ({detail})"


@pytest.fixture(scope="module")
def sphere_dense(sphere, sphere_rule):
    return sphere, sphere_rule


def test_criterion_01_geometry(sphere, sphere_rule, torus, torus_rule, rng):
    start = time.perf_counter()
    area_s = integrate(1.0, sphere, sphere_rule)
    err_s = abs(area_s - 4 * math.pi) / (4 * math.pi)
    area_t = integrate(1.0, torus, torus_rule)
    exact_t = 4 * math.pi ** 2 * 2.0 * 0.5
    err_t = abs(area_t - exact_t) / exact_t
    worst_H = 0.0
    worst_P = 0.0
    for atlas in (sphere, torus):
        for chart in atlas.charts:
            X = random_nodes(chart, rng, 1000)
            st = metric_at(chart, X)
            P2 = np.einsum("ab...,ai...,bj...->ij...", st.inv_gram, st.g, st.g)
            worst_P = max(worst_P, float(np.max(np.abs(st.P - P2))))
            if atlas is sphere:
                worst_H = max(worst_H, float(np.max(np.abs(
                    mean_curvature_at(chart, X) + 2.0))))
    elapsed = time.perf_counter() - start
    ok = (err_s <= 1e-8 and err_t <= 1e-8 and worst_H <= 1e-8
          and worst_P <= 1e-10 and elapsed <= 10.0)
    report(1, "geometry oracles and metric-projector identity", ok,
           f"sphere {err_s:.1e}, torus {err_t:.1e}, H {worst_H:.1e}, "
           f"P {worst_P:.1e}, {elapsed:.1f}s")


def test_criterion_02_identities(sphere, torus, rng):
    start = time.perf_counter()
    worst = 0.0
    for atlas in (sphere, torus):
        for _ in range(5):
            f = random_scalar_field(rng, time_dependent=True)
            v = random_vector_field(rng, time_dependent=True)
            phi = random_vector_field(rng)
            g = random_scalar_field(rng)
            mu = ScalarField(1.0 + random_scalar_field(rng, 0.3).expr)
            lam = ScalarField(1.0 + random_scalar_field(rng, 0.3).expr)
            for chart in atlas.charts:
                X = random_nodes(chart, rng, 1000)
                frame = chart.frame(X[0], X[1], 0.3)
                res = identity_residuals(frame, f, v, phi, g, mu, lam)
                worst = max(worst, max(res.values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 30.0
    report(2, "tangential-calculus identities on sphere and torus", ok,
           f"max residual {worst:.1e}, {elapsed:.1f}s")


def test_criterion_03_integration_by_parts(sphere, sphere_rule, torus,
                                           torus_rule, rng):
    worst = 0.0
    for atlas, rule in ((sphere, sphere_rule), (torus, torus_rule)):
        for k in range(10):
            f = random_scalar_field(rng)
            phi = random_vector_field(rng)
            r1, r2 = ibp_residuals(f, phi, atlas, rule, m=k % 3)
            worst = max(worst, r1, r2)
    ok = worst <= 1e-6
    report(3, "closed-surface integration by parts", ok,
           f"max residual {worst:.1e}")


def test_criterion_04_transport(sphere):
    motion = motion_builtin("dilation")
    rho0 = ScalarField("1 + 0.3*x3")
    state = FlowState.create(sphere, resolution=(48, 96))
    mass0 = integrate_grid(state, values=transport_scalar(state, rho0))
    cur = state
    drift = 0.0
    for _ in range(20):
        cur = advance_flow(cur, motion, 0.05, steps=1)
        mass = integrate_grid(cur, values=transport_scalar(cur, rho0))
        drift = max(drift, abs(mass - mass0) / abs(mass0))
    probes = probe_steps(cur, motion)
    jac = jacobian_rate_check(cur, motion, probes)
    thm = transport_theorem_check(cur, motion, ScalarField("1 + 0.3*x3"),
                                  probes)

    # RK4 order on a time-modulated radial flow (exact map x0 exp(sin t);
    # the canonical dilation itself is integrated exactly by RK4)
    mod = MotionLaw(["cos(t)*x1", "cos(t)*x2", "cos(t)*x3"])
    errs = []
    for steps in (8, 16):
        st0 = FlowState.create(sphere, resolution=(24, 48))
        end = advance_flow(st0, mod, 1.0 / steps, steps=steps)
        scale = math.exp(math.sin(1.0))
        errs.append(max(np.max(np.abs(c - scale * b))
                        for c, b in zip(end.x, st0.x)))
    order = math.log2(errs[0] / errs[1])
    ok = drift <= 1e-8 and jac <= 1e-6 and thm <= 1e-6 and order >= 3.8
    report(4, "dilating-sphere transport and RK4 order", ok,
           f"mass {drift:.1e}, jacobian {jac:.1e}, transport {thm:.1e}, "
           f"order {order:.2f}")


def heat_error(sphere, resolution, dt, T):
    solver = SurfaceGridSolver(sphere, resolution)
    coeffs = CoefficientFields(F=("0", "0", "0"), Q_theta=0.0)
    flux = flux_law_builtin("linear")
    xs = solver.positions(0.0)
    field = GridField([x[2].copy() for x in xs], 0.0)
    for _ in range(round(T / dt)):
        field = step_heat(solver, field, coeffs, flux, dt)
    scale = math.exp(-2.0 * field.t)
    return max(np.max(np.abs(field.values[m] - scale * xs[m][2]))
               for m in range(len(xs))) / scale


def test_criterion_05_heat_solver(sphere):
    start = time.perf_counter()
    rel = heat_error(sphere, (64, 128), dt=2e-4, T=0.5)
    errs = {n: heat_error(sphere, (n, 2 * n), dt=1e-4, T=0.05)
            for n in (32, 48, 64)}
    ns = np.log([32, 48, 64])
    es = np.log([errs[32], errs[48], errs[64]])
    order = -np.polyfit(ns, es, 1)[0]
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-3 and order >= 3.5 and elapsed <= 120.0
    report(5, "heat solver accuracy and spatial order", ok,
           f"rel {rel:.1e}, order {order:.2f}, {elapsed:.0f}s")


def test_criterion_06_conservation(sphere, sphere_rule, rng, tmp_path):
    import importlib.resources as resources

    path = str(resources.files("surfcalc") / "scenarios"
               / "conservation_translation.cfg")
    out = CliRunner().invoke(cli_main, ["run", path,
                                        "--out", str(tmp_path / "cons")])
    summary = json.loads((tmp_path / "cons" / "summary.json").read_text())
    checks = summary["suites"]["conservation-report"]["checks"]
    drifts = {c["check"]: c["value"] for c in checks}
    worst_drift = max(v for k, v in drifts.items() if k.startswith("drift_"))
    stress = drifts["stress_divergence_integral"]
    ok = out.exit_code == 0 and worst_drift <= 1e-6 and stress <= 1e-7
    report(6, "conserved integrals and closed-surface stress divergence", ok,
           f"max drift {worst_drift:.1e}, stress integral {stress:.1e}")


def test_criterion_07_variational(sphere, sphere_rule):
    # dissipation + work variation: exact to quadrature
    phi = VariationField(("0.4*x3 + x1*x2", "cos(x2)", "0.2 - x1"))
    diss = check_dissipation_work_variation(
        ("x2*x3", "sin(x1)", "x1*x1 - 0.3*x2"), "x3*x1 + 1", 1.0, 0.5,
        "2 + 0.5*x3", ("0.1", "-0.2*x3", "0.3*x2"), phi, sphere,
        rule=sphere_rule)

    T = 0.4
    var = time_window_variation(WOBBLE, T)
    # kinetic action along the rotating sphere: the varied action is exactly
    # quadratic in eps, so central differences agree to the quadrature floor
    kin = check_action_variation(sphere, motion_builtin("rotation", rate=0.7),
                                 var, rho0=1.0, T=T, rule=sphere_rule, nt=20)
    kin_ok = kin["extrapolated_error"] <= 1e-6 and (
        kin["slope"] is None or abs(kin["slope"] - 2.0) <= 0.1)

    # barotropic action on the dilating sphere: quadratic slope measurable
    bar = check_action_variation(sphere, motion_builtin("dilation"), var,
                                 rho0=1.0, T=T,
                                 law=pressure_law_builtin("quadratic"),
                                 rule=sphere_rule, nt=20)
    bar_ok = (bar["slope"] is not None and abs(bar["slope"] - 2.0) <= 0.1
              and bar["extrapolated_error"] <= 1e-6)

    lin = check_flux_variation("x3", flux_law_builtin("linear"),
                               "0.5*x1 + x2*x3", sphere, rule=sphere_rule)
    nl = check_flux_variation("x1 + 2*x3", flux_law_builtin("quadratic"),
                              "0.5*x1 + x2*x3", sphere, rule=sphere_rule)
    jac = jacobian_variation_residual(
        sphere, motion_builtin("dilation"), var, 0.2,
        QuadratureRule(sphere, order=24, periodic_order=48))
    ok = (diss["error"] <= 1e-7 and kin_ok and bar_ok
          and max(lin["errors"]) <= 1e-8
          and nl["slope"] is not None and abs(nl["slope"] - 2.0) <= 0.1
          and jac <= 1e-7)
    report(7, "first-variation identities", ok,
           f"dissipation {diss['error']:.1e}, kinetic extrap "
           f"{kin['extrapolated_error']:.1e}, barotropic slope "
           f"{bar['slope']}, flux linear {max(lin['errors']):.1e}, "
           f"flux slope {nl['slope']}, jacobian {jac:.1e}")


def test_criterion_08_energy_representations(sphere, sphere_rule):
    from surfcalc.evolving_surface import dilation_density

    motion = motion_builtin("dilation")
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rho0 = ScalarField(2.0 + random_scalar_field(rng, 0.2).expr)
        fields = FluidFields(rho=dilation_density(rho0), v=motion.velocity,
                             sigma=random_scalar_field(rng),
                             e=ScalarField(1.0 + random_scalar_field(rng, 0.3).expr),
                             theta=random_scalar_field(rng),
                             C=random_scalar_field(rng))
        coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.2, nu=0.8,
                                   F=random_vector_field(rng))
        rep = check_energy_representations(
            sphere, motion, fields, coeffs, t=0.3,
            law=pressure_law_builtin("quadratic"),
            flux=flux_law_builtin("quadratic"), rule=sphere_rule)
        assert len(rep) == 9
        worst = max(worst, max(p["rel_mismatch"] for p in rep.values()))
    ok = worst <= 1e-7
    report(8, "nine dual energy representations, 3 random draws", ok,
           f"max rel mismatch {worst:.1e}")


def test_criterion_09_thermodynamics(sphere, rng):
    # closed-form consistent resting state (theta = 2 + x3, s = t,
    # e = theta t, heat source balancing the surface flux)
    fields = FluidFields(rho=1.0, v=("0", "0", "0"), sigma="sin(t)",
                         e="(2 + x3)*t", theta="2 + x3", s="t")
    coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.0,
                               Q_theta="2 + 3*x3")
    worst_enthalpy = worst_free = 0.0
    production_min = np.inf
    for chart in sphere.charts:
        X = random_nodes(chart, rng, 500)
        frame = chart.frame(X[0], X[1], 0.3)
        out = thermo_quantities(fields, coeffs, frame)
        worst_enthalpy = max(worst_enthalpy, float(np.max(out["enthalpy_residual"])))
        worst_free = max(worst_free, float(np.max(out["free_energy_residual"])))
        production_min = min(production_min,
                             float(np.min(out["entropy_production"])))
    # entropy production stays nonnegative for generic states too
    for _ in range(3):
        f2 = FluidFields(rho=2.0 + random_scalar_field(rng, 0.2).expr,
                         v=random_vector_field(rng, time_dependent=True),
                         sigma=random_scalar_field(rng),
                         e=1.0 + random_scalar_field(rng, 0.3).expr,
                         theta=2.0 + random_scalar_field(rng, 0.3).expr)
        c2 = CoefficientFields(mu=1.0, lam=0.5, kappa=1.0)
        chart = sphere.charts[0]
        X = random_nodes(chart, rng, 300)
        out = thermo_quantities(f2, c2, chart.frame(X[0], X[1], 0.3))
        production_min = min(production_min,
                             float(np.min(out["entropy_production"])))
    ok = (production_min >= -1e-12 and worst_free <= 1e-10
          and worst_enthalpy <= 1e-8)
    report(9, "thermodynamic identities and entropy production", ok,
           f"production min {production_min:.1e}, free {worst_free:.1e}, "
           f"enthalpy {worst_enthalpy:.1e}")


def test_criterion_10_determinism(tmp_path):
    import importlib.resources as resources

    path = str(resources.files("surfcalc") / "scenarios"
               / "sphere_identities.cfg")
    texts = []
    for k in range(2):
        out = CliRunner().invoke(cli_main, ["run", path,
                                            "--out", str(tmp_path / f"d{k}")])
        assert out.exit_code == 0, out.output
        texts.append((tmp_path / f"d{k}" / "summary.json").read_bytes())
    ok = texts[0] == texts[1]
    report(10, "repeated scenario runs give identical summaries", ok)
