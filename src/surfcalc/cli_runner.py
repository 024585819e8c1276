"""Scenario orchestration: verification suites, simulations, and reports.

``surfcalc run <scenario.cfg>`` executes the suites named in the scenario
(or in ``--suite``), writes a deterministic ``summary.json`` plus per-suite
CSVs into the output directory, and exits 0 exactly when every check passed
its tolerance.  A check whose signal sits below its estimated rounding noise
(an epsilon ladder with no rung above the noise estimated for that rung) is
reported as inconclusive and does not fail the run.
"""

from __future__ import annotations

import csv
import json
import math
import os
from inspect import signature

import click
import numpy as np

from . import __version__
from .chart_geometry import (QuadratureRule, default_rule, integrate,
                             rule_sums)
from .config import BUILTINS, ConfigError, load_scenario
from .evolving_surface import (FlowState, advance_flow, dilation_density,
                               integrate_grid, integrate_grid_vector,
                               jacobian_rate_check, moving_atlas, probe_steps,
                               transport_scalar, transport_theorem_check,
                               worst_of)
from .expressions import Num
from .fields import (ScalarField, as_scalar_field, as_vector_field,
                     random_scalar_field, random_vector_field)
from .fluid_models import (CoefficientFields, FluidFields, residual_conservative,
                           residual_full, thermo_quantities)
from .pde_solvers import (GridField, SurfaceGridSolver, flux_law_builtin,
                          step_barotropic_tangential, step_diffusion,
                          step_heat)
from .surface_ops import (div_matrix_dual, identity_residuals,
                          material_residuals, stress_dual)
from .variational_checks import (VariationField, check_action_variation,
                                 check_dissipation_work_variation,
                                 check_energy_representations,
                                 check_flux_variation,
                                 jacobian_variation_residual,
                                 tangential_pairing_residual,
                                 time_window_variation)

__all__ = ["main"]


# -- check bookkeeping ------------------------------------------------------------


def _row(name, value, tolerance, inconclusive=False, **extra):
    """One check row.  It passes on a finite value within its tolerance, or
    when it is inconclusive."""
    passed = math.isfinite(value) and value <= tolerance
    row = {"check": name, "value": float(value), "tolerance": float(tolerance),
           "pass": bool(passed or inconclusive)}
    if inconclusive:
        row["inconclusive"] = True
    row.update(extra)
    return row


def _slope_row(name, rep, tolerance):
    """Slope check of an epsilon ladder.  A ladder without a slope fails,
    unless no rung rose above its rounding noise (then it is inconclusive)."""
    slope = rep["slope"]
    return _row(name, abs(slope - 2.0) if slope is not None else math.inf,
                tolerance, inconclusive=rep["floor_limited"], slope=slope)


def _rule_for(scn, atlas):
    quad = scn.quadrature()
    if quad is None:
        return default_rule(atlas)
    return QuadratureRule(atlas, order=quad[0], periodic_order=quad[1])


def _random_nodes(atlas, rng, count):
    """Uniform random chart coordinates per chart."""
    out = []
    for chart in atlas.charts:
        (lo1, hi1), (lo2, hi2) = chart.domain
        out.append(np.stack([rng.uniform(lo1, hi1, count),
                             rng.uniform(lo2, hi2, count)]))
    return out


# exact areas, called with the surface factory's keyword arguments
_AREA_ORACLES = {
    "sphere": lambda R: 4.0 * math.pi * R ** 2,
    "torus": lambda R, r: 4.0 * math.pi ** 2 * R * r,
}


# -- suites -------------------------------------------------------------------------


def suite_verify_geometry(scn, rng):
    atlas = scn.build_surface()
    rule = _rule_for(scn, atlas)
    kind = scn.get("surface.kind")
    args = scn.builtin_args("surface", kind)
    rows = []

    area = integrate(as_scalar_field(1.0), atlas, rule)
    if kind in _AREA_ORACLES:
        oracle = _AREA_ORACLES[kind](**args)
        rows.append(_row("area_relative_error", abs(area - oracle) / oracle,
                         scn.tolerance("area", 1e-8), area=area, oracle=oracle))

    worst_proj = 0.0
    worst_curv = 0.0
    all_nodes = _random_nodes(atlas, rng, scn.get_int("samples", 1000))
    for chart, nodes in zip(atlas.charts, all_nodes):
        frame = chart.frame(nodes[0], nodes[1])
        st = frame.metric()
        # tangential projector rebuilt from the metric: sum_a g^a (x) g_a
        P_from_metric = np.einsum("ai...,aj...->ij...", st.gup, st.g)
        worst_proj = worst_of(worst_proj, float(np.max(np.abs(st.P - P_from_metric))))
        if kind == "sphere":
            worst_curv = worst_of(worst_curv, float(np.max(np.abs(
                frame.H + 2.0 / args["R"]))))
    rows.append(_row("metric_projector_identity", worst_proj,
                     scn.tolerance("projection", 1e-10)))
    if kind == "sphere":
        rows.append(_row("mean_curvature_error", worst_curv,
                         scn.tolerance("curvature", 1e-8)))
    return rows, {}


def suite_verify_identities(scn, rng):
    atlas = scn.build_surface()
    motion = scn.build_motion()
    samples = scn.get_int("samples", 400)
    families = scn.get_int("families", 5)
    t_eval = scn.get_float("t", 0.3)
    tol = scn.tolerance("identity", 1e-9)

    worst = {}
    for _ in range(families):
        f = random_scalar_field(rng, time_dependent=True)
        v = random_vector_field(rng, time_dependent=True)
        phi = random_vector_field(rng)
        g = random_scalar_field(rng)
        mu = ScalarField(1.0 + random_scalar_field(rng, 0.3).expr)
        lam = ScalarField(1.0 + random_scalar_field(rng, 0.3).expr)
        for m, chart in enumerate(atlas.charts):
            nodes = _random_nodes(atlas, rng, samples)[m]
            frame = chart.frame(nodes[0], nodes[1], t_eval)
            res = identity_residuals(frame, f, v, phi, g, mu, lam)
            for key, val in res.items():
                worst[key] = worst_of(worst.get(key, 0.0), val)
    # material-derivative commutation on the moving charts
    if motion.transform is not None:
        mov = moving_atlas(atlas, motion)
        f = random_scalar_field(rng, time_dependent=True)
        for m, chart in enumerate(mov.charts):
            nodes = _random_nodes(atlas, rng, samples)[m]
            frame = chart.frame(nodes[0], nodes[1], t_eval)
            res = material_residuals(frame, f, motion.velocity)
            for key in ("transport_commutation_scalar",
                        "transport_commutation_momentum"):
                worst[key] = worst_of(worst.get(key, 0.0), res[key])
    rows = [_row(key, val, tol) for key, val in sorted(worst.items())]
    return rows, {}


def suite_transport(scn, rng):
    atlas = scn.build_surface()
    motion = scn.build_motion()
    dt, steps = scn.time_window()
    res = scn.resolution()
    rho0 = scn.get_scalar_field("fields.rho0", as_scalar_field(1.0))

    state = FlowState.create(atlas, resolution=res)
    mass0 = integrate_grid(state, values=transport_scalar(state, rho0))
    series = [(0.0, mass0)]
    checkpoints = max(1, steps // 10)
    cur = state
    done = 0
    while done < steps:
        n = min(checkpoints, steps - done)
        cur = advance_flow(cur, motion, dt, steps=n)
        done += n
        series.append((cur.t, integrate_grid(cur, values=transport_scalar(cur, rho0))))
    drift = worst_of(*(abs(m - mass0) for _, m in series)) / max(1.0, abs(mass0))

    probes = probe_steps(cur, motion)
    jac = jacobian_rate_check(cur, motion, probes)
    f_test = scn.get_scalar_field("fields.test", ScalarField("1 + 0.3*x3"))
    thm = transport_theorem_check(cur, motion, f_test, probes)

    rows = [
        _row("mass_drift", drift, scn.tolerance("mass", 1e-8)),
        _row("jacobian_rate_residual", jac, scn.tolerance("jacobian", 1e-6)),
        _row("transport_theorem_residual", thm, scn.tolerance("transport", 1e-6)),
    ]
    csvs = {"transport_mass": (("t", "mass"), series)}
    return rows, csvs


def _scenario_fields(scn, rng):
    """Fluid state and coefficients from the scenario, randomized defaults."""
    fields = FluidFields(
        rho=scn.get_scalar_field(
            "fields.rho", ScalarField(2.0 + random_scalar_field(rng, 0.2).expr)),
        v=scn.get_vector_field("fields.v", random_vector_field(
            rng, time_dependent=True)),
        sigma=scn.get_scalar_field("fields.sigma", random_scalar_field(rng)),
        e=scn.get_scalar_field(
            "fields.e", ScalarField(1.0 + random_scalar_field(rng, 0.3).expr)),
        theta=scn.get_scalar_field(
            "fields.theta", ScalarField(2.0 + random_scalar_field(rng, 0.3).expr)),
        C=scn.get_scalar_field("fields.C", random_scalar_field(rng)),
    )
    coeffs = CoefficientFields(
        mu=scn.get_scalar_field("coeffs.mu", as_scalar_field(1.0)),
        lam=scn.get_scalar_field("coeffs.lam", as_scalar_field(0.5)),
        kappa=scn.get_scalar_field("coeffs.kappa", as_scalar_field(1.0)),
        nu=scn.get_scalar_field("coeffs.nu", as_scalar_field(1.0)),
        F=scn.get_vector_field("coeffs.F", random_vector_field(rng)),
        Q_theta=scn.get_scalar_field("coeffs.Q_theta", random_scalar_field(rng)),
        Q_C=scn.get_scalar_field("coeffs.Q_C", random_scalar_field(rng)),
    )
    return fields, coeffs


def suite_residuals(scn, rng):
    """Structural consistency of the residual evaluators on arbitrary fields:
    the conservative-form residuals must be exact combinations of the
    advective-form ones, and entropy production must be nonnegative."""
    atlas = scn.build_surface()
    samples = scn.get_int("samples", 300)
    t_eval = scn.get_float("t", 0.3)
    tol = scn.tolerance("equivalence", 1e-9)
    fields, coeffs = _scenario_fields(scn, rng)

    worst = {"mass": 0.0, "momentum": 0.0, "energy": 0.0, "concentration": 0.0}
    production_min = np.inf
    for m, chart in enumerate(atlas.charts):
        nodes = _random_nodes(atlas, rng, samples)[m]
        frame = chart.frame(nodes[0], nodes[1], t_eval)
        x = frame.values(frame.x)
        full = residual_full(fields, coeffs, frame)
        cons = residual_conservative(fields, coeffs, frame)
        vval = fields.v.value(x, t_eval)
        ke = 0.5 * np.einsum("i...,i...->...", vval, vval)
        evals = fields.e.value(x, t_eval)
        worst["mass"] = worst_of(worst["mass"], float(np.max(np.abs(
            cons["mass"] - full["mass"]))))
        worst["momentum"] = worst_of(worst["momentum"], float(np.max(np.abs(
            cons["momentum_vec"] - (full["momentum_vec"]
                                    + vval * full["mass"])))))
        worst["energy"] = worst_of(worst["energy"], float(np.max(np.abs(
            cons["energy"] - ((ke + evals) * full["mass"]
                              + np.einsum("i...,i...->...", vval,
                                          full["momentum_vec"])
                              + full["energy"])))))
        worst["concentration"] = worst_of(worst["concentration"], float(np.max(
            np.abs(cons["concentration"] - full["concentration"]))))
        thermo = thermo_quantities(fields, coeffs, frame)
        production_min = -worst_of(-production_min,
                                   -float(np.min(thermo["entropy_production"])))

    rows = [_row(f"conservative_equivalence_{k}", v, tol)
            for k, v in sorted(worst.items())]
    rows.append(_row("entropy_production_min", -production_min,
                     scn.tolerance("entropy", 1e-12),
                     production_min=production_min))
    return rows, {}


def _sphere_rates(scn, flux, suite):
    """``(2 kappa / R^2, 4 pi R^2)``: the decay rate of x3 under the linear
    ``flux`` on the scenario's sphere, and its area (exact-solution data)."""
    if scn.get("surface.kind") != "sphere":
        raise ConfigError(f"{scn.where('surface.kind')}: {suite} needs a sphere")
    if not isinstance(flux.d_expr, Num):
        raise ConfigError(f"{scn.where('flux.kind')}: {suite} needs a linear flux")
    R = scn.builtin_args("surface", "sphere")["R"]
    return 2.0 * flux.d_expr.value / (R * R), 4.0 * math.pi * R * R


def suite_simulate_heat(scn, rng):
    atlas = scn.build_surface()
    res = scn.resolution((32, 64))
    dt, steps = scn.time_window()
    flux = scn.build_flux_law() or flux_law_builtin("linear")
    rate, _ = _sphere_rates(scn, flux, "simulate-heat")
    coeffs = CoefficientFields(F=("0", "0", "0"), Q_theta=0.0)
    solver = SurfaceGridSolver(atlas, res)
    xs = solver.positions(0.0)
    field = GridField([x[2].copy() for x in xs], 0.0)
    series = []
    for k in range(steps):
        field = step_heat(solver, field, coeffs, flux, dt)
        if (k + 1) % max(1, steps // 10) == 0 or k == steps - 1:
            decay = math.exp(-rate * field.t)
            err = worst_of(*(float(np.max(np.abs(v - decay * x[2])))
                             for v, x in zip(field.values, xs)))
            rel = err / max(abs(decay), 1e-30)
            series.append((field.t, rel))
    rows = [_row("heat_decay_relative_error", series[-1][1],
                 scn.tolerance("heat_decay", 1e-3))]
    return rows, {"heat_error": (("t", "relative_error"), series)}


def suite_simulate_diffusion(scn, rng):
    atlas = scn.build_surface()
    res = scn.resolution((32, 64))
    dt, steps = scn.time_window()
    flux = scn.build_flux_law() or flux_law_builtin("linear")
    rate, area = _sphere_rates(scn, flux, "simulate-diffusion")
    q = scn.get_float("coeffs.Q_C", 1.0)
    coeffs = CoefficientFields(Q_C=q)
    solver = SurfaceGridSolver(atlas, res)
    xs = solver.positions(0.0)
    field = GridField([1.0 + 0.5 * x[2] for x in xs], 0.0)
    mass0 = solver.integrate(field.values, 0.0)
    series = [(0.0, mass0, 0.0)]
    for k in range(steps):
        field = step_diffusion(solver, field, coeffs, flux, dt)
        if (k + 1) % max(1, steps // 10) == 0 or k == steps - 1:
            mass = solver.integrate(field.values, field.t)
            decay = math.exp(-rate * field.t)
            err = worst_of(*(float(np.max(np.abs(
                v - (1.0 + q * field.t + 0.5 * decay * x[2]))))
                for v, x in zip(field.values, xs)))
            series.append((field.t, mass, err))
    budget = abs(series[-1][1] - mass0 - q * area * field.t)
    rows = [
        _row("species_budget_error", budget / max(1.0, abs(mass0)),
             scn.tolerance("budget", 1e-6)),
        _row("diffusion_relative_error", series[-1][2],
             scn.tolerance("diffusion", 1e-3)),
    ]
    return rows, {"diffusion_mass": (("t", "mass", "max_error"), series)}


def suite_simulate_barotropic(scn, rng):
    atlas = scn.build_surface()
    res = scn.resolution((32, 64))
    dt, steps = scn.time_window()
    law = scn.build_pressure_law()
    if law is None:
        raise ConfigError(f"{scn.source}: simulate-barotropic needs pressure.kind")
    solver = SurfaceGridSolver(atlas, res)
    rho0 = scn.get_scalar_field("fields.rho0", ScalarField("2 + 0.2*x3"))
    v0 = scn.get_vector_field("fields.v0", as_vector_field(("-x2", "x1", "0")))
    st = solver.snapshot(0.0)
    x, P = solver.grid.interior(st.x), solver.grid.interior(st.P)
    vt = np.einsum("ij...,j...->i...", P, v0.value(x, 0.0))
    field = GridField(np.stack([rho0.value(x, 0.0), *vt], axis=1), 0.0)
    mass0 = solver.integrate(field.values[:, 0], 0.0)
    series = [(0.0, mass0)]
    for k in range(steps):
        field = step_barotropic_tangential(solver, field, law, dt)
        if (k + 1) % max(1, steps // 10) == 0 or k == steps - 1:
            series.append((field.t, solver.integrate(field.values[:, 0], field.t)))
    drift = worst_of(*(abs(m - mass0) for _, m in series)) / max(1.0, abs(mass0))
    rows = [_row("barotropic_mass_drift", drift, scn.tolerance("mass", 1e-8))]
    return rows, {"barotropic_mass": (("t", "mass"), series)}


def suite_check_variations(scn, rng):
    T, nt = scn.variation_window()
    atlas = scn.build_surface()
    motion = scn.build_motion()
    rule = _rule_for(scn, atlas)
    law = scn.build_pressure_law()
    flux = scn.build_flux_law() or flux_law_builtin("quadratic")
    eps = scn.eps_ladder()

    zdir = scn.get_vector_field("variation.z", as_vector_field(
        ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")))
    var = time_window_variation(zdir, T)
    phi = VariationField(scn.get_vector_field("variation.phi", as_vector_field(
        ("0.4*x3 + x1*x2", "cos(x2)", "0.2 - x1"))))

    rows = []
    rows.append(_row("variation_initial_residual",
                     var.initial_residual(atlas, rule),
                     scn.tolerance("initial", 1e-12)))

    rep = check_action_variation(atlas, motion, var, rho0=1.0, T=T, law=law,
                                 eps_list=eps, rule=rule, nt=nt)
    rows.append(_slope_row("action_variation_slope", rep,
                           scn.tolerance("slope", 0.1)))
    rows.append(_row("action_variation_extrapolated",
                     rep["extrapolated_error"],
                     scn.tolerance("extrapolated", 1e-6),
                     analytic=rep["analytic"]))

    fields, _ = _scenario_fields(scn, rng)
    drep = check_dissipation_work_variation(
        fields.v, fields.sigma, 1.0, 0.5, fields.rho,
        scn.get_vector_field("coeffs.F", as_vector_field(("0.1", "0", "-0.2"))),
        phi, atlas, rule=rule, t=scn.get_float("t", 0.0))
    rows.append(_row("dissipation_work_variation", drep["error"],
                     scn.tolerance("dissipation", 1e-7)))

    lin = check_flux_variation("x3", flux_law_builtin("linear"), "0.5*x1 + x2*x3",
                               atlas, rule=rule)
    rows.append(_row("flux_variation_linear", worst_of(*lin["errors"]),
                     scn.tolerance("flux_linear", 1e-8)))
    rows.append(_row("flux_kernel_gradient", lin["kernel_gradient_residual"],
                     scn.tolerance("kernel", 1e-10)))
    nl = check_flux_variation("x1 + 2*x3", flux, "0.5*x1 + x2*x3",
                              atlas, rule=rule, eps_list=eps)
    rows.append(_slope_row("flux_variation_nonlinear_slope", nl,
                           scn.tolerance("slope", 0.1)))

    rows.append(_row("jacobian_variation_identity", jacobian_variation_residual(
        atlas, motion, var, 0.5 * T,
        QuadratureRule(atlas, order=24, periodic_order=48)),
        scn.tolerance("jacobian_variation", 1e-7)))
    rows.append(_row("tangential_pairing", tangential_pairing_residual(
        fields.v, zdir, atlas, rule), scn.tolerance("pairing", 1e-10)))
    return rows, {}


def suite_check_representations(scn, rng):
    atlas = scn.build_surface()
    motion = scn.build_motion()
    if motion.name not in ("dilation", "static"):
        raise ConfigError(f"{scn.source}: check-representations needs the "
                          "dilation or static motion (the exact transported "
                          "density must be available in closed form)")
    rule = _rule_for(scn, atlas)
    law = scn.build_pressure_law()
    flux = scn.build_flux_law()
    t_eval = scn.get_float("t", 0.3)
    draws = scn.get_int("draws", 3)
    tol = scn.tolerance("representation", 1e-7)

    worst = {}
    for _ in range(draws):
        rho0 = ScalarField(2.0 + random_scalar_field(rng, 0.2).expr)
        rho = (dilation_density(rho0) if motion.name == "dilation" else rho0)
        fields = FluidFields(
            rho=rho, v=motion.velocity,
            sigma=random_scalar_field(rng),
            e=ScalarField(1.0 + random_scalar_field(rng, 0.3).expr),
            theta=random_scalar_field(rng), C=random_scalar_field(rng))
        coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.2, nu=0.8,
                                   F=random_vector_field(rng))
        rep = check_energy_representations(atlas, motion, fields, coeffs,
                                           t=t_eval, law=law, flux=flux,
                                           rule=rule)
        for name, pair in rep.items():
            worst[name] = worst_of(worst.get(name, 0.0), pair["rel_mismatch"])
    rows = [_row(f"representation_{name}", val, tol)
            for name, val in sorted(worst.items())]
    return rows, {}


def _conserved_series(scn, atlas, motion):
    """Rows (t, mass, momentum, energy, concentration, angular momentum) of
    the transported state at up to ten checkpoints; the states die here."""
    dt, steps = scn.time_window()
    res = scn.resolution()
    rho0 = scn.get_scalar_field("fields.rho0", ScalarField("2 + 0.3*x3"))
    C0 = scn.get_scalar_field("fields.C0", ScalarField("1 + 0.2*x1"))
    e0 = scn.get_float("fields.e0", 0.7)
    vel = motion.velocity
    cur = FlowState.create(atlas, resolution=res)
    rows_ts = []
    ncheck = min(10, steps)
    for k in range(ncheck + 1):
        if k > 0:
            n = steps // ncheck + (1 if k <= steps % ncheck else 0)
            cur = advance_flow(cur, motion, dt, steps=n)
        rho = transport_scalar(cur, rho0)
        conc = transport_scalar(cur, C0)
        vv = [vel.value(x, cur.t) for x in cur.x]
        mass = integrate_grid(cur, values=rho)
        mom = integrate_grid_vector(cur, [r * v for r, v in zip(rho, vv)])
        eA = integrate_grid(cur, values=[
            r * (0.5 * np.einsum("i...,i...->...", v, v) + e0)
            for r, v in zip(rho, vv)])
        cint = integrate_grid(cur, values=conc)
        ang = []
        for i in range(3):
            j, l = (i + 1) % 3, (i + 2) % 3
            ang.append(integrate_grid(cur, values=[
                x[j] * r * v[l] - x[l] * r * v[j]
                for x, r, v in zip(cur.x, rho, vv)]))
        rows_ts.append((cur.t, mass, *mom, eA, cint, *ang))
    return rows_ts


def suite_conservation_report(scn, rng):
    """Conserved-integral drifts along an exactly transported state, plus the
    closed-surface vanishing of the integrated stress divergence."""
    atlas = scn.build_surface()
    rows_ts = _conserved_series(scn, atlas, scn.build_motion())
    arr = np.asarray(rows_ts)
    names = ("mass", "momentum_x", "momentum_y", "momentum_z",
             "energy", "concentration", "angular_x", "angular_y", "angular_z")
    tol = scn.tolerance("drift", 1e-6)
    rows = []
    for k, name in enumerate(names):
        col = arr[:, 1 + k]
        drift = float(np.max(np.abs(col - col[0]))) / max(1.0,
                                                          float(np.max(np.abs(col))))
        rows.append(_row(f"drift_{name}", drift, tol))

    # integrated surface-stress divergence vanishes on a closed surface
    rule = _rule_for(scn, atlas)
    draws = [(random_vector_field(rng), random_scalar_field(rng))
             for _ in range(scn.get_int("stress_draws", 3))]

    def block(chart, X, w, psi):
        frame = chart.frame(X[0], X[1], 0.0)
        wgt = w * psi * frame.values(frame.sqrtJ)
        return np.stack([wgt * div_matrix_dual(
            stress_dual(v, sig, 1.0, 0.5, frame)[0], frame)
            for v, sig in draws])
    worst = worst_of(0.0, *(float(np.max(np.abs(total))) for total in
                            rule_sums(atlas, rule, block)))
    rows.append(_row("stress_divergence_integral", worst,
                     scn.tolerance("stress", 1e-7)))

    header = ("t",) + names
    return rows, {"conservation": (header, rows_ts)}


_SUITE_FUNCS = {
    "verify-geometry": suite_verify_geometry,
    "verify-identities": suite_verify_identities,
    "transport": suite_transport,
    "residuals": suite_residuals,
    "simulate-heat": suite_simulate_heat,
    "simulate-diffusion": suite_simulate_diffusion,
    "simulate-barotropic": suite_simulate_barotropic,
    "check-variations": suite_check_variations,
    "check-representations": suite_check_representations,
    "conservation-report": suite_conservation_report,
}


# -- CLI ----------------------------------------------------------------------------


@click.group()
def main():
    """Verification suites and simulations on evolving closed surfaces."""


@main.command("run")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--suite", "suite_override", default=None,
              help="Run only this suite (overrides the scenario).")
@click.option("--out", "out_dir", default=None,
              help="Output directory (default: <scenario name>_out).")
def run(scenario_file, suite_override, out_dir):
    """Execute the suites of a scenario file; exit 0 iff all checks pass."""
    try:
        scn = load_scenario(scenario_file)
        suites = [suite_override] if suite_override else scn.suites()
        where = "" if suite_override else f"{scn.where('suite')}: "
        for s in suites:
            if s not in _SUITE_FUNCS:
                raise ConfigError(f"{where}unknown suite {s!r}; "
                                  f"known: {sorted(_SUITE_FUNCS)}")
    except ConfigError as exc:
        raise click.ClickException(str(exc))

    file_out = scn.get("out", f"{scn.name}_out")  # read under --out too
    out_dir = out_dir or file_out
    os.makedirs(out_dir, exist_ok=True)

    summary = {"scenario": scn.name, "seed": scn.seed(), "suites": {}}
    all_pass, raised = True, False
    for s in suites:
        rng = np.random.default_rng(scn.seed())
        try:
            rows, csvs = _SUITE_FUNCS[s](scn, rng)
        except ConfigError as exc:
            raise click.ClickException(str(exc))
        except Exception as exc:  # a failed row; the other suites still run
            rows, csvs, raised = [_row("error", math.nan, 0.0, message=(
                f"{type(exc).__name__}: {exc}"))], {}, True
        ok = all(r["pass"] for r in rows)
        all_pass = all_pass and ok
        summary["suites"][s] = {"pass": ok, "checks": rows}
        cols = ("check", "value", "tolerance", "pass")
        csvs[s] = (cols, [[r[c] for c in cols] for r in rows])
        for name, (header, data) in csvs.items():
            _write_csv(os.path.join(out_dir, f"{name}.csv"), header, data)
        status = "PASS" if ok else "FAIL"
        click.echo(f"[{status}] {s}: {len(rows)} checks")
        for r in rows:
            mark = "ok" if r["pass"] else "FAIL"
            note = " (inconclusive)" if r.get("inconclusive") else ""
            note += f" {r['message']}" if "message" in r else ""
            click.echo(f"    {mark:4s} {r['check']}: {r['value']:.3e} "
                       f"<= {r['tolerance']:.1e}{note}")

    if not suite_override and not raised:  # a raised suite left keys unread
        try:
            scn.check_consumed()
        except ConfigError as exc:
            raise click.ClickException(str(exc))

    summary["pass"] = all_pass
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    raise SystemExit(0 if all_pass else 1)


def _write_csv(path, header, rows):
    """A CSV of ``rows`` under ``header``: str and bool cells as they are,
    any other cell as the repr of its float (full precision)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([c if isinstance(c, (str, bool)) else repr(float(c))
                      for c in row] for row in rows)


@main.command("list-builtins")
def list_builtins():
    """Print the built-in surfaces, motions, closure laws, and suites."""
    for section, table in BUILTINS.items():
        click.echo(f"{section}.kind:")
        for kind, factory in table.items():
            click.echo(f"  {kind}{signature(factory)}")
    click.echo("suite:")
    for name in _SUITE_FUNCS:
        click.echo(f"  {name}")


@main.command("version")
def version():
    """Print the package version."""
    click.echo(__version__)


if __name__ == "__main__":
    main()
