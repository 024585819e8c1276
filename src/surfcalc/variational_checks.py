"""Finite-epsilon verification of first-variation formulas and energies.

Functionals of the flow map (the action integral, optionally with a
barotropic pressure) and of the velocity/scalar fields (viscous dissipation,
work, gradient-flux energies) are perturbed along explicit direction fields.
Central differences in epsilon are compared against the analytic first
variations; each energy is additionally evaluated through two independent
routes (an ambient surface integral and a reference-coordinate kernel) that
must agree to quadrature precision.

Flow-map variations are exact: the perturbed chart map is the expression-level
composition ``x + eps * z(x, t)``, so the varied surface is the image of the
displaced parametrization with no projection step.
"""

from __future__ import annotations

import numpy as np

from .chart_geometry import (Chart, ChartAtlas, QuadratureRule, default_rule,
                             metric_at)
from .evolving_surface import moving_atlas, worst_of
from .expressions import Num, Var, parse_expr, substitute
from .fields import (FDScalarField, ScalarField, VectorField, as_scalar_field,
                     as_vector_field)
from .surface_ops import (_tangential_partial, dissipation_density,
                          div_matrix_dual, div_vector_dual, grad_scalar_dual,
                          stress_dual, strain_dual)

__all__ = [
    "DegenerateGradient",
    "VariationField",
    "time_window_variation",
    "varied_atlas",
    "action_integral",
    "action_first_variation",
    "check_action_variation",
    "dissipation_work_energy",
    "check_dissipation_work_variation",
    "gradient_flux_energy",
    "check_flux_variation",
    "check_energy_representations",
    "jacobian_variation_residual",
    "tangential_pairing_residual",
]

_X = ("X1", "X2")
_AMB = ("x1", "x2", "x3")
_EPS_MACH = float(np.finfo(float).eps)


class DegenerateGradient(RuntimeError):
    """A nonlinear flux variation was requested where the gradient vanishes."""


# -- variation direction fields -------------------------------------------------


class VariationField:
    """A smooth ambient direction field z(x, t) for functional variations.

    For flow-map variations the field must vanish at the endpoints of the
    time window (so the perturbed map shares the initial surface and the
    time boundary terms drop); :func:`time_window_variation` builds such a
    field from any smooth direction.  ``tangential`` marks a field claimed
    to satisfy z . n = 0; the claim is checked at sample nodes, never
    enforced by projection of the flow map itself.
    """

    def __init__(self, direction, tangential=False):
        self.direction = as_vector_field(direction)
        self.tangential = bool(tangential)

    def values(self, x, t=0.0):
        return self.direction.value(x, t)

    def initial_residual(self, atlas, rule, t0=0.0):
        """Max |z| over the quadrature nodes at the initial time."""
        worst = 0.0
        for chart, (X, _, _) in zip(atlas.charts, rule.nodes):
            x = chart.position(X[0], X[1], t0)
            worst = worst_of(worst, float(np.max(np.abs(self.values(x, t0)))))
        return worst

    def tangency_residual(self, atlas, rule, t=0.0):
        """Max |z . n| over the quadrature nodes at time ``t``."""
        worst = 0.0
        for chart, (X, _, _) in zip(atlas.charts, rule.nodes):
            st = metric_at(chart, X, t)
            zn = np.einsum("i...,i...->...", self.values(st.x, t), st.n)
            worst = worst_of(worst, float(np.max(np.abs(zn))))
        return worst


def time_window_variation(direction, T, tangential=False):
    """Direction field ``t (T - t) w(x, t)``: vanishes at t = 0 and t = T."""
    w = as_vector_field(direction)
    ramp = parse_expr(f"t*({float(T)} - t)", _AMB + ("t",))
    comps = []
    for c in w.comp:
        if not isinstance(c, ScalarField):
            raise TypeError("flow-map variations need expression-backed components")
        comps.append(ScalarField(ramp * c.expr))
    return VariationField(VectorField(comps), tangential=tangential)


def _compose_ambient(expr, param):
    """Substitute the chart map into an ambient expression (x_i -> param_i)."""
    out = expr
    for name, rep in zip(_AMB, param):
        out = substitute(out, name, rep)
    return out


def varied_atlas(atlas, variation, eps):
    """Atlas whose chart maps are displaced by ``eps * z`` at expression level.

    The perturbed surface is the exact image of ``x + eps z(x, t)``; all
    geometry of the varied configuration (metric, Jacobian, velocity) then
    follows from exact differentiation of the displaced parametrization.
    """
    charts = []
    for ch in atlas.charts:
        param = []
        for i in range(3):
            c = variation.direction.comp[i]
            if not isinstance(c, ScalarField):
                raise TypeError(
                    "flow-map variations need expression-backed components")
            param.append(ch.param[i]
                         + Num(float(eps)) * _compose_ambient(c.expr, ch.param))
        charts.append(Chart(param, ch.domain, ch.periodic, ch.orientation,
                            ch.pou_bump, ch.invert, ch.name + "+var"))
    return ChartAtlas(charts, name=atlas.name + "+var")


# -- fast plain-value chart evaluation (no dual overhead) -----------------------


def _plain_chart_data(chart, X, t):
    """Positions, time derivative, and area element by direct expression
    evaluation (values only; used in the epsilon ladder where no further
    derivatives are needed)."""
    d = chart._dparam
    x, xt, g1, g2 = np.split(chart.evaluate(
        chart.param + d["t"] + d["X1"] + d["X2"], X[0], X[1], t), 4)
    e11 = np.einsum("i...,i...->...", g1, g1)
    e22 = np.einsum("i...,i...->...", g2, g2)
    e12 = np.einsum("i...,i...->...", g1, g2)
    J = e11 * e22 - e12 * e12
    return x, xt, J, np.sqrt(J)


def _simpson_nodes(T, nt):
    if nt < 2 or nt % 2:
        raise ValueError("nt must be a positive even interval count")
    ts = np.linspace(0.0, float(T), nt + 1)
    wt = np.ones(nt + 1)
    wt[1:-1:2] = 4.0
    wt[2:-1:2] = 2.0
    wt *= float(T) / (3.0 * nt)
    return ts, wt


# -- action integral and its variation ------------------------------------------


def action_integral(atlas, motion, rho0, T, law=None, rule=None, nt=16,
                    variation=None, eps=0.0, abs_sum=False):
    """Action of the (possibly perturbed) flow over [0, T], in reference form.

    A = -int_0^T int psi { (1/2) rho0_tilde |x_t|^2 - p(rho0_tilde/sqrtJ) sqrtJ }
    over the chart rectangles, with Simpson quadrature in time.  The density
    never needs a separate solve: the continuity equation is built into the
    conserved-weight representation.  ``variation``/``eps`` displace the flow
    map by ``eps * z`` exactly.  With ``abs_sum`` the result is the pair
    ``(A, sum of |summed terms|)``; machine epsilon times the second bounds
    the rounding error of the first.
    """
    if rule is None:
        rule = default_rule(atlas)
    mov = moving_atlas(atlas, motion)
    if variation is not None and eps != 0.0:
        mov = varied_atlas(mov, variation, eps)
    ts, wt = _simpson_nodes(T, nt)
    # the first Simpson node is the reference time t = 0: its chart data
    # also gives the conserved density weights rho0(x(X, 0)) * sqrtJ(0)
    data = [_plain_chart_data(chart, X, ts[0])
            for chart, (X, _, _) in zip(mov.charts, rule.nodes)]
    rho0 = as_scalar_field(rho0)
    rho0t = [rho0.value(x0, 0.0) * sJ0 for x0, _, _, sJ0 in data]
    total = 0.0
    magnitude = 0.0
    for k, (tk, wk) in enumerate(zip(ts, wt)):
        for m, (chart, (X, w, psi)) in enumerate(zip(mov.charts, rule.nodes)):
            if k:
                data[m] = _plain_chart_data(chart, X, tk)
            _, xt, _, sJ = data[m]
            kernel = 0.5 * rho0t[m] * np.einsum("i...,i...->...", xt, xt)
            if law is not None:
                kernel = kernel - law.p(rho0t[m] / sJ) * sJ
            terms = w * psi * kernel
            total -= wk * float(np.sum(terms))
            magnitude += wk * float(np.sum(np.abs(terms)))
    return (total, magnitude) if abs_sum else total


def action_first_variation(atlas, motion, variation, rho0, T, law=None,
                           rule=None, nt=16):
    """Analytic first variation of the action along ``variation``.

    Evaluates the surface integral of { rho D_t v [+ grad_G peff + peff H n] }
    . z over the unperturbed evolving surface, with the density taken from
    the exact conserved-weight representation and the effective pressure
    peff = rho p'(rho) - p(rho).
    """
    if rule is None:
        rule = default_rule(atlas)
    mov = moving_atlas(atlas, motion)
    vel = motion.velocity
    z = variation.direction
    ts, wt = _simpson_nodes(T, nt)
    total = 0.0
    for m, (chart, base) in enumerate(zip(mov.charts, atlas.charts)):
        X, w, psi = rule.nodes[m]
        # conserved density weight as a dual quantity in the chart coordinates
        frame0 = base.frame(X[0], X[1], 0.0)
        rho0t_d = frame0.eval_scalar(as_scalar_field(rho0)) * frame0.sqrtJ
        del frame0  # one frame alive at a time
        for tk, wk in zip(ts, wt):
            frame = chart.frame(X[0], X[1], tk)
            sJ = frame.values(frame.sqrtJ)
            x = frame.values(frame.x)
            rho_d = rho0t_d / frame.sqrtJ
            rho = frame.values(rho_d)
            # material acceleration of the prescribed velocity (ambient route)
            vval = vel.value(x, tk)
            jac = vel.jacobian(x, tk)
            Dt_v = vel.dt(x, tk) + np.einsum("j...,ij...->i...", vval, jac)
            force = rho * Dt_v
            if law is not None:
                peff_d = law.eff_expr.evaluate({"r": rho_d})
                gradp = np.stack([_tangential_partial(frame, peff_d, i)
                                  for i in range(3)])
                force = (force + gradp
                         + frame.values(peff_d) * frame.H * frame.values(frame.n))
            zval = z.value(x, tk)
            kernel = np.einsum("i...,i...->...", force, zval)
            total += wk * float(np.sum(w * psi * kernel * sJ))
            del frame  # free it before the next one is built
    return total


def _ladder_report(energy, eps_list, analytic):
    """Central-difference ladder of ``energy(e) -> (value, sum of |terms|)``
    against the analytic derivative.

    Each rung's rounding noise is eps_mach * (|terms| at +e and at -e) / (2 e).
    The slope is fitted only on rungs whose error is above ten times their
    own noise (``None`` with fewer than two); ``floor_limited`` marks a
    ladder with no such rung and every error finite.  The Richardson
    extrapolation uses the two finest rungs.
    """
    eps_list = sorted(float(e) for e in eps_list)[::-1]
    fd, noise = [], []
    for e in eps_list:
        (vp, sp), (vm, sm) = energy(e), energy(-e)
        fd.append((vp - vm) / (2.0 * e))
        noise.append(_EPS_MACH * (sp + sm) / (2.0 * e))
    errs = [abs(d - analytic) for d in fd]
    pts = [(e, r) for e, r, n in zip(eps_list, errs, noise) if r > 10.0 * n]
    slope = None
    if len(pts) >= 2:
        le, lr = np.log(np.array(pts)).T
        slope = float(np.polyfit(le, lr, 1)[0])
    e1, e2 = eps_list[-2], eps_list[-1]
    extrapolated = ((e1 * e1 * fd[-1] - e2 * e2 * fd[-2])
                    / (e1 * e1 - e2 * e2))
    return {
        "eps": eps_list,
        "fd": fd,
        "analytic": analytic,
        "errors": errs,
        "noise": noise,
        "slope": slope,
        "extrapolated": extrapolated,
        "extrapolated_error": abs(extrapolated - analytic),
        "floor_limited": not pts and bool(np.all(np.isfinite(errs))),
    }


def check_action_variation(atlas, motion, variation, rho0=1.0, T=0.4,
                           law=None, eps_list=(1e-2, 3e-3, 1e-3, 3e-4),
                           rule=None, nt=16):
    """Central-difference derivative of the action versus its analytic value.

    Returns a report with the finite-difference values per epsilon, the
    estimated rounding noise per rung, the error-versus-epsilon slope (2.0
    expected for the central-difference remainder) fitted on the rungs above
    their noise, and the Richardson extrapolation over the two finest
    epsilons.  ``floor_limited`` flags ladders where no rung rises above its
    estimated rounding noise, so no slope is meaningful.
    """
    if rule is None:
        rule = default_rule(atlas)
    analytic = action_first_variation(atlas, motion, variation, rho0, T,
                                      law=law, rule=rule, nt=nt)
    report = _ladder_report(
        lambda e: action_integral(atlas, motion, rho0, T, law=law, rule=rule,
                                  nt=nt, variation=variation, eps=e,
                                  abs_sum=True),
        eps_list, analytic)
    if variation.tangential:
        report["tangency_residual"] = variation.tangency_residual(
            moving_atlas(atlas, motion), rule, t=0.5 * T)
    return report


# -- dissipation/work variation --------------------------------------------------


def _shifted_field(base, direction, eps):
    if isinstance(base, ScalarField) and isinstance(direction, ScalarField):
        return ScalarField(base.expr + Num(float(eps)) * direction.expr)
    return FDScalarField(
        lambda x1, x2, x3, t=0.0, _b=base, _d=direction, _e=float(eps):
        _b(x1, x2, x3, t) + _e * _d(x1, x2, x3, t))


def _shifted_velocity(v, phi, eps):
    return VectorField([_shifted_field(a, b, eps)
                        for a, b in zip(v.comp, phi.comp)])


def _dissipation_work_terms(v, sigma, mu, lam, rho, F, frame, st, wgt, t):
    """One chart's dissipation + work energy on ``frame`` (snapshot ``st``,
    surface weights ``wgt``)."""
    Dproj, divv = strain_dual(v, frame)
    ed = frame.values(dissipation_density(
        Dproj, divv, frame.eval_scalar(mu), frame.eval_scalar(lam)))
    divv = frame.values(divv)
    vval = v.value(st.x, t)
    work = (divv * sigma.value(st.x, t)
            + rho.value(st.x, t)
            * np.einsum("i...,i...->...", F.value(st.x, t), vval))
    return float(np.sum(wgt * (-0.5 * ed + work)))


def dissipation_work_energy(v, sigma, mu, lam, rho, F, atlas, rule, t=0.0):
    """E = -int (1/2)(2 mu |D_G(v)|^2 + lam |div_G v|^2) + int (div_G v) sigma
    + int rho F . v over the surface at time ``t``."""
    args = (as_vector_field(v), as_scalar_field(sigma), as_scalar_field(mu),
            as_scalar_field(lam), as_scalar_field(rho), as_vector_field(F))
    total = 0.0
    for chart, (X, w, psi) in zip(atlas.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], t)
        st = frame.metric()
        total += _dissipation_work_terms(*args, frame, st,
                                         w * psi * st.sqrtJ, t)
    return total


def check_dissipation_work_variation(v, sigma, mu, lam, rho, F, phi, atlas,
                                     rule=None, t=0.0, eps=1e-3):
    """Velocity variation of the dissipation + work functional.

    The functional is quadratic in epsilon, so the central difference is
    exact up to quadrature; the analytic side is the surface force
    int { div_G(2 mu D_G(v) + lam (div_G v) P - sigma P) + rho F } . phi.
    Both rungs and the analytic side are evaluated on one frame per chart.
    """
    if rule is None:
        rule = default_rule(atlas)
    v = as_vector_field(v)
    sigma, mu, lam, rho_f = (as_scalar_field(a) for a in (sigma, mu, lam, rho))
    F_f = as_vector_field(F)
    direction = phi.direction if isinstance(phi, VariationField) else as_vector_field(phi)
    tangential = isinstance(phi, VariationField) and phi.tangential
    shifted = [_shifted_velocity(v, direction, e) for e in (eps, -eps)]

    energy = [0.0, 0.0]
    analytic = 0.0
    for chart, (X, w, psi) in zip(atlas.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], t)
        st = frame.metric()
        wgt = w * psi * st.sqrtJ
        for k, vk in enumerate(shifted):
            energy[k] += _dissipation_work_terms(vk, sigma, mu, lam, rho_f,
                                                 F_f, frame, st, wgt, t)
        S = stress_dual(v, sigma, mu, lam, frame)[0]
        force = div_matrix_dual(S, frame) + rho_f.value(st.x, t) * F_f.value(st.x, t)
        phival = direction.value(st.x, t)
        if tangential:
            force = np.einsum("ij...,j...->i...", st.P, force)
        kernel = np.einsum("i...,i...->...", force, phival)
        analytic += float(np.sum(wgt * kernel))
    fd = (energy[0] - energy[1]) / (2.0 * eps)

    report = {"fd": fd, "analytic": analytic, "error": abs(fd - analytic),
              "eps": float(eps)}
    if tangential:
        report["tangency_residual"] = phi.tangency_residual(atlas, rule, t)
    return report


# -- gradient-flux (generalized diffusion) variation ------------------------------


def _flux_energy_terms(f, flux, frame, w, psi):
    """One chart's flux-energy terms w psi sqrtJ e_J(|grad_G f|^2) on
    ``frame``: their sum and the sum of their magnitudes."""
    zeta = frame.values(sum(c * c for c in grad_scalar_dual(f, frame)))
    terms = w * psi * frame.values(frame.sqrtJ) * flux.density(zeta)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def _flux_energy(chart_terms):
    """``(E, sum of |summed terms|)`` from per-chart :func:`_flux_energy_terms`
    in chart order."""
    total = 0.0
    magnitude = 0.0
    for s, a in chart_terms:
        total -= 0.5 * s
        magnitude += 0.5 * a
    return total, magnitude


def gradient_flux_energy(f, flux, atlas, rule, t=0.0, abs_sum=False):
    """E = -int (1/2) e_J(|grad_G f|^2) over the surface at time ``t``.

    With ``abs_sum`` the result is the pair ``(E, sum of |summed terms|)``,
    as in :func:`action_integral`.
    """
    f = as_scalar_field(f)
    total, magnitude = _flux_energy(
        _flux_energy_terms(f, flux, chart.frame(X[0], X[1], t), w, psi)
        for chart, (X, w, psi) in zip(atlas.charts, rule.nodes))
    return (total, magnitude) if abs_sum else total


def _kernel_gradient_residual(flux, grad_vals):
    """Pointwise check that the partial derivatives of the flux energy
    kernel at the gradient components reproduce minus the flux vector."""
    th = [Var(f"th{i + 1}") for i in range(3)]
    kernel = Num(-0.5) * substitute(
        flux.e_expr, "z", th[0] * th[0] + th[1] * th[1] + th[2] * th[2])
    zeta = np.einsum("i...,i...->...", grad_vals, grad_vals)
    q = flux.deriv(zeta) * grad_vals
    env = {f"th{i + 1}": grad_vals[i] for i in range(3)}
    worst = 0.0
    for i in range(3):
        lhs = np.asarray(kernel.diff(f"th{i + 1}").evaluate(env), dtype=float)
        worst = worst_of(worst, float(np.max(np.abs(lhs + q[i]))))
    return worst


def check_flux_variation(f, flux, phi, atlas, rule=None, t=0.0,
                         eps_list=(1e-2, 3e-3, 1e-3, 3e-4)):
    """Scalar variation of the gradient-flux energy versus the flux divergence.

    The analytic side is int div_G(e_J'(|grad_G f|^2) grad_G f) phi.  The
    report is that of :func:`check_action_variation`: the slope is fitted on
    the rungs above their estimated rounding noise, and ``floor_limited``
    flags a ladder with none.  Also performs the pointwise kernel-derivative
    consistency check.  Nonlinear laws require a nowhere-vanishing gradient.
    """
    if rule is None:
        rule = default_rule(atlas)
    f = as_scalar_field(f)
    phi = as_scalar_field(phi)
    linear = isinstance(flux.d_expr, Num)

    # every rung's shifted energy is evaluated on the analytic side's frame
    rungs = [s * float(e) for e in eps_list for s in (1.0, -1.0)]
    shifted = {e: _shifted_field(f, phi, e) for e in rungs}
    terms = {e: [] for e in rungs}

    analytic = 0.0
    kernel_res = 0.0
    for chart, (X, w, psi) in zip(atlas.charts, rule.nodes):
        frame = chart.frame(X[0], X[1], t)
        st = frame.metric()
        gf = grad_scalar_dual(f, frame)
        grad_vals = frame.values(gf)
        if not linear:
            gnorm = np.sqrt(np.einsum("i...,i...->...", grad_vals, grad_vals))
            if np.min(gnorm) < 1e-8:
                raise DegenerateGradient(
                    "nonlinear flux variation needs |grad_G f| bounded away from 0")
        zeta_d = sum(c * c for c in gf)
        q = [flux.d_expr.evaluate({"z": zeta_d}) * gf[i] for i in range(3)]
        divq = div_vector_dual(q, frame)
        analytic += float(np.sum(w * psi * st.sqrtJ * divq * phi.value(st.x, t)))
        kernel_res = worst_of(kernel_res, _kernel_gradient_residual(flux, grad_vals))
        for e, fe in shifted.items():
            terms[e].append(_flux_energy_terms(fe, flux, frame, w, psi))

    report = _ladder_report(lambda e: _flux_energy(terms[e]), eps_list,
                            analytic)
    report["linear"] = linear
    report["kernel_gradient_residual"] = kernel_res
    return report


# -- dual energy representations --------------------------------------------------


def check_energy_representations(atlas, motion, fields, coeffs, t, law=None,
                                 flux=None, grad_field=None, rule=None):
    """Each energy evaluated through two independent routes.

    The *surface* route integrates the ambient-operator energy density over
    the moving surface; the *reference* route integrates the corresponding
    chart kernel (conserved density weights, flow-map time derivative, metric
    rate g'_ab built from the chart derivatives of the velocity).  Returns a
    dict of {surface, reference, rel_mismatch} per energy, with the mismatch
    relative to max(1, |surface|, |reference|).

    ``fields.rho`` must be the transported density of the motion (checked by
    construction: its t=0 trace provides the reference weights) and
    ``fields.v`` the motion's velocity.  ``grad_field`` (default
    ``fields.theta``) feeds the generalized-flux energy.
    """
    if rule is None:
        rule = default_rule(atlas)
    mov = moving_atlas(atlas, motion)
    gfld = as_scalar_field(grad_field) if grad_field is not None else fields.theta

    surf = {}
    ref = {}

    def add(name, a, b):
        surf[name] = surf.get(name, 0.0) + a
        ref[name] = ref.get(name, 0.0) + b

    for m, chart in enumerate(mov.charts):
        X, w, psi = rule.nodes[m]
        x0, _, _, sJ0 = _plain_chart_data(chart, X, 0.0)
        rho0t = fields.rho.value(x0, 0.0) * sJ0

        frame = chart.frame(X[0], X[1], t)
        st = frame.metric()
        wgt = w * psi * st.sqrtJ          # surface measure
        wref = w * psi                    # reference measure (kernels carry sqrtJ)

        xt = frame.values(frame.x, "t")
        xt2 = np.einsum("i...,i...->...", xt, xt)

        # metric rate from the chart derivatives of the velocity
        v_d = [frame.eval_scalar(c) for c in fields.v.comp]
        gdot_basis = np.stack([frame.values(v_d, a) for a in _X])   # (2, 3, ...)
        gdot = (np.einsum("ai...,bi...->ab...", st.g, gdot_basis)
                + np.einsum("ai...,bi...->ab...", gdot_basis, st.g))

        # ambient pointwise data
        rho = fields.rho.value(st.x, t)
        vval = fields.v.value(st.x, t)
        v2 = np.einsum("i...,i...->...", vval, vval)
        jac = fields.v.jacobian(st.x, t)
        divv = np.einsum("ij...,ij...->...", st.P, jac)
        D = 0.5 * (jac + np.einsum("ij...->ji...", jac))
        Dproj = np.einsum("ij...,jk...,kl...->il...", st.P, D, st.P)
        mu = coeffs.mu.value(st.x, t)
        lam = coeffs.lam.value(st.x, t)
        kap = coeffs.kappa.value(st.x, t)
        nu = coeffs.nu.value(st.x, t)
        sig = fields.sigma.value(st.x, t)
        evals = fields.e.value(st.x, t)
        Fval = coeffs.F.value(st.x, t)

        # kinetic / total / work-by-force energies
        add("kinetic",
            float(np.sum(wgt * 0.5 * rho * v2)),
            float(np.sum(wref * 0.5 * rho0t * xt2)))
        add("total",
            float(np.sum(wgt * (0.5 * rho * v2 + rho * evals))),
            float(np.sum(wref * rho0t
                         * (0.5 * xt2 + fields.e.value(st.x, t)))))
        add("force_work",
            float(np.sum(wgt * rho * np.einsum("i...,i...->...", Fval, vval))),
            float(np.sum(wref * rho0t
                         * np.einsum("i...,i...->...", Fval, xt))))
        if law is not None:
            add("barotropic",
                float(np.sum(wgt * (0.5 * rho * v2 - law.p(rho)))),
                float(np.sum(wref * (0.5 * rho0t * xt2
                                     - law.p(rho0t / st.sqrtJ) * st.sqrtJ))))

        # pressure work and viscous dissipation via the metric rate
        tr_gdot = np.einsum("ab...,ab...->...", st.inv_gram, gdot)
        gdot_sq = np.einsum("ab...,zh...,az...,bh...->...",
                            gdot, gdot, st.inv_gram, st.inv_gram)
        add("pressure_work",
            float(np.sum(wgt * divv * sig)),
            float(np.sum(wref * st.sqrtJ * 0.5 * sig * tr_gdot)))
        ed_surf = 0.5 * (2.0 * mu * np.einsum("ij...,ij...->...", Dproj, Dproj)
                         + lam * divv * divv)
        ed_ref = (0.25 * mu * gdot_sq
                  + 0.5 * lam * (0.5 * tr_gdot) ** 2)
        add("dissipation",
            float(np.sum(wgt * ed_surf)),
            float(np.sum(wref * st.sqrtJ * ed_ref)))

        # gradient energies: ambient projected gradient vs chart form
        def grad_pair(scalar, coef, name):
            g_amb = np.einsum("ij...,j...->i...", st.P, scalar.grad(st.x, t))
            amb = 0.5 * coef * np.einsum("i...,i...->...", g_amb, g_amb)
            s_d = frame.eval_scalar(scalar)
            dch = np.stack([frame.values(s_d, a) for a in _X])
            zeta = np.einsum("ab...,a...,b...->...", st.inv_gram, dch, dch)
            add(name, float(np.sum(wgt * amb)),
                float(np.sum(wref * st.sqrtJ * 0.5 * coef * zeta)))
            return zeta

        grad_pair(fields.theta, kap, "thermal")
        grad_pair(fields.C, nu, "species")
        if flux is not None:
            g_amb = np.einsum("ij...,j...->i...", st.P, gfld.grad(st.x, t))
            zeta_amb = np.einsum("i...,i...->...", g_amb, g_amb)
            s_d = frame.eval_scalar(gfld)
            dch = np.stack([frame.values(s_d, a) for a in _X])
            zeta_ref = np.einsum("ab...,a...,b...->...", st.inv_gram, dch, dch)
            add("flux",
                float(np.sum(wgt * 0.5 * flux.density(zeta_amb))),
                float(np.sum(wref * st.sqrtJ * 0.5 * flux.density(zeta_ref))))

    report = {}
    for name in surf:
        a, b = surf[name], ref[name]
        report[name] = {
            "surface": a,
            "reference": b,
            "rel_mismatch": abs(a - b) / max(1.0, abs(a), abs(b)),
        }
    return report


# -- pointwise variation identities -----------------------------------------------


def jacobian_variation_residual(atlas, motion, variation, t, rule=None,
                                eps=1e-4):
    """Max residual of dJ/d eps = 2 (g^a . d y/dX_a) J at quadrature nodes.

    The left side is a central difference of the Gram determinant of the
    displaced chart maps; the right side contracts the contravariant basis
    with the chart derivatives of the variation along the unperturbed map.
    """
    if rule is None:
        rule = QuadratureRule(atlas, order=24, periodic_order=48)
    mov = moving_atlas(atlas, motion)
    plus = varied_atlas(mov, variation, eps)
    minus = varied_atlas(mov, variation, -eps)
    worst = 0.0
    for m, chart in enumerate(mov.charts):
        X = rule.nodes[m][0]
        _, _, Jp, _ = _plain_chart_data(plus.charts[m], X, t)
        _, _, Jm, _ = _plain_chart_data(minus.charts[m], X, t)
        dJ = (Jp - Jm) / (2.0 * eps)

        frame = chart.frame(X[0], X[1], t)
        st = frame.metric()
        y_d = [frame.eval_scalar(c) for c in variation.direction.comp]
        dy = np.stack([frame.values(y_d, a) for a in _X])
        # contravariant basis g^a = g^{ab} g_b
        gup = np.einsum("ab...,bi...->ai...", st.inv_gram, st.g)
        rhs = 2.0 * np.einsum("ai...,ai...->...", gup, dy) * st.J
        worst = worst_of(worst, float(np.max(np.abs(dJ - rhs))))
    return worst


def tangential_pairing_residual(f, z, atlas, rule=None, t=0.0):
    """|int f . (P z) - int (P f) . z|: the projector moves across the pairing."""
    if rule is None:
        rule = default_rule(atlas)
    f = as_vector_field(f)
    z = as_vector_field(z)
    lhs = 0.0
    rhs = 0.0
    for chart, (X, w, psi) in zip(atlas.charts, rule.nodes):
        st = metric_at(chart, X, t)
        wgt = w * psi * st.sqrtJ
        fv = f.value(st.x, t)
        zv = z.value(st.x, t)
        Pz = np.einsum("ij...,j...->i...", st.P, zv)
        Pf = np.einsum("ij...,j...->i...", st.P, fv)
        lhs += float(np.sum(wgt * np.einsum("i...,i...->...", fv, Pz)))
        rhs += float(np.sum(wgt * np.einsum("i...,i...->...", Pf, zv)))
    return abs(lhs - rhs)
