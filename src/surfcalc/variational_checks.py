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
displaced parametrization with no projection step.  Every ladder forms its
rungs from values evaluated once: an action rung is ``p + eps * C`` (``p``,
``C = z o p`` and their partials per time node and chart), a flux or
dissipation rung ``df + eps * dphi`` (partials, or dual Jacobians, per block).
"""

from __future__ import annotations

import numpy as np

from .chart_geometry import (Chart, ChartAtlas, _geometry, _metric_state,
                             _total, metric_at, rule_sums, rule_terms)
from .evolving_surface import moving_atlas, worst_of
from .expressions import Num, Var, parse_expr, substitute
from .fields import ScalarField, VectorField, as_scalar_field, as_vector_field
from .surface_ops import (_apply, _jac_dual, _Point, dissipation_density,
                          div_matrix_dual, grad_scalar_dual, stress_dual,
                          strain_dual)

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

    def initial_residual(self, atlas, rule, t0=0.0):
        """Max |z| over the quadrature nodes at the initial time."""
        def block(chart, X, w, psi):
            return np.abs(self.direction.value(chart.position(*X, t0), t0))
        return worst_of(0.0, *rule_terms(np.max, atlas.charts, rule, block))

    def tangency_residual(self, atlas, rule, t=0.0):
        """Max |z . n| over the quadrature nodes at time ``t``."""
        def block(chart, X, w, psi):
            st = metric_at(chart, X, t)
            return np.abs(np.einsum("i...,i...->...",
                                    self.direction.value(st.x, t), st.n))
        return worst_of(0.0, *rule_terms(np.max, atlas.charts, rule, block))


def time_window_variation(direction, T):
    """Direction field ``t (T - t) w(x, t)``: vanishes at t = 0 and t = T."""
    w = as_vector_field(direction)
    ramp = parse_expr(f"t*({float(T)} - t)", _AMB + ("t",))
    comps = [ScalarField(ramp * c.expr) for c in w.comp]
    return VariationField(VectorField(comps))


def _compose_ambient(expr, param):
    """Substitute the chart map into an ambient expression (x_i -> param_i)."""
    out = expr
    for name, rep in zip(_AMB, param):
        out = substitute(out, name, rep)
    return out


def _direction_exprs(variation):
    """The expressions ``z_i`` of a flow-map variation's direction."""
    return [c.expr for c in variation.direction.comp]


def varied_atlas(atlas, variation, eps):
    """Atlas whose chart maps are displaced by ``eps * z`` at expression level.

    The perturbed surface is the exact image of ``x + eps z(x, t)``; all
    geometry of the varied configuration (metric, Jacobian, velocity) then
    follows from exact differentiation of the displaced parametrization.
    """
    z = _direction_exprs(variation)
    charts = []
    for ch in atlas.charts:
        param = [p + Num(float(eps)) * _compose_ambient(c, ch.param)
                 for p, c in zip(ch.param, z)]
        charts.append(Chart(param, ch.domain, ch.periodic, ch.orientation,
                            ch.pou_bump, ch.invert, ch.name + "+var"))
    return ChartAtlas(charts, name=atlas.name + "+var")


# -- fast plain-value chart evaluation (no dual overhead) -----------------------


def _jet(chart, z=()):
    """The chart map ``p`` and its ``t``, ``X1``, ``X2`` partials (12 rows),
    then those of ``C = z o p``: :func:`varied_atlas` at ``e`` is ``p + e C``."""
    d = chart._dparam
    C = [_compose_ambient(c, chart.param) for c in z]
    return (chart.param + d["t"] + d["X1"] + d["X2"]
            + C + [c.diff(v) for v in ("t", "X1", "X2") for c in C])


def _tangents(jet):
    """The tangents g_a (2, 3, ...) of jet values: its X1 and X2 rows."""
    return jet[6:12].reshape((2, 3) + jet.shape[1:])


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


def _sum_and_magnitude(terms):
    """Per row of ``terms``: its sum and its sum of absolute values."""
    return np.sum(terms, axis=-1), np.array([np.sum(np.abs(a)) for a in terms])


def _action_rungs(mov, rule, rho0, T, law, nt, z, rungs):
    """``{e: (A, sum of |terms|)}`` of the flow ``mov`` displaced by ``e * z``
    (empty ``z``: the flow itself) for each of ``rungs``, from one :func:`_jet`
    evaluation per Simpson node and chart block, summed in that order."""
    ts, wt = _simpson_nodes(T, nt)
    rho0 = as_scalar_field(rho0)
    jets = {ch: _jet(ch, z) for ch in mov.charts}
    total, magnitude = np.zeros((2, len(rungs)))
    # per chart, the (rung, node) conserved density weights: filled at t = 0
    rho0t = [np.empty((len(rungs), X.shape[1])) for X, _, _ in rule.nodes]
    for k, (tk, wk) in enumerate(zip(ts, wt)):
        def block(chart, X, w, psi, r0):
            v = chart.evaluate(jets[chart], X[0], X[1], tk)
            out = []
            for i, e in enumerate(rungs):
                r = v[:12] + e * v[12:] if z else v
                x, xt, sJ = r[:3], r[3:6], _geometry(_tangents(r))[2]
                if not k:  # writes through to this block's rows of rho0t
                    r0[i] = rho0.value(x, 0.0) * sJ
                kernel = 0.5 * r0[i] * np.einsum("i...,i...->...", xt, xt)
                if law is not None:
                    kernel = kernel - law.p(r0[i] / sJ) * sJ
                out.append(w * psi * kernel)
            return np.stack(out)
        for s, a in rule_terms(_sum_and_magnitude, mov.charts, rule, block,
                               rho0t):
            total -= wk * s
            magnitude += wk * a
    return {e: (float(a), float(b)) for e, a, b in zip(rungs, total, magnitude)}


def action_integral(atlas, motion, rho0, T, law=None, *, rule, nt=16):
    """Action of the flow over [0, T], in reference form.

    A = -int_0^T int psi { (1/2) rho0_tilde |x_t|^2 - p(rho0_tilde/sqrtJ) sqrtJ }
    over the chart rectangles, with Simpson quadrature in time.  The density
    never needs a separate solve: the continuity equation is built into the
    conserved-weight representation.  The flow displaced by ``eps * z`` is
    the :func:`varied_atlas` of the moving atlas under the static motion.
    Returns the pair ``(A, sum of |summed terms|)``; machine epsilon times
    the second bounds the rounding error of the first.
    """
    return _action_rungs(moving_atlas(atlas, motion), rule, rho0, T, law, nt,
                         [], [0.0])[0.0]


def action_first_variation(atlas, motion, variation, rho0, T, law=None, *,
                           rule, nt=16):
    """Analytic first variation of the action along ``variation``.

    Evaluates the surface integral of { rho D_t v [+ grad_G peff + peff H n] }
    . z over the unperturbed evolving surface, with the density taken from
    the exact conserved-weight representation and the effective pressure
    peff = rho p'(rho) - p(rho).  One frame per Simpson node and chart block:
    the first node is t = 0, where the moving chart is the reference chart.
    """
    mov = moving_atlas(atlas, motion)
    vel = motion.velocity
    z = variation.direction
    ts, wt = _simpson_nodes(T, nt)

    def block(chart, X, w, psi):
        out = []
        for k, tk in enumerate(ts):
            frame = chart.frame(X[0], X[1], tk)
            if not k:  # conserved density weight, dual in X1, X2
                rho0t_d = (frame.eval_scalar(as_scalar_field(rho0))
                           * frame.sqrtJ)
            sJ = frame.values(frame.sqrtJ)
            pt = _Point(frame, vel)
            rho_d = rho0t_d / frame.sqrtJ
            rho = frame.values(rho_d)
            # material acceleration of the prescribed velocity (ambient)
            force = rho * pt.Dt_vec(vel)
            if law is not None:
                peff_d = law.eff_expr.evaluate({"r": rho_d})
                gradp = np.stack([frame.tangential(peff_d, i)
                                  for i in range(3)])
                force = (force + gradp + frame.values(peff_d) * frame.H
                         * frame.values(frame.n))
            zval = z.value(pt.x, tk)
            kernel = np.einsum("i...,i...->...", force, zval)
            out.append(w * psi * kernel * sJ)
            del frame, pt  # free them before the next frame is built
        return np.stack(out)
    total = 0.0
    for sums in rule_terms(lambda a: np.sum(a, axis=-1), mov.charts, rule,
                           block):
        for wk, s in zip(wt, sums):
            total += wk * float(s)
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
                           law=None, eps_list=(1e-2, 3e-3, 1e-3, 3e-4), *,
                           rule, nt=16):
    """Central-difference derivative of the action versus its analytic value.

    Returns a report with the finite-difference values per epsilon, the
    estimated rounding noise per rung, the error-versus-epsilon slope (2.0
    expected for the central-difference remainder) fitted on the rungs above
    their noise, and the Richardson extrapolation over the two finest
    epsilons.  ``floor_limited`` flags ladders where no rung rises above its
    estimated rounding noise, so no slope is meaningful.
    """
    analytic = action_first_variation(atlas, motion, variation, rho0, T,
                                      law=law, rule=rule, nt=nt)
    rungs = [s * float(e) for e in eps_list for s in (1.0, -1.0)]
    energy = _action_rungs(moving_atlas(atlas, motion), rule, rho0, T, law,
                           nt, _direction_exprs(variation), rungs)
    report = _ladder_report(energy.__getitem__, eps_list, analytic)
    if variation.tangential:
        report["tangency_residual"] = variation.tangency_residual(
            moving_atlas(atlas, motion), rule, t=0.5 * T)
    return report


# -- dissipation/work variation --------------------------------------------------


def _dissipation_work_terms(jac, vval, mu_d, lam_d, sig, rho, F, frame, wgt):
    """Dissipation + work energy terms on ``frame`` (surface weights ``wgt``),
    per node, of the velocity with dual Jacobian ``jac`` and values ``vval``;
    ``mu_d``, ``lam_d`` are dual coefficients, ``sig``, ``rho``, ``F`` values."""
    Dproj, divv = strain_dual(None, frame, jac)
    ed = frame.values(dissipation_density(Dproj, divv, mu_d, lam_d))
    work = (frame.values(divv) * sig
            + rho * np.einsum("i...,i...->...", F, vval))
    return wgt * (-0.5 * ed + work)


def dissipation_work_energy(v, sigma, mu, lam, rho, F, atlas, rule, t=0.0):
    """E = -int (1/2)(2 mu |D_G(v)|^2 + lam |div_G v|^2) + int (div_G v) sigma
    + int rho F . v over the surface at time ``t``."""
    v, F = as_vector_field(v), as_vector_field(F)
    sigma, mu, lam, rho = (as_scalar_field(a) for a in (sigma, mu, lam, rho))

    def block(chart, X, w, psi):
        frame = chart.frame(X[0], X[1], t)
        x = frame.values(frame.x)
        return _dissipation_work_terms(
            _jac_dual(v, frame), v.value(x, t), frame.eval_scalar(mu),
            frame.eval_scalar(lam), sigma.value(x, t), rho.value(x, t),
            F.value(x, t), frame, w * psi * frame.values(frame.sqrtJ))
    return float(rule_sums(atlas.charts, rule, block))


def check_dissipation_work_variation(v, sigma, mu, lam, rho, F, phi, atlas,
                                     rule, t=0.0, eps=1e-3):
    """Velocity variation of the dissipation + work functional.

    The functional is quadratic in epsilon, so the central difference is
    exact up to quadrature; the analytic side is the surface force
    int { div_G(2 mu D_G(v) + lam (div_G v) P - sigma P) + rho F } . phi.
    Both rungs and the analytic side are evaluated on one frame per block:
    the rung v + e phi has Jacobian jv + e jphi and values vval + e phival.
    ``phi`` is a :class:`VariationField`; a tangential one projects the
    surface force and adds its ``tangency_residual`` to the report.
    """
    v = as_vector_field(v)
    sigma, mu, lam, rho_f = (as_scalar_field(a) for a in (sigma, mu, lam, rho))
    F_f = as_vector_field(F)
    direction, tangential = phi.direction, phi.tangential

    def block(chart, X, w, psi):
        frame = chart.frame(X[0], X[1], t)
        x = frame.values(frame.x)
        wgt = w * psi * frame.values(frame.sqrtJ)
        jv, jphi = _jac_dual(v, frame), _jac_dual(direction, frame)
        vval, phival = v.value(x, t), direction.value(x, t)
        S, _, _, mu_d, lam_d, _ = stress_dual(v, sigma, mu, lam, frame, jv)
        sig, rho, Fv = (a.value(x, t) for a in (sigma, rho_f, F_f))
        out = [_dissipation_work_terms(
            [[a + e * b for a, b in zip(ra, rb)] for ra, rb in zip(jv, jphi)],
            vval + e * phival, mu_d, lam_d, sig, rho, Fv, frame, wgt)
            for e in (eps, -eps)]
        force = div_matrix_dual(S, frame) + rho * Fv
        if tangential:
            force = np.einsum("ij...,j...->i...", frame.values(frame.P),
                              force)
        kernel = np.einsum("i...,i...->...", force, phival)
        return np.stack(out + [wgt * kernel])
    # the +eps and -eps energies, the analytic side
    energy_p, energy_m, analytic = map(float, rule_sums(atlas.charts, rule,
                                                        block))
    fd = (energy_p - energy_m) / (2.0 * eps)

    report = {"fd": fd, "analytic": analytic, "error": abs(fd - analytic),
              "eps": float(eps)}
    if tangential:
        report["tangency_residual"] = phi.tangency_residual(atlas, rule, t)
    return report


# -- gradient-flux (generalized diffusion) variation ------------------------------


def _partials(f, x, t):
    """The ambient partials of ``f`` at points ``x``: a list of 3 arrays."""
    return [f.d(v).value(x, t) for v in _AMB]


def _flux_energy_terms(df, flux, P, sqrtJ, w, psi):
    """Flux-energy terms w psi sqrtJ e_J(|grad_G f|^2), per node, from the
    ambient partials ``df`` of f and the projector values ``P``.  The
    gradient P grad f is :func:`grad_scalar_dual`'s own ``_apply``."""
    zeta = _total(c * c for c in _apply(P, df))
    return w * psi * sqrtJ * flux.density(zeta)


def gradient_flux_energy(f, flux, atlas, rule, t=0.0):
    """The pair ``(E, sum of |summed terms|)``, as in :func:`action_integral`,
    of E = -int (1/2) e_J(|grad_G f|^2) over the surface at time ``t``."""
    f = as_scalar_field(f)

    def block(chart, X, w, psi):
        st = metric_at(chart, X, t)
        terms = _flux_energy_terms(_partials(f, st.x, t), flux, st.P,
                                   st.sqrtJ, w, psi)
        return np.stack([terms, np.abs(terms)])
    s, a = rule_sums(atlas.charts, rule, block)
    return float(0.0 - 0.5 * s), float(0.5 * a)  # 0.0 - 0.0 is +0.0


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


def check_flux_variation(f, flux, phi, atlas, rule, t=0.0,
                         eps_list=(1e-2, 3e-3, 1e-3, 3e-4)):
    """Scalar variation of the gradient-flux energy versus the flux divergence.

    The analytic side is int div_G(e_J'(|grad_G f|^2) grad_G f) phi.  The
    report is that of :func:`check_action_variation`: the slope is fitted on
    the rungs above their estimated rounding noise, and ``floor_limited``
    flags a ladder with none.  Also performs the pointwise kernel-derivative
    consistency check.  Nonlinear laws require a nowhere-vanishing gradient.
    """
    f = as_scalar_field(f)
    phi = as_scalar_field(phi)
    linear = isinstance(flux.d_expr, Num)

    # every rung f + e phi is evaluated on the analytic side's frame, with
    # the partials df + e dphi of f and phi evaluated once per block
    rungs = [s * float(e) for e in eps_list for s in (1.0, -1.0)]
    kernel_res = 0.0

    def block(chart, X, w, psi):
        nonlocal kernel_res
        frame = chart.frame(X[0], X[1], t)
        x, sJ, P = (frame.values(q) for q in (frame.x, frame.sqrtJ, frame.P))
        gf = grad_scalar_dual(f, frame)
        grad_vals = frame.values(gf)
        if not linear:
            gnorm = np.sqrt(np.einsum("i...,i...->...", grad_vals, grad_vals))
            if np.min(gnorm) < 1e-8:
                raise DegenerateGradient("nonlinear flux variation needs "
                                         "|grad_G f| bounded away from 0")
        zeta_d = _total(c * c for c in gf)
        q = [flux.d_expr.evaluate({"z": zeta_d}) * gf[i] for i in range(3)]
        divq = frame.div(q)
        kernel_res = worst_of(kernel_res,
                              _kernel_gradient_residual(flux, grad_vals))
        df, dphi = _partials(f, x, t), _partials(phi, x, t)
        return np.stack([w * psi * sJ * divq * phi.value(x, t)] + [
            _flux_energy_terms([a + e * b for a, b in zip(df, dphi)], flux, P,
                               sJ, w, psi) for e in rungs])
    sums = magnitude = 0.0  # row 0: the analytic side; then one per rung
    for s, a in rule_terms(_sum_and_magnitude, atlas.charts, rule, block):
        sums += s
        magnitude += a

    energy = {e: (float(0.0 - 0.5 * s), float(0.5 * a))
              for e, s, a in zip(rungs, sums[1:], magnitude[1:])}
    report = _ladder_report(energy.__getitem__, eps_list, float(sums[0]))
    report["linear"] = linear
    report["kernel_gradient_residual"] = kernel_res
    return report


# -- dual energy representations --------------------------------------------------


def check_energy_representations(atlas, motion, fields, coeffs, t, law=None,
                                 flux=None, *, rule):
    """Each energy evaluated through two independent routes.

    The *surface* route integrates the ambient-operator energy density over
    the moving surface; the *reference* route integrates the corresponding
    chart kernel (conserved density weights, flow-map time derivative, metric
    rate g'_ab built from the chart derivatives of the velocity).  Returns a
    dict of {surface, reference, rel_mismatch} per energy, with the mismatch
    relative to max(1, |surface|, |reference|).

    ``fields.rho`` must be the transported density of the motion (checked by
    construction: its t=0 trace provides the reference weights) and
    ``fields.v`` the motion's velocity.  ``fields.theta`` feeds the
    generalized-flux energy.
    """
    mov = moving_atlas(atlas, motion)

    names = (["kinetic", "total", "force_work"] + ["barotropic"] * (law is not None)
             + ["pressure_work", "dissipation", "thermal", "species"]
             + ["flux"] * (flux is not None))

    def block(chart, X, w, psi):
        st0 = chart.metric(X[0], X[1], 0.0)
        rho0t = fields.rho.value(st0.x, 0.0) * st0.sqrtJ

        frame = chart.frame(X[0], X[1], t)
        st = frame.metric()
        wgt = w * psi * st.sqrtJ      # surface measure
        wref = w * psi                # reference measure (kernels carry sqrtJ)

        xt = frame.x_t
        xt2 = np.einsum("i...,i...->...", xt, xt)

        # metric rate from the chart derivatives of the velocity
        v_d = [frame.eval_scalar(c) for c in fields.v.comp]
        gdot_basis = np.stack([frame.values(v_d, a) for a in _X])  # (2, 3, ...)
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

        # (surface, reference) terms in the order of ``names``:
        # kinetic / total / work-by-force energies
        pairs = [
            (wgt * 0.5 * rho * v2, wref * 0.5 * rho0t * xt2),
            (wgt * (0.5 * rho * v2 + rho * evals),
             wref * rho0t * (0.5 * xt2 + evals)),
            (wgt * rho * np.einsum("i...,i...->...", Fval, vval),
             wref * rho0t * np.einsum("i...,i...->...", Fval, xt))]
        if law is not None:
            pairs.append((wgt * (0.5 * rho * v2 - law.p(rho)),
                          wref * (0.5 * rho0t * xt2
                                  - law.p(rho0t / st.sqrtJ) * st.sqrtJ)))

        # pressure work and viscous dissipation via the metric rate
        tr_gdot = np.einsum("ab...,ab...->...", st.inv_gram, gdot)
        gdot_sq = np.einsum("ab...,zh...,az...,bh...->...",
                            gdot, gdot, st.inv_gram, st.inv_gram)
        pairs.append((wgt * divv * sig,
                      wref * st.sqrtJ * 0.5 * sig * tr_gdot))
        ed_surf = 0.5 * (2.0 * mu * np.einsum("ij...,ij...->...", Dproj, Dproj)
                         + lam * divv * divv)
        ed_ref = (0.25 * mu * gdot_sq
                  + 0.5 * lam * (0.5 * tr_gdot) ** 2)
        pairs.append((wgt * ed_surf, wref * st.sqrtJ * ed_ref))

        # gradient energies: ambient projected gradient vs chart form
        def grad_pair(scalar, coef):
            g_amb = np.einsum("ij...,j...->i...", st.P, scalar.grad(st.x, t))
            zeta_amb = np.einsum("i...,i...->...", g_amb, g_amb)
            s_d = frame.eval_scalar(scalar)
            dch = np.stack([frame.values(s_d, a) for a in _X])
            zeta = np.einsum("ab...,a...,b...->...", st.inv_gram, dch, dch)
            pairs.append((wgt * (0.5 * coef * zeta_amb),
                          wref * st.sqrtJ * 0.5 * coef * zeta))
            return zeta_amb, zeta

        zeta_amb, zeta_ref = grad_pair(fields.theta, kap)
        grad_pair(fields.C, nu)
        if flux is not None:
            pairs.append((wgt * 0.5 * flux.density(zeta_amb),
                          wref * st.sqrtJ * 0.5 * flux.density(zeta_ref)))
        return np.stack([a for pair in pairs for a in pair])
    sums = rule_sums(mov.charts, rule, block)

    report = {}
    for name, a, b in zip(names, map(float, sums[0::2]),
                          map(float, sums[1::2])):
        report[name] = {
            "surface": a,
            "reference": b,
            "rel_mismatch": abs(a - b) / max(1.0, abs(a), abs(b)),
        }
    return report


# -- pointwise variation identities -----------------------------------------------


def jacobian_variation_residual(atlas, motion, variation, t, rule):
    """Max residual of dJ/d eps = 2 (g^a . d y/dX_a) J at quadrature nodes.

    The left side is a central difference of the Gram determinant of the
    displaced chart maps; the right side contracts the contravariant basis
    with the chart derivatives of the variation along the unperturbed map.
    Both sides read one :func:`_jet` evaluation per block.
    """
    eps = 1e-4
    mov = moving_atlas(atlas, motion)
    z = _direction_exprs(variation)
    jets = {ch: _jet(ch, z) for ch in mov.charts}

    def block(chart, X, w, psi):
        v = chart.evaluate(jets[chart], X[0], X[1], t)
        Jp, Jm = (_geometry(_tangents(v[:12] + e * v[12:]))[1]
                  for e in (eps, -eps))
        dJ = (Jp - Jm) / (2.0 * eps)

        st = _metric_state(v[:3], _tangents(v), chart.orientation)
        dy = v[18:].reshape(st.g.shape)  # the X rows of C = z o p
        rhs = 2.0 * np.einsum("ai...,ai...->...", st.gup, dy) * st.J
        return np.abs(dJ - rhs)
    return worst_of(0.0, *rule_terms(np.max, mov.charts, rule, block))


def tangential_pairing_residual(f, z, atlas, rule, t=0.0):
    """|int f . (P z) - int (P f) . z|: the projector moves across the pairing."""
    f = as_vector_field(f)
    z = as_vector_field(z)

    def block(chart, X, w, psi):
        st = metric_at(chart, X, t)
        wgt = w * psi * st.sqrtJ
        fv = f.value(st.x, t)
        zv = z.value(st.x, t)
        Pz = np.einsum("ij...,j...->i...", st.P, zv)
        Pf = np.einsum("ij...,j...->i...", st.P, fv)
        return np.stack([wgt * np.einsum("i...,i...->...", fv, Pz),
                         wgt * np.einsum("i...,i...->...", Pf, zv)])
    lhs, rhs = rule_sums(atlas.charts, rule, block)
    return float(abs(lhs - rhs))
