"""Pointwise surface differential operators and tensor constructions.

Every operator exists in two independent forms that are cross-checked in the
test-suite:

* an **ambient** form built from the tangential projector applied to plain
  space derivatives of the field, and
* a **chart** form built from chart-coordinate derivatives and the inverse
  Gram matrix (evaluated through dual numbers on a :class:`ChartFrame`):
  :meth:`ChartFrame.tangential` is the one tangential derivative
  g^a d/dX_a (g^a = g^ab g_b), and :meth:`ChartFrame.div` sums it into div_G.

The chart form survives one extra differentiation (its outputs are dual), so
second-level operators such as the divergence of the surface stress tensor
are assembled through it.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import value_of
from .chart_geometry import _dot3, _symmetric, _total, rule_sums
from .fields import as_scalar_field, as_vector_field

__all__ = [
    "surface_gradient",
    "surface_divergence_vec",
    "surface_divergence_vec_chart",
    "surface_laplacian",
    "identity_residuals",
    "material_residuals",
    "ibp_residuals",
    "grad_scalar_dual",
    "div_matrix_dual",
    "strain_dual",
    "stress_dual",
    "dissipation_density",
]

_AMBIENT = ("x1", "x2", "x3")


# -- ambient forms (plain MetricState + exact field derivatives) ------------


def surface_gradient(f, metric, t=0.0):
    """Tangential gradient P (grad f) at the metric's points; shape (3, ...)."""
    f = as_scalar_field(f)
    g = f.grad(metric.x, t)
    return np.einsum("ij...,j...->i...", metric.P, g)


def surface_divergence_vec(v, metric, t=0.0):
    """Surface divergence of an ambient vector field, projector form."""
    v = as_vector_field(v)
    jac = v.jacobian(metric.x, t)  # jac[i, j] = d v_i / d x_j
    return np.einsum("ij...,ij...->...", metric.P, jac)


# -- chart (dual) forms --------------------------------------------------------


def _apply(A, w):
    """A w for a 3x3 ``A`` and a 3-vector ``w`` (nested lists, duals)."""
    return [_total(A[i][j] * w[j] for j in range(3)) for i in range(3)]


def grad_scalar_dual(f, frame):
    """Tangential gradient of an ambient scalar on a frame; dual 3-vector."""
    f = as_scalar_field(f)
    return _apply(frame.P, [frame.eval_scalar(f.d(v)) for v in _AMBIENT])


def div_matrix_dual(M, frame):
    """Row-wise surface divergence of a dual 3x3 quantity; values (3, ...)."""
    return np.stack([frame.div(row) for row in M])


def surface_divergence_vec_chart(v, frame):
    """Chart-form divergence of an ambient vector field (cross-check twin)."""
    v = as_vector_field(v)
    return frame.div([frame.eval_scalar(c) for c in v.comp])


def surface_laplacian(f, frame):
    """Laplace-Beltrami of an ambient scalar field: div of tangential grad."""
    return frame.div(grad_scalar_dual(f, frame))


# -- strain and stress ---------------------------------------------------------


def _jac_dual(v, frame):
    """Dual ambient Jacobian dv_i/dx_j on the surface, in one evaluation."""
    flat = frame.eval_scalars([c.d(var) for c in v.comp for var in _AMBIENT])
    return [flat[3 * i:3 * i + 3] for i in range(3)]


def _sym(M):
    return _symmetric(lambda i, j: 0.5 * (M[i][j] + M[j][i]))


def _matmul(A, B):
    return [[_total(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _contract(A, B):
    return _total(A[i][j] * B[i][j] for i in range(3) for j in range(3))


def strain_dual(v, frame, jac=None):
    """Dual strain of an ambient vector field on a frame.

    Returns ``(Dproj, divv)``: D_G = P A P of A = sym(grad v), formed from
    the normal as A - n w^T - w n^T with c = n.(A n), w = A n - c n / 2, and
    div_G v = tr(P grad v) = tr A - c (both dual, ready for one more
    derivative; ``Dproj[j][i] is Dproj[i][j]``).  ``jac`` is ``v``'s
    :func:`_jac_dual` when the caller already holds it.
    """
    jac = _jac_dual(as_vector_field(v), frame) if jac is None else jac
    A, n = _sym(jac), frame.n
    An = _apply(A, n)
    c = _dot3(n, An)
    w = [An[i] - (0.5 * c) * n[i] for i in range(3)]
    Dproj = _symmetric(lambda i, j: A[i][j] - n[i] * w[j] - w[i] * n[j])
    return Dproj, A[0][0] + A[1][1] + A[2][2] - c


def dissipation_density(Dproj, divv, mu_d, lam_d):
    """Viscous dissipation 2*mu*|Dproj|^2 + lam*(div v)^2 of one strain."""
    return 2.0 * mu_d * _contract(Dproj, Dproj) + lam_d * divv * divv


def stress_dual(v, sigma, mu, lam, frame, jac=None):
    """Dual surface stress S = 2*mu*Dproj + (lam*divv - sigma)*P, built
    over its 6 distinct entries (``S[j][i] is S[i][j]``).

    Returns ``(S, Dproj, divv, mu_d, lam_d, sig_d)``: the stress, the strain
    it is built from, and the dual coefficient values (``jac`` as in
    :func:`strain_dual`).
    """
    Dproj, divv = strain_dual(v, frame, jac)
    mu_d, lam_d, sig_d = frame.eval_scalars(
        [as_scalar_field(a) for a in (mu, lam, sigma)])
    mu2, iso, P = 2.0 * mu_d, lam_d * divv - sig_d, frame.P
    S = _symmetric(lambda i, j: mu2 * Dproj[i][j] + iso * P[i][j])
    return S, Dproj, divv, mu_d, lam_d, sig_d


# -- time derivatives on a moving frame -----------------------------------------


class _Point:
    """Numeric point data of a frame whose points move with the velocity
    field ``v``: the material derivative D_t f = f_t + (v.grad) f, the normal
    time derivative D_t^N f = f_t + (v.n)(n.grad) f, D_t^N of a product and
    the diffusive flux.  ``n``, ``P`` and ``v.n`` are built on first read."""

    def __init__(self, frame, v):
        self.frame, self.t = frame, frame.t
        self.x = frame.values(frame.x)
        self.v = v.value(self.x, self.t)

    n = functools.cached_property(lambda self: self.frame.values(self.frame.n))
    P = functools.cached_property(lambda self: self.frame.values(self.frame.P))
    vn = functools.cached_property(
        lambda self: np.einsum("i...,i...->...", self.v, self.n))

    def Dt(self, f):
        """Material derivative of an ambient scalar field."""
        return f.dt(self.x, self.t) + np.einsum(
            "i...,i...->...", self.v, f.grad(self.x, self.t))

    def DtN(self, f):
        """Normal time derivative of an ambient scalar field."""
        return f.dt(self.x, self.t) + self.vn * np.einsum(
            "i...,i...->...", self.n, f.grad(self.x, self.t))

    def DtN_product(self, f, w, i):
        """D_t^N(f w_i) of an ambient scalar ``f`` and vector field ``w``."""
        x, t, wi = self.x, self.t, w.comp[i]
        fval, wval = self.val(f), self.val(wi)
        grad = fval * wi.grad(x, t) + wval * f.grad(x, t)
        return (f.dt(x, t) * wval + fval * wi.dt(x, t)
                + self.vn * np.einsum("j...,j...->...", self.n, grad))

    def Dt_vec(self, w):
        """Material derivative of an ambient vector field."""
        jac = w.jacobian(self.x, self.t)
        return w.dt(self.x, self.t) + np.einsum("j...,ij...->i...", self.v, jac)

    def val(self, f):
        return f.value(self.x, self.t)

    def grad_t(self, f):
        """Tangential gradient (values) of an ambient scalar field."""
        return self.frame.values(grad_scalar_dual(f, self.frame))

    def flux(self, coef, s):
        """The diffusive flux q = coef grad_G s (dual 3-vector)."""
        c_d = self.frame.eval_scalar(coef)
        return [c_d * g for g in grad_scalar_dual(s, self.frame)]

    def div_flux(self, coef, s):
        """div_G of :meth:`flux` (values)."""
        return self.frame.div(self.flux(coef, s))


# -- identity residual kernel ----------------------------------------------


def _maxabs(x):
    return float(np.max(np.abs(np.asarray(x, dtype=float))))


def identity_residuals(frame, f, v, phi, g, mu, lam):
    """Pointwise residuals of the tangential-calculus identities on a frame.

    ``f, g, mu, lam`` are scalar fields, ``v, phi`` vector fields.  Returns
    a dict of max-abs residuals.
    """
    f, g, mu, lam = (as_scalar_field(a) for a in (f, g, mu, lam))
    v, phi = as_vector_field(v), as_vector_field(phi)

    P = frame.P
    nvec = frame.n
    res = {}

    # gradient tangency; every dual field below is evaluated once per frame
    df_d = [frame.eval_scalar(f.d(var)) for var in _AMBIENT]
    gf = _apply(P, df_d)
    proj_gf = _apply(P, gf)
    res["projected_gradient_idempotent"] = _maxabs(
        [value_of(proj_gf[i] - gf[i]) for i in range(3)])
    res["gradient_tangency"] = _maxabs(
        value_of(sum(nvec[i] * gf[i] for i in range(3))))

    # divergence of f times the projector: grad f + f H n
    f_d = frame.eval_scalar(f)
    fP = [[f_d * P[i][j] for j in range(3)] for i in range(3)]
    div_fP = div_matrix_dual(fP, frame)
    H = frame.H
    nval = frame.values(nvec)
    gfval = frame.values(gf)
    fval = frame.values(f_d)
    res["projector_divergence"] = _maxabs(div_fP - (gfval + fval * H * nval))
    res["projector_divergence_tangential"] = _maxabs(
        np.einsum("ij...,j...->i...", frame.values(P), div_fP) - gfval)

    # divergence of (f P v): grad f . v + f H (n.v) + f div v
    v_d = [frame.eval_scalar(c) for c in v.comp]
    div_fPv = frame.div(_apply(fP, v_d))
    divv_val = frame.div(v_d)
    vval = frame.values(v_d)
    res["projector_product_divergence"] = _maxabs(
        div_fPv - (np.einsum("i...,i...->...", gfval, vval)
                   + fval * H * np.einsum("i...,i...->...", nval, vval)
                   + fval * divv_val))

    # advection split: (v,grad)f = (v,grad_t)f + (v.n)(n,grad)f
    df = [value_of(d) for d in df_d]
    full_adv = sum(vval[i] * df[i] for i in range(3))
    tang_adv = np.einsum("i...,i...->...", vval, gfval)
    vn = np.einsum("i...,i...->...", vval, nval)
    ndf = sum(nval[i] * df[i] for i in range(3))
    res["advection_split"] = _maxabs(full_adv - (tang_adv + vn * ndf))

    # strain equivalences, against the tangential strain sym(grad_t w) with
    # (grad_t w_i)_j = P_jk dw_i/dx_k
    def tangential_strain(jac):
        return _sym([[sum(P[j][k] * jac[i][k] for k in range(3))
                      for j in range(3)] for i in range(3)])

    jac_v, jac_phi = _jac_dual(v, frame), _jac_dual(phi, frame)
    S, Dproj, divv, mu_d, lam_d, g_d = stress_dual(v, g, mu, lam, frame, jac_v)
    PDtP = _matmul(P, _matmul(tangential_strain(jac_v), P))
    res["projected_strain_equivalence"] = _maxabs(
        [[value_of(Dproj[i][j] - PDtP[i][j]) for j in range(3)] for i in range(3)])

    Dproj_phi, _ = strain_dual(phi, frame, jac_phi)
    res["strain_contraction_equivalence"] = _maxabs(
        value_of(_contract(Dproj, Dproj_phi)
                 - _contract(Dproj, tangential_strain(jac_phi))))

    # product rules for the viscous and dilational fluxes and the stress
    muDproj = [[mu_d * Dproj[i][j] for j in range(3)] for i in range(3)]
    lhs = frame.div(_apply(muDproj, v_d))
    div_muD = div_matrix_dual(muDproj, frame)
    rhs = (np.einsum("i...,i...->...", div_muD, vval)
           + value_of(mu_d) * value_of(_contract(Dproj, Dproj)))
    res["viscous_flux_product_rule"] = _maxabs(lhs - rhs)

    lamP = [[lam_d * divv * P[i][j] for j in range(3)] for i in range(3)]
    lhs = frame.div(_apply(lamP, v_d))
    div_lamP = div_matrix_dual(lamP, frame)
    rhs = (np.einsum("i...,i...->...", div_lamP, vval)
           + value_of(lam_d) * value_of(divv) ** 2)
    res["dilational_flux_product_rule"] = _maxabs(lhs - rhs)

    # stress power S : Dproj
    power = dissipation_density(Dproj, divv, mu_d, lam_d) - g_d * divv
    lhs = frame.div(_apply(S, v_d))
    div_S = div_matrix_dual(S, frame)
    rhs = np.einsum("i...,i...->...", div_S, vval) + value_of(power)
    res["stress_power_decomposition"] = _maxabs(lhs - rhs)

    res["stress_contraction"] = _maxabs(value_of(_contract(S, Dproj) - power))
    return res


def material_residuals(frame, f, v):
    """Max-abs residuals of the commutation identities between material
    derivatives and transport terms, for the scalar field ``f`` on a frame
    whose chart moves with the velocity field ``v``."""
    f, v = as_scalar_field(f), as_vector_field(v)
    pt = _Point(frame, v)
    # consistency: the chart must move with v
    res = {"chart_velocity_consistency": _maxabs(frame.x_t - pt.v)}
    fval, Dt_f = pt.val(f), pt.Dt(f)

    # divergence terms through the dual route
    f_d = frame.eval_scalar(f)
    v_d = [frame.eval_scalar(c) for c in v.comp]
    div_fv = frame.div([f_d * v_d[i] for i in range(3)])
    divv = frame.div(v_d)
    res["transport_commutation_scalar"] = _maxabs(
        (pt.DtN(f) + div_fv) - (Dt_f + divv * fval))

    # momentum version: DtN(f v) + div(f v x v) = {Dt f + (div v) f} v + f Dt v
    lhs = np.stack([pt.DtN_product(f, v, i)
                    + frame.div([f_d * v_d[i] * v_d[j] for j in range(3)])
                    for i in range(3)])
    rhs = (Dt_f + divv * fval) * pt.v + fval * pt.Dt_vec(v)
    res["transport_commutation_momentum"] = _maxabs(lhs - rhs)
    return res


# -- integration by parts ----------------------------------------------------


def ibp_residuals(f, phi, atlas, rule, t=0.0, m=0):
    """Residuals of the two closed-surface integration-by-parts identities.

    Returns ``(r_component, r_divergence)`` where the first uses component
    ``m`` of the tangential derivative against ``phi``'s m-th component used
    as a scalar ``g``, and the second pairs ``f`` with the divergence of
    ``phi``.
    """
    f = as_scalar_field(f)
    phi = as_vector_field(phi)
    g = phi.comp[m]

    def block(chart, X, w, psi):
        frame = chart.frame(X[0], X[1], t)
        x, n = frame.values(frame.x), frame.values(frame.n)
        wgt = w * psi * frame.values(frame.sqrtJ)
        gf = frame.values(grad_scalar_dual(f, frame))
        gg = frame.values(grad_scalar_dual(g, frame))
        fv = f.value(x, t)
        gv = g.value(x, t)
        H = frame.H
        comp = wgt * (gf[m] * gv + fv * gg[m] + H * n[m] * fv * gv)
        divphi = frame.div([frame.eval_scalar(c) for c in phi.comp])
        flux = np.einsum("i...,i...->...", gf + fv * H * n, phi.value(x, t))
        return np.stack([comp, wgt * (fv * divphi + flux)])
    comp, div = rule_sums(atlas, rule, block)
    return float(abs(comp)), float(abs(div))
