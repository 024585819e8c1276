"""Pointwise residuals of the compressible-surface-fluid systems and the
thermodynamic identities (enthalpy, entropy production, free energy).

Every evaluator takes a :class:`ChartFrame` (which carries the surface
points, time, and dual-number geometry) plus ambient field data, and returns
pointwise absolute residuals.  Pressure closures live in
:class:`PressureLaw`; the residual evaluators themselves treat the total
pressure as an independent supplied field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Var, parse_expr, substitute
from .fields import ScalarField, as_scalar_field, as_vector_field
from .surface_ops import (dissipation_density, div_matrix_dual,
                          grad_scalar_dual, stress_dual)

__all__ = [
    "NonpositiveDensity",
    "NonpositiveTemperature",
    "FluidFields",
    "CoefficientFields",
    "PressureLaw",
    "pressure_law_builtin",
    "residual_full",
    "residual_conservative",
    "residual_tangential",
    "residual_noncanonical",
    "residual_barotropic",
    "thermo_quantities",
    "manufactured_heat_source",
    "manufactured_force",
]


class NonpositiveDensity(RuntimeError):
    """Density must be positive for the requested evaluation."""


class NonpositiveTemperature(RuntimeError):
    """Temperature must be positive for the requested evaluation."""


# -- field containers ----------------------------------------------------------


def _combine(func, *parts):
    """Combine scalar fields into a derived field with exact derivatives."""
    return ScalarField(func(*[as_scalar_field(p).expr for p in parts]))


@dataclass
class FluidFields:
    """State fields of the surface fluid; derived quantities are built from
    the primary ones so their defining relations hold identically."""

    rho: object = 1.0
    v: object = ("0", "0", "0")
    sigma: object = 0.0
    e: object = 0.0
    theta: object = 1.0
    C: object = 0.0
    s: object = 0.0          # entropy (supplied; usually Gibbs-manufactured)
    u: object = None         # optional tangential part of v

    def __post_init__(self):
        self.rho = as_scalar_field(self.rho)
        self.v = as_vector_field(self.v)
        self.sigma = as_scalar_field(self.sigma)
        self.e = as_scalar_field(self.e)
        self.theta = as_scalar_field(self.theta)
        self.C = as_scalar_field(self.C)
        self.s = as_scalar_field(self.s)
        if self.u is not None:
            self.u = as_vector_field(self.u)

    @property
    def enthalpy(self):
        return _combine(lambda e, sig, rho: e + sig / rho,
                        self.e, self.sigma, self.rho)

    @property
    def total_energy(self):
        parts = [self.rho, self.e] + list(self.v.comp)
        return _combine(
            lambda rho, e, v1, v2, v3:
            0.5 * rho * (v1 * v1 + v2 * v2 + v3 * v3) + rho * e, *parts)

    @property
    def free_energy(self):
        return _combine(lambda e, th, s: e - th * s,
                        self.e, self.theta, self.s)


@dataclass
class CoefficientFields:
    """Viscosities, conductivities, external force, and sources."""

    mu: object = 1.0
    lam: object = 1.0
    kappa: object = 1.0
    nu: object = 1.0
    C_theta: object = 1.0
    F: object = ("0", "0", "0")
    Q_theta: object = 0.0
    Q_C: object = 0.0

    def __post_init__(self):
        for name in ("mu", "lam", "kappa", "nu", "C_theta", "Q_theta", "Q_C"):
            setattr(self, name, as_scalar_field(getattr(self, name)))
        self.F = as_vector_field(self.F)


class PressureLaw:
    """Barotropic closure p(rho), expression-backed in the variable ``r``,
    with the derived effective surface pressure r p'(r) - p(r)."""

    def __init__(self, p_expr, name="custom"):
        if isinstance(p_expr, str):
            p_expr = parse_expr(p_expr, ("r",))
        self.p_expr = p_expr
        self.dp_expr = p_expr.diff("r")
        self.eff_expr = Var("r") * self.dp_expr - p_expr
        self.name = name

    def p(self, rho):
        return self.p_expr.evaluate({"r": rho})

    def effective(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0):
            raise NonpositiveDensity("pressure law needs rho > 0")
        return np.asarray(self.eff_expr.evaluate({"r": rho}), dtype=float)

    def effective_field(self, rho_field):
        """The effective pressure as an ambient field composed with rho."""
        return ScalarField(substitute(self.eff_expr, "r",
                                      as_scalar_field(rho_field).expr))


_PRESSURE_LAWS = {
    "linear": lambda a=1.0: PressureLaw(f"{a}*r", name="linear"),
    "quadratic": lambda a=1.0: PressureLaw(f"{a}*r^2", name="quadratic"),
    "power": lambda a=1.0, gamma=1.4: PressureLaw(f"{a}*r^{gamma}", name="power"),
}


def pressure_law_builtin(name, **params):
    if name not in _PRESSURE_LAWS:
        raise KeyError(f"unknown pressure law {name!r}; "
                       f"known: {sorted(_PRESSURE_LAWS)}")
    return _PRESSURE_LAWS[name](**params)


# -- shared pointwise machinery -------------------------------------------------


class _Point:
    """Numeric point data shared by the residual evaluators."""

    def __init__(self, frame, v):
        self.frame = frame
        self.t = frame.t
        self.x = frame.values(frame.x)
        self.n = frame.values(frame.n)
        self.P = frame.values(frame.P)
        self.v = v.value(self.x, self.t)
        self.vn = np.einsum("i...,i...->...", self.v, self.n)

    def Dt(self, f):
        """Material derivative of an ambient scalar field."""
        return f.dt(self.x, self.t) + np.einsum(
            "i...,i...->...", self.v, f.grad(self.x, self.t))

    def DtN(self, f):
        """Normal-transport time derivative of an ambient scalar field."""
        return f.dt(self.x, self.t) + self.vn * np.einsum(
            "i...,i...->...", self.n, f.grad(self.x, self.t))

    def Dt_vec(self, w):
        jac = w.jacobian(self.x, self.t)
        return w.dt(self.x, self.t) + np.einsum("j...,ij...->i...", self.v, jac)

    def val(self, f):
        return f.value(self.x, self.t)

    def grad_t(self, f):
        """Tangential gradient (values) of an ambient scalar field."""
        return self.frame.values(grad_scalar_dual(f, self.frame))

    def div_flux(self, coef, scalar):
        """Divergence of coef * tangential-gradient(scalar) (values)."""
        c_d = self.frame.eval_scalar(coef)
        q = [c_d * g for g in grad_scalar_dual(scalar, self.frame)]
        return self.frame.div(q)


# -- residual evaluators ---------------------------------------------------------


def residual_full(fields, coeffs, frame):
    """Pointwise residuals of the four lines of the full system
    (mass, momentum, internal energy, concentration)."""
    pt = _Point(frame, fields.v)
    f, c = fields, coeffs
    S, Dproj, divv, mu_d, lam_d, _ = stress_dual(f.v, f.sigma, c.mu, c.lam, frame)
    divS = div_matrix_dual(S, frame)
    e_tilde = frame.values(dissipation_density(Dproj, divv, mu_d, lam_d))
    divv = frame.values(divv)

    rho = pt.val(f.rho)
    r_mass = pt.Dt(f.rho) + divv * rho

    Dt_v = pt.Dt_vec(f.v)
    Fv = c.F.value(pt.x, pt.t)
    r_mom_vec = rho * Dt_v - divS - rho * Fv

    divq = pt.div_flux(c.kappa, f.theta)
    r_energy = (rho * pt.Dt(f.e) + divv * pt.val(f.sigma)
                - divq - rho * pt.val(c.Q_theta) - e_tilde)

    divqC = pt.div_flux(c.nu, f.C)
    r_conc = pt.Dt(f.C) + divv * pt.val(f.C) - divqC - pt.val(c.Q_C)
    return {"mass": r_mass, "momentum": np.linalg.norm(r_mom_vec, axis=0),
            "momentum_vec": r_mom_vec, "energy": r_energy,
            "concentration": r_conc}


def residual_conservative(fields, coeffs, frame):
    """Pointwise residuals of the conservative form of the system."""
    pt = _Point(frame, fields.v)
    f, c = fields, coeffs
    S = stress_dual(f.v, f.sigma, c.mu, c.lam, frame)[0]
    fr = frame

    rho_d = fr.eval_scalar(f.rho)
    v_d = [fr.eval_scalar(comp) for comp in f.v.comp]
    rho = pt.val(f.rho)

    # mass: DtN rho + div(rho v)
    div_rhov = fr.div([rho_d * v_d[i] for i in range(3)])
    r_mass = pt.DtN(f.rho) + div_rhov

    # momentum: DtN(rho v) + div(rho v x v - S) - rho F
    Fv = c.F.value(pt.x, pt.t)
    jac = f.v.jacobian(pt.x, pt.t)
    grad_rho = f.rho.grad(pt.x, pt.t)
    vval = pt.v
    mom = []
    for i in range(3):
        grad_rvi = rho * jac[i] + vval[i] * grad_rho
        dtn = (f.rho.dt(pt.x, pt.t) * vval[i] + rho * f.v.comp[i].dt(pt.x, pt.t)
               + pt.vn * np.einsum("j...,j...->...", pt.n, grad_rvi))
        flux = [rho_d * v_d[i] * v_d[j] - S[i][j] for j in range(3)]
        mom.append(dtn + fr.div(flux) - rho * Fv[i])
    r_mom_vec = np.stack(mom)

    # total energy: DtN e_A + div(e_A v - q_theta - S v) - rho Q - rho F.v
    eA = f.total_energy
    eA_d = fr.eval_scalar(eA)
    kappa_d = fr.eval_scalar(c.kappa)
    q_d = [kappa_d * g for g in grad_scalar_dual(f.theta, fr)]
    Sv_d = [sum(S[i][j] * v_d[j] for j in range(3)) for i in range(3)]
    flux = [eA_d * v_d[i] - q_d[i] - Sv_d[i] for i in range(3)]
    r_energy = (pt.DtN(eA) + fr.div(flux)
                - rho * pt.val(c.Q_theta)
                - rho * np.einsum("i...,i...->...", Fv, vval))

    # concentration: DtN C + div(C v - q_C) - Q_C
    C_d = fr.eval_scalar(f.C)
    nu_d = fr.eval_scalar(c.nu)
    qC_d = [nu_d * g for g in grad_scalar_dual(f.C, fr)]
    flux = [C_d * v_d[i] - qC_d[i] for i in range(3)]
    r_conc = pt.DtN(f.C) + fr.div(flux) - pt.val(c.Q_C)
    return {"mass": r_mass, "momentum": np.linalg.norm(r_mom_vec, axis=0),
            "momentum_vec": r_mom_vec, "energy": r_energy,
            "concentration": r_conc}


def residual_tangential(fields, coeffs, frame):
    """Residuals of the tangential system: projected momentum plus the
    tangency constraint |v.n| (mass/energy/concentration as in the full
    system)."""
    pt = _Point(frame, fields.v)
    out = residual_full(fields, coeffs, frame)
    resid = np.einsum("ij...,j...->i...", pt.P, out["momentum_vec"])
    out["momentum"] = np.linalg.norm(resid, axis=0)
    out["momentum_vec"] = resid
    out["tangency"] = np.abs(pt.vn)
    return out


def residual_noncanonical(fields, coeffs, frame):
    """Residual of the momentum law with explicit pressure gradient and
    curvature force, driven by the viscous stress of the tangential part."""
    pt = _Point(frame, fields.v)
    u = fields.u if fields.u is not None else fields.v
    divS_u = div_matrix_dual(
        stress_dual(u, 0.0, coeffs.mu, coeffs.lam, frame)[0], frame)
    rho = pt.val(fields.rho)
    sig = pt.val(fields.sigma)
    H = frame.H
    Fv = coeffs.F.value(pt.x, pt.t)
    resid = (rho * pt.Dt_vec(fields.v) + pt.grad_t(fields.sigma)
             + sig * H * pt.n
             - np.einsum("ij...,j...->i...", pt.P, divS_u) - rho * Fv)
    return {"momentum": np.linalg.norm(resid, axis=0)}


def residual_barotropic(fields, law, frame, variant="full"):
    """Residual of the barotropic momentum law (full or tangential variant),
    with the effective pressure derived from the law and the density."""
    pt = _Point(frame, fields.v)
    rho_f = fields.rho
    rho = pt.val(rho_f)
    if np.any(rho <= 0):
        raise NonpositiveDensity("barotropic residual needs rho > 0")
    peff = law.effective_field(rho_f)
    Dt_v = pt.Dt_vec(fields.v)
    grad_p = pt.grad_t(peff)
    if variant == "full":
        H = frame.H
        resid = rho * Dt_v + grad_p + pt.val(peff) * H * pt.n
    elif variant == "tangential":
        resid = np.einsum("ij...,j...->i...", pt.P, rho * Dt_v) + grad_p
    else:
        raise ValueError("variant must be 'full' or 'tangential'")
    return {"momentum": np.linalg.norm(resid, axis=0)}


# -- thermodynamics ---------------------------------------------------------------


def thermo_quantities(fields, coeffs, frame):
    """Enthalpy-equation residual, entropy-equation residual, pointwise
    entropy production, the free-energy identity residual, and the two
    (distinct) dissipation densities."""
    pt = _Point(frame, fields.v)
    f, c = fields, coeffs
    rho = pt.val(f.rho)
    theta = pt.val(f.theta)
    if np.any(rho <= 0):
        raise NonpositiveDensity("thermodynamics needs rho > 0")
    if np.any(theta <= 0):
        raise NonpositiveTemperature("thermodynamics needs theta > 0")

    S, Dproj, divv, mu_d, lam_d, _ = stress_dual(f.v, f.sigma, c.mu, c.lam, frame)
    e_tilde = frame.values(dissipation_density(Dproj, divv, mu_d, lam_d))
    # S : D_proj(v), for the free-energy identity
    SdD = np.einsum("ij...,ij...->...", frame.values(S), frame.values(Dproj))
    divq = pt.div_flux(c.kappa, f.theta)
    Q = pt.val(c.Q_theta)

    h = f.enthalpy
    r_enthalpy = np.abs(rho * pt.Dt(h)
                        - (divq + rho * Q + e_tilde + pt.Dt(f.sigma)))

    r_entropy = np.abs(theta * rho * pt.Dt(f.s) - (divq + rho * Q + e_tilde))

    grad_th = pt.grad_t(f.theta)
    kappa = pt.val(c.kappa)
    production = (e_tilde / theta
                  + kappa * np.einsum("i...,i...->...", grad_th, grad_th)
                  / theta ** 2)

    # free energy: rho Dt e_F + rho s Dt theta - S : D_proj(v) = -e_tilde
    eF = f.free_energy
    r_free = np.abs(rho * pt.Dt(eF) + rho * pt.val(f.s) * pt.Dt(f.theta)
                    - SdD + e_tilde)

    return {
        "enthalpy_residual": r_enthalpy,
        "entropy_residual": r_entropy,
        "entropy_production": production,
        "free_energy_residual": r_free,
        "e_dissipation": e_tilde,
        "e_density": 0.5 * e_tilde,
    }


# -- manufactured sources ----------------------------------------------------------


def manufactured_heat_source(fields, coeffs, frame):
    """Nodal heat source making the internal-energy line hold exactly."""
    pt = _Point(frame, fields.v)
    _, Dproj, divv, mu_d, lam_d, _ = stress_dual(
        fields.v, fields.sigma, coeffs.mu, coeffs.lam, frame)
    e_tilde = frame.values(dissipation_density(Dproj, divv, mu_d, lam_d))
    divv = frame.values(divv)
    rho = pt.val(fields.rho)
    divq = pt.div_flux(coeffs.kappa, fields.theta)
    return (rho * pt.Dt(fields.e) + divv * pt.val(fields.sigma)
            - divq - e_tilde) / rho


def manufactured_force(fields, coeffs, frame):
    """Nodal external force making the momentum line hold exactly."""
    pt = _Point(frame, fields.v)
    divS = div_matrix_dual(
        stress_dual(fields.v, fields.sigma, coeffs.mu, coeffs.lam, frame)[0], frame)
    rho = pt.val(fields.rho)
    return (rho * pt.Dt_vec(fields.v) - divS) / rho
