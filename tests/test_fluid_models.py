import numpy as np
import pytest

from surfcalc.fields import random_scalar_field, random_vector_field
from surfcalc.fluid_models import (CoefficientFields, FluidFields,
                                   NonpositiveDensity, PressureLaw,
                                   manufactured_force,
                                   manufactured_heat_source,
                                   pressure_law_builtin, residual_barotropic,
                                   residual_conservative, residual_full,
                                   residual_noncanonical, residual_tangential,
                                   thermo_quantities)
from conftest import random_nodes


def frame_at(atlas, rng, n=200, t=0.3):
    chart = atlas.charts[0]
    X = random_nodes(chart, rng, n)
    return chart.frame(X[0], X[1], t)


# -- pressure laws -----------------------------------------------------------------


def test_pressure_law_builtin():
    rho = np.linspace(0.5, 3.0, 20)
    lin = pressure_law_builtin("linear", a=2.0)
    assert np.allclose(lin.p(rho), 2.0 * rho)
    # effective pressure of a linear law vanishes identically
    assert np.max(np.abs(lin.effective(rho))) <= 1e-14
    quad = pressure_law_builtin("quadratic", a=1.5)
    assert np.allclose(quad.effective(rho), 1.5 * rho ** 2)
    pw = pressure_law_builtin("power", a=1.0, gamma=1.4)
    assert np.allclose(pw.effective(rho), 0.4 * rho ** 1.4)
    with pytest.raises(KeyError):
        pressure_law_builtin("tabulated")


def _effective_fd_mismatch(law, rho, h=1e-6):
    """Max mismatch between the analytic effective pressure and the
    finite-difference construction rho*(p(rho+h)-p(rho-h))/(2h) - p."""
    rho = np.asarray(rho, dtype=float)
    fd = rho * (law.p(rho + h) - law.p(rho - h)) / (2.0 * h) - law.p(rho)
    return float(np.max(np.abs(fd - law.effective(rho))))


def test_pressure_law_fd_consistency():
    for law in (pressure_law_builtin("quadratic"),
                pressure_law_builtin("power", gamma=1.4),
                PressureLaw("r^3 + 2*r")):
        assert _effective_fd_mismatch(law, np.linspace(0.5, 2.5, 15)) <= 1e-7


def test_pressure_law_rejects_nonpositive_density():
    with pytest.raises(NonpositiveDensity):
        pressure_law_builtin("quadratic").effective(np.array([1.0, -0.5]))


def test_effective_field_composition(rng):
    law = pressure_law_builtin("quadratic", a=2.0)
    peff = law.effective_field("1 + 0.2*x3")
    x = rng.uniform(-1, 1, (3, 30))
    assert np.allclose(peff.value(x), 2.0 * (1 + 0.2 * x[2]) ** 2)


# -- derived state fields -----------------------------------------------------------


def test_derived_energies(rng):
    f = FluidFields(rho="2 + 0.1*x1", v=("x2", "-x1", "0"), sigma="x3",
                    e="1 + x2^2", theta="2 + 0.5*x3", s="0.3*x1")
    x = rng.uniform(-1, 1, (3, 40))
    rho = f.rho.value(x)
    assert np.allclose(f.enthalpy.value(x),
                       f.e.value(x) + f.sigma.value(x) / rho)
    v2 = np.einsum("i...,i...->...", f.v.value(x), f.v.value(x))
    assert np.allclose(f.total_energy.value(x),
                       0.5 * rho * v2 + rho * f.e.value(x))
    assert np.allclose(f.free_energy.value(x),
                       f.e.value(x) - f.theta.value(x) * f.s.value(x))


# -- residual structure --------------------------------------------------------------


def generic_state(rng):
    fields = FluidFields(
        rho=2.0 + random_scalar_field(rng, 0.2).expr,
        v=random_vector_field(rng, time_dependent=True),
        sigma=random_scalar_field(rng),
        e=1.0 + random_scalar_field(rng, 0.3).expr,
        theta=2.0 + random_scalar_field(rng, 0.3).expr,
        C=random_scalar_field(rng))
    coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.0, nu=0.8,
                               F=random_vector_field(rng),
                               Q_theta=random_scalar_field(rng),
                               Q_C=random_scalar_field(rng))
    return fields, coeffs


def test_conservative_form_equivalence(sphere, rng):
    """The conservative-form residuals are exact combinations of the
    advective-form ones, whatever the fields."""
    fields, coeffs = generic_state(rng)
    frame = frame_at(sphere, rng)
    full = residual_full(fields, coeffs, frame)
    cons = residual_conservative(fields, coeffs, frame)
    x = frame.metric().x
    v = fields.v.value(x, 0.3)
    ke = 0.5 * np.einsum("i...,i...->...", v, v)
    e = fields.e.value(x, 0.3)
    assert np.max(np.abs(cons["mass"] - full["mass"])) <= 1e-9
    assert np.max(np.abs(cons["momentum_vec"]
                         - (full["momentum_vec"] + v * full["mass"]))) <= 1e-9
    assert np.max(np.abs(cons["energy"]
                         - ((ke + e) * full["mass"]
                            + np.einsum("i...,i...->...", v,
                                        full["momentum_vec"])
                            + full["energy"]))) <= 1e-9
    assert np.max(np.abs(cons["concentration"] - full["concentration"])) <= 1e-9


def test_tangential_residual_projects_momentum(sphere, rng):
    fields, coeffs = generic_state(rng)
    frame = frame_at(sphere, rng, 100)
    st = frame.metric()
    res = residual_tangential(fields, coeffs, frame)
    # the tangential momentum residual is normal-free by construction
    normal_part = np.einsum("i...,i...->...", res["momentum_vec"], st.n)
    assert np.max(np.abs(normal_part)) <= 1e-10
    assert "tangency" in res


def test_manufactured_force_closes_momentum(sphere, rng):
    fields, _ = generic_state(rng)
    coeffs = CoefficientFields(mu=1.0, lam=0.5, F=("0", "0", "0"))
    frame = frame_at(sphere, rng, 100)
    F = manufactured_force(fields, coeffs, frame)
    rho = fields.rho.value(frame.metric().x, 0.3)
    res = residual_full(fields, coeffs, frame)
    assert np.max(np.abs(res["momentum_vec"] - rho * F)) <= 1e-10


def test_manufactured_heat_source_closes_energy(sphere, rng):
    fields, _ = generic_state(rng)
    coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.0, Q_theta=0.0)
    frame = frame_at(sphere, rng, 100)
    Q = manufactured_heat_source(fields, coeffs, frame)
    rho = fields.rho.value(frame.metric().x, 0.3)
    res = residual_full(fields, coeffs, frame)
    assert np.max(np.abs(res["energy"] - rho * Q)) <= 1e-10


def test_barotropic_residual_variants(sphere, rng):
    fields = FluidFields(rho=2.0 + random_scalar_field(rng, 0.2).expr,
                         v=random_vector_field(rng))
    law = pressure_law_builtin("quadratic")
    frame = frame_at(sphere, rng, 80)
    for variant in ("full", "tangential"):
        res = residual_barotropic(fields, law, frame, variant=variant)
        assert np.all(np.isfinite(res["momentum"]))
    with pytest.raises(ValueError):
        residual_barotropic(fields, law, frame, variant="hybrid")


def test_noncanonical_residual_runs(sphere, rng):
    fields, coeffs = generic_state(rng)
    fields.u = random_vector_field(rng)
    frame = frame_at(sphere, rng, 60)
    res = residual_noncanonical(fields, coeffs, frame)
    assert np.all(np.isfinite(res["momentum"]))


# -- thermodynamics ------------------------------------------------------------------


def consistent_thermo_state():
    """Resting state on the unit sphere whose thermodynamic identities hold
    in closed form: theta = 2 + x3, s = t, e = theta * t, so D_t e = theta
    D_t s, and the heat source 2 + 3 x3 balances the surface heat flux
    (Laplace-Beltrami of x3 is -2 x3 on the unit sphere)."""
    fields = FluidFields(rho=1.0, v=("0", "0", "0"), sigma="sin(t)",
                         e="(2 + x3)*t", theta="2 + x3", s="t")
    coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.0,
                               Q_theta="2 + 3*x3")
    return fields, coeffs


def test_thermo_identities_closed_form(sphere, rng):
    fields, coeffs = consistent_thermo_state()
    frame = frame_at(sphere, rng, 300)
    out = thermo_quantities(fields, coeffs, frame)
    assert np.max(out["enthalpy_residual"]) <= 1e-8
    assert np.max(out["entropy_residual"]) <= 1e-10
    assert np.max(out["free_energy_residual"]) <= 1e-10
    assert np.min(out["entropy_production"]) >= -1e-12


def test_entropy_production_nonnegative_generic(sphere, rng):
    for _ in range(3):
        fields, coeffs = generic_state(rng)
        frame = frame_at(sphere, rng, 200)
        out = thermo_quantities(fields, coeffs, frame)
        assert np.min(out["entropy_production"]) >= -1e-12
        assert np.min(out["e_dissipation"]) >= -1e-12
        assert np.allclose(out["e_density"], 0.5 * out["e_dissipation"])
