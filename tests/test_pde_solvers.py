import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from surfcalc import pde_solvers
from surfcalc.chart_geometry import Chart, ChartFrame, fd_derivative
from surfcalc.evolving_surface import (FlowState, integrate_grid,
                                       motion_builtin, moving_atlas)
from surfcalc.fields import as_scalar_field
from surfcalc.fluid_models import (CoefficientFields, NonpositiveDensity,
                                   pressure_law_builtin)
from scipy import sparse

from surfcalc.pde_solvers import (FluxLaw, GridField, StabilityViolation,
                                  SurfaceGridSolver, _apply, _interp_stencils,
                                  flux_law_builtin,
                                  step_barotropic_tangential, step_diffusion,
                                  step_heat)


@pytest.fixture(scope="module")
def solver(sphere):
    return SurfaceGridSolver(sphere, resolution=(32, 64))


def _deriv_fd_mismatch(flux, z, h=1e-6):
    """Max mismatch between the exact e_J' and a central difference of e_J."""
    z = np.asarray(z, dtype=float)
    fd = (flux.density(z + h) - flux.density(z - h)) / (2.0 * h)
    return float(np.max(np.abs(fd - flux.deriv(z))))


def test_flux_laws():
    z = np.linspace(0.1, 3.0, 20)
    lin = flux_law_builtin("linear", kappa=2.0)
    assert np.allclose(lin.density(z), 2.0 * z)
    assert np.allclose(lin.deriv(z), 2.0)
    quad = flux_law_builtin("quadratic")
    assert np.allclose(quad.deriv(z), 2.0 * z)
    assert _deriv_fd_mismatch(FluxLaw("z^2 + 0.5*z"), z) <= 1e-7
    with pytest.raises(KeyError):
        flux_law_builtin("cubic")


def _interp_matrix_loop(axes, periodic, shape, targets):
    """A per-target loop building the interpolation as a CSR matrix (test
    oracle for ``_interp_stencils``)."""
    def weights(s):
        w = np.empty(4)
        pts = (0.0, 1.0, 2.0, 3.0)
        for k in range(4):
            num = 1.0
            for j in range(4):
                if j != k:
                    num *= (s - pts[j]) / (pts[k] - pts[j])
            w[k] = num
        return w

    n1, n2 = shape
    rows, cols, vals = [], [], []
    h = [axes[0][1] - axes[0][0], axes[1][1] - axes[1][0]]
    for r, (y1, y2) in enumerate(targets):
        idx, wgt = [], []
        for d, (y, ax, per, n) in enumerate(
                zip((y1, y2), axes, periodic, (n1, n2))):
            pos = (y - ax[0]) / h[d]
            j0 = int(np.floor(pos)) - 1
            if per:
                s = pos - j0
                ids = [(j0 + k) % n for k in range(4)]
            else:
                j0 = min(max(j0, 0), n - 4)
                s = pos - j0
                ids = [j0 + k for k in range(4)]
            idx.append(ids)
            wgt.append(weights(s))
        for a in range(4):
            for b in range(4):
                rows.append(r)
                cols.append(idx[0][a] * n2 + idx[1][b])
                vals.append(wgt[0][a] * wgt[1][b])
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(len(targets), n1 * n2))


def _grid_axes(shape, periodic, rng):
    """Uniform 1-D node axes: periodic ones span [lo, lo + 2 pi)."""
    axes = []
    for n, per in zip(shape, periodic):
        lo = rng.uniform(-1.0, 1.0)
        h = 2.0 * math.pi / n if per else rng.uniform(0.05, 0.2)
        axes.append(lo + h * np.arange(n))
    return axes


def _edge_targets(axes, periodic, rng):
    """Per axis: exact nodes, points in the first and last cells (periodic
    wrap or clamped stencil), slightly outside bounded ends, and random."""
    cols = []
    for ax, per in zip(axes, periodic):
        h = ax[1] - ax[0]
        hi = ax[-1] + (h if per else 0.0)
        cols.append(np.concatenate([
            ax, ax[:3] + 0.37 * h, ax[-3:] + 0.61 * h,
            [ax[0] - 0.2 * h, hi - 1e-9, hi + 0.2 * h],
            rng.uniform(ax[0], hi, 40)]))
    few = [rng.choice(c, 5, replace=False) for c in cols]
    # every first-axis value against a few second-axis values, and back
    t1, t2 = np.meshgrid(cols[0], few[1], indexing="ij")
    u1, u2 = np.meshgrid(few[0], cols[1], indexing="ij")
    return np.concatenate([np.stack([t1.ravel(), t2.ravel()], axis=-1),
                           np.stack([u1.ravel(), u2.ravel()], axis=-1)])


_PERIODICITIES = [(False, True), (True, False), (False, False), (True, True)]


@pytest.mark.parametrize("periodic", _PERIODICITIES)
def test_interp_matrix_matches_loop(periodic):
    rng = np.random.default_rng(7)
    shape = (13, 24)
    axes = _grid_axes(shape, periodic, rng)
    targets = _edge_targets(axes, periodic, rng)
    cols, wts = _interp_stencils(axes, periodic, shape, targets)
    want = _interp_matrix_loop(axes, periodic, shape, targets)
    # the oracle's CSR keeps 16 entries per row, its columns ascending
    assert np.array_equal(want.indptr, 16 * np.arange(len(targets) + 1))
    assert cols.shape == wts.shape == (16, len(targets))
    # scipy stores int32 indices on a small matrix; np.take reads intp ones
    # without a cast
    assert cols.dtype == np.intp and wts.dtype == want.data.dtype
    assert np.array_equal(cols, want.indices.reshape(-1, 16).T)
    assert np.array_equal(wts, want.data.reshape(-1, 16).T)


def test_interp_matrix_reproduces_bicubics():
    # 4-point Lagrange reproduces degree <= 3 in each variable, also with a
    # clamped stencil at either end; so every row sums to 1
    rng = np.random.default_rng(3)
    shape = (11, 14)
    axes = _grid_axes(shape, (False, False), rng)
    targets = _edge_targets(axes, (False, False), rng)
    coef = rng.normal(size=(4, 4))

    def p(X1, X2):
        return np.polynomial.polynomial.polyval2d(X1, X2, coef)

    X1, X2 = np.meshgrid(*axes, indexing="ij")
    op = _interp_stencils(axes, (False, False), shape, targets)
    assert np.max(np.abs(_apply(op, p(X1, X2))
                         - p(targets[:, 0], targets[:, 1]))) <= 1e-12
    for periodic in [(False, True), (True, False), (False, False)]:
        axes = _grid_axes(shape, periodic, rng)
        _, wts = _interp_stencils(axes, periodic, shape,
                                  _edge_targets(axes, periodic, rng))
        assert np.max(np.abs(wts.sum(axis=0) - 1.0)) <= 1e-12


@pytest.mark.parametrize("periodic", _PERIODICITIES)
def test_apply_equals_csr_product(periodic):
    """The gather adds each stencil's 16 terms in the order a CSR product
    does, so both give the same bits on one field and on stacks of them."""
    rng = np.random.default_rng(11)
    shape = (13, 24)
    axes = _grid_axes(shape, periodic, rng)
    targets = _edge_targets(axes, periodic, rng)
    op = _interp_stencils(axes, periodic, shape, targets)
    csr = _interp_matrix_loop(axes, periodic, shape, targets)
    for lead in [(), (4,), (2, 3)]:
        v = rng.normal(size=lead + shape)
        want = (csr @ v.reshape(-1, csr.shape[1]).T).T.reshape(
            lead + (len(targets),))
        assert np.array_equal(_apply(op, v), want), lead


def test_solver_integrates_area(solver):
    ones = [np.ones(solver.resolution) for _ in solver.charts]
    area = solver.integrate(ones, 0.0)
    assert abs(area - 4 * math.pi) / (4 * math.pi) <= 1e-5


def test_flow_and_solver_share_one_grid(sphere, solver):
    """The flow map and the solver build the same padded chart grids, and
    both integrals are the one grid sum: equal values and area elements give
    equal bits."""
    state = FlowState.create(sphere, resolution=solver.resolution)
    for a, b in zip(state.grids, solver.grids):
        assert a.hs == b.hs and a.pads == b.pads
        for name in ("X", "w", "psi"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert all(np.array_equal(p, q) for p, q in zip(a.axes, b.axes))
    vals = [1.0 + 0.3 * x[0] * x[2] for x in solver.positions(0.0)]
    sqrtJ = [solver.interior(m, st.sqrtJ)
             for m, st in enumerate(solver.metric(0.0))]
    on_solver = dataclasses.replace(
        state, geo=[SimpleNamespace(sqrtJ=s) for s in sqrtJ])
    assert integrate_grid(on_solver, vals) == solver.integrate(vals, 0.0)


def test_stability_guard(solver):
    bound = solver.check_parabolic_dt(1e-5, 1.0)
    assert bound > 1e-5
    with pytest.raises(StabilityViolation):
        solver.check_parabolic_dt(10.0 * bound, 1.0)


def _guard_bound(solver, values, flux):
    """The bound of the steppers' guard at unit density and specific heat:
    e_J' over [0, max |grad u|^2], read on padded rows [2:-2], where the
    stage's flux divergence reads."""
    zmax = 0.0
    for m, (st, pad) in enumerate(zip(solver.metric(0.0),
                                      solver.fill_ghosts(values))):
        df = np.stack([solver._d(m, pad, a, 2) for a in range(2)])
        zmax = max(zmax, float(np.max(np.einsum(
            "ab...,a...,b...->...", solver.interior(m, st.inv_gram, 2),
            df, df))))
    coef = float(np.max(np.abs(flux.deriv(np.linspace(0.0, zmax, 8)))))
    return solver.check_parabolic_dt(0.0, coef)


@pytest.mark.parametrize("law", ["linear", "quadratic"])
def test_step_heat_guard_raises(solver, law):
    coeffs = CoefficientFields(F=("0", "0", "0"), Q_theta=0.0)
    flux = flux_law_builtin(law)
    field = GridField([x[2].copy() for x in solver.positions(0.0)], 0.0)
    bound = _guard_bound(solver, field.values, flux)
    with pytest.raises(StabilityViolation):
        step_heat(solver, field, coeffs, flux, 10.0 * bound)
    step_heat(solver, field, coeffs, flux, 0.5 * bound)


@pytest.mark.parametrize("law", ["linear", "quadratic"])
def test_step_diffusion_guard_raises(solver, law):
    """|grad C|^2 of C = 6 x3 reaches 36, so the quadratic flux's e_J' = 2z
    is bounded over [0, 36]: a dt admitted for z <= 1 alone is refused."""
    coeffs = CoefficientFields(Q_C=1.0)
    flux = flux_law_builtin(law)
    field = GridField([6.0 * x[2] for x in solver.positions(0.0)], 0.0)
    bound = _guard_bound(solver, field.values, flux)
    with pytest.raises(StabilityViolation):
        step_diffusion(solver, field, coeffs, flux, 10.0 * bound)
    if law == "quadratic":
        with pytest.raises(StabilityViolation):
            step_diffusion(solver, field, coeffs, flux,
                           0.5 * solver.check_parabolic_dt(0.0, 2.0))
    step_diffusion(solver, field, coeffs, flux, 0.5 * bound)


def test_step_heat_guard_scales_with_specific_heat(solver, monkeypatch):
    """The field holds C_theta * theta and the flux acts on theta, whose
    diffusivity is e_J' / (rho C_theta): with theta fixed, the largest dt
    the guard admits (the bound it checks dt against) grows in proportion
    to C_theta."""
    bounds = []
    check = solver.check_parabolic_dt

    def recording(dt, max_coef, t=0.0):
        bounds.append(check(0.0, max_coef, t))
        raise StabilityViolation("bound recorded")

    monkeypatch.setattr(solver, "check_parabolic_dt", recording)
    flux = flux_law_builtin("quadratic")
    xs = solver.positions(0.0)
    for c in (0.5, 1.0, 2.0):
        coeffs = CoefficientFields(C_theta=c, F=("0", "0", "0"), Q_theta=0.0)
        field = GridField([c * x[2] for x in xs], 0.0)
        with pytest.raises(StabilityViolation, match="bound recorded"):
            step_heat(solver, field, coeffs, flux, 1.0)
    assert bounds[1] == pytest.approx(2.0 * bounds[0], rel=1e-12)
    assert bounds[2] == pytest.approx(2.0 * bounds[1], rel=1e-12)


def test_static_metric_built_once(solver):
    # nothing in the static sphere's metric depends on t: one cache entry
    assert solver.metric(0.0) is solver.metric(0.37)


def test_moving_metric_follows_time(sphere):
    # dilation x -> (1 + t) x scales the area element by (1 + t)^2
    moving = SurfaceGridSolver(
        moving_atlas(sphere, motion_builtin("dilation")), resolution=(16, 32))
    t = 0.37
    for st0, st in zip(moving.metric(0.0), moving.metric(t)):
        assert np.allclose(st.sqrtJ, (1.0 + t) ** 2 * st0.sqrtJ,
                           rtol=1e-13, atol=0.0)


def test_solver_metric_builds_no_frame(sphere, monkeypatch):
    """A time level's metric comes from plain chart values: no ChartFrame is
    built, and every field equals the dual frame's on the padded grid."""
    moving = SurfaceGridSolver(
        moving_atlas(sphere, motion_builtin("dilation")), resolution=(16, 32))
    frames = [ChartFrame(chart, Xp[0], Xp[1], 0.3)
              for chart, Xp in zip(moving.charts, (g.X for g in moving.grids))]
    built = []
    original = ChartFrame.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(ChartFrame, "__init__", counting)
    states = moving.metric(0.3)
    assert built == []
    for st, frame in zip(states, frames):
        for name in ("x", "g", "gram", "inv_gram", "J", "sqrtJ", "n", "P"):
            assert np.array_equal(getattr(st, name),
                                  frame.values(getattr(frame, name))), name


def _moving_run(sphere, stepper, coeffs, monkeypatch):
    """20 steps of ``stepper`` on the dilating 16x32 sphere: the final
    values, the Chart.metric calls and the most time levels cached."""
    moving = SurfaceGridSolver(
        moving_atlas(sphere, motion_builtin("dilation")), resolution=(16, 32))
    field = GridField([1.0 + 0.5 * x[2] for x in moving.positions(0.0)], 0.0)
    calls = []
    original = Chart.metric

    def counting(self, *args):
        calls.append(args[2])
        return original(self, *args)

    levels = 0
    with monkeypatch.context() as patch:
        patch.setattr(Chart, "metric", counting)
        for _ in range(20):
            field = stepper(moving, field, coeffs, flux_law_builtin("linear"),
                            2e-4)
            levels = max(levels,
                         moving._metric_cache.cache_info().currsize)
    return field.values, len(calls), levels


@pytest.mark.parametrize("stepper, coeffs", [
    (step_heat, CoefficientFields(F=("0", "0", "0"), Q_theta=0.0)),
    (step_diffusion, CoefficientFields(Q_C=1.0))])
def test_metric_cache_holds_one_rk4_step(sphere, stepper, coeffs, monkeypatch):
    """The moving solver keeps t = 0 and one RK4 step's three time levels:
    each level is built once per chart (40 levels after t = 0, where the old
    clear-all cache of 9 levels made 88 calls), and the fields equal those
    of a cache that never evicts, bit for bit."""
    values, calls, levels = _moving_run(sphere, stepper, coeffs, monkeypatch)
    assert levels <= 4
    assert calls <= 88
    monkeypatch.setattr(pde_solvers, "_METRIC_LEVELS", 10 ** 6)
    kept, kept_calls, _ = _moving_run(sphere, stepper, coeffs, monkeypatch)
    assert calls == kept_calls
    for a, b in zip(values, kept):
        assert np.array_equal(a, b)


def test_heat_decay_short(solver):
    # theta = exp(-2 t) x3 solves the surface heat equation on the unit sphere
    coeffs = CoefficientFields(F=("0", "0", "0"), Q_theta=0.0)
    flux = flux_law_builtin("linear")
    xs = solver.positions(0.0)
    field = GridField([x[2].copy() for x in xs], 0.0)
    dt = 5e-4
    for _ in range(100):
        field = step_heat(solver, field, coeffs, flux, dt)
    scale = math.exp(-2.0 * field.t)
    err = max(np.max(np.abs(field.values[m] - scale * xs[m][2]))
              for m in range(len(xs)))
    assert err / scale <= 1e-3


def test_diffusion_budget_and_profile(solver):
    # unit source: C = 1 + t + 0.5 exp(-2 t) x3, total grows by 4 pi t
    coeffs = CoefficientFields(Q_C=1.0)
    flux = flux_law_builtin("linear")
    xs = solver.positions(0.0)
    field = GridField([1.0 + 0.5 * x[2] for x in xs], 0.0)
    mass0 = solver.integrate(field.values, 0.0)
    dt = 5e-4
    for _ in range(100):
        field = step_diffusion(solver, field, coeffs, flux, dt)
    mass = solver.integrate(field.values, field.t)
    assert abs(mass - mass0 - 4 * math.pi * field.t) <= 5e-6
    exact = [1.0 + field.t + 0.5 * math.exp(-2 * field.t) * x[2] for x in xs]
    err = max(np.max(np.abs(field.values[m] - exact[m]))
              for m in range(len(xs)))
    assert err <= 1e-3


def test_barotropic_step_conserves_mass(solver):
    law = pressure_law_builtin("quadratic")
    states = solver.metric(0.0)
    vals = []
    for m, st in enumerate(states):
        x = solver.interior(m, st.x)
        P = solver.interior(m, st.P)
        v0 = np.stack([-0.3 * x[1], 0.3 * x[0], np.zeros_like(x[0])])
        vt = np.einsum("ij...,j...->i...", P, v0)
        rho = 2.0 + 0.2 * x[2]
        vals.append(np.concatenate([rho[None], vt]))
    field = GridField(vals, 0.0)
    mass0 = solver.integrate([v[0] for v in field.values], 0.0)
    for _ in range(50):
        field = step_barotropic_tangential(solver, field, law, 2e-4)
    mass = solver.integrate([v[0] for v in field.values], field.t)
    assert abs(mass - mass0) / abs(mass0) <= 1e-6
    # velocity stays tangential (re-projected every stage)
    for m, st in enumerate(solver.metric(field.t)):
        n = solver.interior(m, st.n)
        vn = np.einsum("i...,i...->...", field.values[m][1:], n)
        assert np.max(np.abs(vn)) <= 1e-12


# 4th-order one-sided first-derivative rows at a bounded edge (oracle only)
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _full_rows_d(solver, m, arr, axis):
    """Derivative over every padded row: a periodic axis wraps, a padded one
    takes the central stencil inside and one-sided ones at its edges."""
    grid = solver.grids[m]
    h = grid.hs[axis]
    if not grid.pads[axis]:
        return fd_derivative(arr, axis, h, (0, 0))
    ax = arr.ndim - 2 + axis

    def ix(s):
        return (slice(None),) * ax + (s,)

    out = np.empty_like(arr)
    out[ix(np.s_[2:-2])] = fd_derivative(
        arr, axis, h, tuple(p if d == axis else 0
                            for d, p in enumerate(grid.pads)), 2)
    lo, hi = arr[ix(np.s_[:5])], arr[ix(np.s_[:-6:-1])]
    for k, edge in enumerate((_EDGE0, _EDGE1)):
        out[ix(k)] = np.tensordot(edge, lo, axes=(0, ax)) / h
        out[ix(-1 - k)] = -np.tensordot(edge, hi, axes=(0, ax)) / h
    return out


def _flux_divergence_full_rows(solver, values, t, flux, coef):
    """flux_divergence with every stencil on the whole padded arrays and the
    interior cropped at the end (test oracle)."""
    coef_f = as_scalar_field(coef)
    out = []
    for m, (st, pad) in enumerate(zip(solver.metric(t),
                                      solver.fill_ghosts(values))):
        df = np.stack([_full_rows_d(solver, m, pad, a) for a in range(2)])
        z = np.einsum("ab...,a...,b...->...", st.inv_gram, df, df)
        scale = st.sqrtJ * coef_f.value(st.x, t) * flux.deriv(z)
        Fa = scale * np.einsum("ab...,b...->a...", st.inv_gram, df)
        div = (_full_rows_d(solver, m, Fa[0], 0)
               + _full_rows_d(solver, m, Fa[1], 1)) / st.sqrtJ
        out.append(solver.interior(m, div))
    return out


@pytest.fixture(scope="module")
def small_solvers(sphere, torus):
    return {
        "static": SurfaceGridSolver(sphere, resolution=(16, 32)),
        "dilating": SurfaceGridSolver(
            moving_atlas(sphere, motion_builtin("dilation")),
            resolution=(16, 32)),
        "torus": SurfaceGridSolver(torus, resolution=(16, 24)),
    }


@pytest.mark.parametrize("law", ["linear", "quadratic"])
@pytest.mark.parametrize("kind", ["static", "dilating", "torus"])
def test_flux_divergence_equals_full_padded_route(small_solvers, kind, law):
    # a stage takes central stencils on the rows it keeps; the one-sided
    # edge rows and the ghost band of the full route never reach the interior
    solver = small_solvers[kind]
    flux = flux_law_builtin(law)
    f = [np.sin(x[0] + 2.0 * x[1]) * (1.0 + 0.3 * x[2])
         for x in solver.positions(0.0)]
    for t in (0.0, 0.3):
        got = solver.flux_divergence(f, t, flux)
        ref = _flux_divergence_full_rows(solver, f, t, flux, 1.0)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def _barotropic_step_all_rows(solver, field, law, dt):
    """One barotropic RK4 step with the pressure law and the derivative
    stack formed on every padded row, the stencils then read at the
    interior: the stage as written before it cropped its stack."""
    P, inv_gram, g = ([solver.interior(m, getattr(st, name))
                       for m, st in enumerate(solver.metric(field.t))]
                      for name in ("P", "inv_gram", "g"))

    def project(vals):
        for m in range(len(vals)):
            vals[m][1:] = np.einsum("ij...,j...->i...", P[m], vals[m][1:])
        return vals

    def rhs(vals, t):
        vals = project([v.copy() for v in vals])
        out = []
        for m, pad in enumerate(solver.fill_ghosts(vals)):
            peff_pad = law.effective(np.maximum(pad[0], 1e-12))
            stack = np.concatenate([pad[:1], peff_pad[None], pad[1:]])
            ds = np.stack([solver._d(m, stack, a, pde_solvers._PAD)
                           for a in range(2)])
            grad = [np.einsum("ab...,ai...,b...->i...", inv_gram[m], g[m],
                              ds[:, k]) for k in range(5)]
            div_v = np.einsum("ab...,ai...,bi...->...", inv_gram[m], g[m],
                              ds[:, 2:])
            vint = solver.interior(m, pad[1:])
            rho_i = solver.interior(m, pad[0])
            drho = -np.einsum("i...,i...->...", vint, grad[0]) - div_v * rho_i
            dv = np.empty_like(vint)
            for i in range(3):
                dv[i] = -np.einsum("i...,i...->...", vint, grad[2 + i])
            dv -= grad[1] / rho_i
            dv = np.einsum("ij...,j...->i...", P[m], dv)
            out.append(np.concatenate([drho[None], dv]))
        return out

    stepped = GridField(pde_solvers._rk4(field.values, field.t, dt, rhs),
                        field.t + dt)
    project(stepped.values)
    project(solver.blend(stepped.values))
    return stepped


@pytest.mark.parametrize("kind", ["static", "torus"])
def test_barotropic_stage_equals_full_padded_route(small_solvers, kind,
                                                   monkeypatch):
    """The stage crops its ghost-filled stack to the rows its stencils read
    before the pressure law: bit-identical to the law and the derivative
    stack on every padded row, and to whole-row derivatives then cropped."""
    solver = small_solvers[kind]
    law = pressure_law_builtin("quadratic")
    vals = []
    for m, st in enumerate(solver.metric(0.0)):
        x, P = solver.interior(m, st.x), solver.interior(m, st.P)
        v0 = np.stack([-0.3 * x[1] + 0.1 * x[2], 0.3 * x[0], -0.1 * x[0]])
        vt = np.einsum("ij...,j...->i...", P, v0)
        vals.append(np.concatenate([(2.0 + 0.2 * x[2])[None], vt]))
    field = GridField(vals, 0.0)
    got = step_barotropic_tangential(solver, field, law, 2e-4)
    every_row = _barotropic_step_all_rows(solver, field, law, 2e-4)
    for a, b in zip(got.values, every_row.values, strict=True):
        assert np.array_equal(a, b)
    # the reference differentiates the whole padded stack, then crops
    monkeypatch.setattr(solver, "_d", lambda m, arr, axis, k=0: solver.interior(
        m, _full_rows_d(solver, m, arr, axis), k))
    ref = step_barotropic_tangential(solver, field, law, 2e-4)
    for a, b in zip(got.values, ref.values):
        assert np.array_equal(a, b)


def _rotating_fluid(solver):
    """(rho, v) of a rigid rotation about x3, tangent to the unit sphere."""
    return GridField([np.stack([2.0 + 0.2 * x[2], -0.3 * x[1], 0.3 * x[0],
                                np.zeros_like(x[0])])
                      for x in solver.positions(0.0)], 0.0)


def test_barotropic_step_refuses_a_moving_surface(sphere):
    """Every stage of the barotropic step reads the metric at ``field.t``,
    so a moving atlas is refused instead of stepped on a frozen surface."""
    moving = SurfaceGridSolver(
        moving_atlas(sphere, motion_builtin("dilation")), resolution=(16, 32))
    with pytest.raises(ValueError, match="static surface"):
        step_barotropic_tangential(moving, _rotating_fluid(moving),
                                   pressure_law_builtin("quadratic"), 1e-3)


def _nan_at(values, *index):
    """``values`` with one NaN node in the second chart."""
    values[1][index] = np.nan
    return values


@pytest.mark.parametrize("case", ["heat", "diffusion", "barotropic"])
def test_step_guards_refuse_nan(small_solvers, case):
    """A NaN specific heat, concentration node or density node fails its
    step's guard, as a too-large or a non-positive finite value does: a
    NaN bound refuses every dt, and a NaN density is not positive."""
    solver = small_solvers["static"]
    xs = solver.positions(0.0)
    with pytest.raises((StabilityViolation, NonpositiveDensity), match="nan|NaN"):
        if case == "heat":
            step_heat(solver, GridField([x[2].copy() for x in xs], 0.0),
                      CoefficientFields(C_theta=float("nan"), Q_theta=0.0),
                      flux_law_builtin("linear"), 1.0)
        elif case == "diffusion":
            species = _nan_at([1.0 + 0.5 * x[2] for x in xs], 8, 16)
            step_diffusion(solver, GridField(species, 0.0),
                           CoefficientFields(Q_C=1.0),
                           flux_law_builtin("quadratic"), 1e-4)
        else:
            fluid = _rotating_fluid(solver)
            _nan_at(fluid.values, 0, 8, 16)
            step_barotropic_tangential(solver, fluid,
                                       pressure_law_builtin("quadratic"), 2e-4)


def test_stages_build_only_the_metric_fields_they_read(sphere, monkeypatch):
    """Heat and diffusion stages read x, g^ab and sqrt J: no snapshot of a
    static or a dilating solver builds g_ab, J, n, P or g^a.  The barotropic
    stage builds n, P and g^a on its own solver's snapshots only."""
    built = []
    original = Chart.metric

    def recording(self, *args):
        built.append(original(self, *args))
        return built[-1]

    monkeypatch.setattr(Chart, "metric", recording)
    dilating = moving_atlas(sphere, motion_builtin("dilation"))
    flux = flux_law_builtin("linear")
    for atlas in (sphere, dilating):
        solver = SurfaceGridSolver(atlas, resolution=(16, 32))
        xs = solver.positions(0.0)
        heat = GridField([x[2].copy() for x in xs], 0.0)
        species = GridField([1.0 + 0.5 * x[2] for x in xs], 0.0)
        for _ in range(3):
            heat = step_heat(solver, heat, CoefficientFields(
                F=("0", "0", "0"), Q_theta=0.0), flux, 2e-4)
            species = step_diffusion(solver, species,
                                     CoefficientFields(Q_C=1.0), flux, 2e-4)
    solver = SurfaceGridSolver(sphere, resolution=(16, 32))
    field = _rotating_fluid(solver)
    derived = {"gram", "J", "n", "P", "gup"}
    assert built and all(not derived & set(vars(st)) for st in built)
    step_barotropic_tangential(solver, field,
                               pressure_law_builtin("quadratic"), 2e-4)
    for st in solver.metric(0.0):
        assert derived & set(vars(st)) == {"n", "P", "gup"}
    assert all(not derived & set(vars(st)) for st in built[:-2])


def test_moving_metric_cache_holds_four_slim_levels(sphere):
    """After 20 diffusion steps on the dilating 32x64 sphere the metric
    cache keeps four time levels of x, g_a, g^ab and sqrt J per chart:
    14 rows of 40 x 64 padded nodes, 2.19 MiB in all (4.86 MiB with every
    field held)."""
    coeffs, flux = CoefficientFields(Q_C=0.0), flux_law_builtin("linear")
    tracemalloc.start()
    try:
        solver = SurfaceGridSolver(
            moving_atlas(sphere, motion_builtin("dilation")), (32, 64))
        field = GridField([1.0 + 0.5 * x[2] for x in solver.positions(0.0)],
                          0.0)
        for _ in range(20):
            field = step_diffusion(solver, field, coeffs, flux, 5e-4)
        held = tracemalloc.get_traced_memory()[0]
        solver._metric_cache.cache_clear()
        retained = (held - tracemalloc.get_traced_memory()[0]) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert solver._metric_cache.cache_info().maxsize == 4
    assert retained <= 2.4
