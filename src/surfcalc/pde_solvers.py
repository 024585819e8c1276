"""Method-of-lines solvers on chart grids: generalized heat and diffusion
equations (Lagrangian, conserved-variable form) and the tangential barotropic
system on a static surface.

Spatial discretization is the divergence-form chart Laplacian
``(1/sqrtJ) d_a ( sqrtJ g^{ab} e_J'(|grad|^2) d_b f )`` built from nested
4th-order first-derivative stencils on the padded ``ChartGrid`` the flow map
uses: a bounded direction carries four ghost rows per side (the reach of two
nested 5-point stencils), filled by bicubic interpolation from the partner
chart.  After every step, overlap nodes are blended with partition-of-unity
weights so the charts stay consistent.  Time integration is classical RK4.

All C charts share one padded grid shape, pads and spacings, so a field is
one (C, [components,] n1, n2) array and a metric snapshot holds the chart
axis after each field's tensor axes (g^ab: (2, 2, C, n1, n2)).  A stage runs
each stencil, einsum and metric read once for every chart; only the
cross-chart gathers of the ghost fill and the blend go chart by chart.

A stage forms only what it reads: the ghost rows its stencils reach (4 per
side for heat and diffusion, 2 for the barotropic stage), a constant
coefficient as one float, no heat density on a static solver (it is 1.0),
and a moving chart's t-free subtrees of x and g_a once per solver (7 or 8
nodes, 140 or 160 KiB per sphere band at 32x64).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chart_geometry import (_PAD, ChartGrid, MetricState, fd_derivative,
                             grid_integral)
from .evolving_surface import _rk4, worst_of
from .expressions import Num, parse_expr
from .fluid_models import NonpositiveDensity

__all__ = [
    "StabilityViolation",
    "FluxLaw",
    "flux_law_builtin",
    "GridField",
    "SurfaceGridSolver",
    "step_heat",
    "step_diffusion",
    "step_barotropic_tangential",
]

_RK4_REAL_LIMIT = 2.78
_D1_GAIN_SQ = 1.89  # max |symbol|^2 of the 4th-order first-derivative stencil
_METRIC_LEVELS = 4  # time levels SurfaceGridSolver.metric keeps


class StabilityViolation(RuntimeError):
    """The requested dt exceeds the explicit parabolic stability bound."""


class FluxLaw:
    """Scalar flux density e_J(z) of the squared tangential gradient.

    The flux is ``q = e_J'(|grad f|^2) grad f``; expression-backed in ``z``
    so the derivative is exact.
    """

    def __init__(self, e_expr, name="custom"):
        if isinstance(e_expr, str):
            e_expr = parse_expr(e_expr, ("z",))
        self.e_expr = e_expr
        self.d_expr = e_expr.diff("z")
        self.name = name

    def density(self, z):
        return self.e_expr.evaluate({"z": z})

    def deriv(self, z):
        return self.d_expr.evaluate({"z": z})


_FLUX_LAWS = {
    "linear": lambda kappa=1.0: FluxLaw(f"{kappa}*z", name="linear"),
    "quadratic": lambda: FluxLaw("z^2", name="quadratic"),
}


def flux_law_builtin(name, **params):
    if name not in _FLUX_LAWS:
        raise KeyError(f"unknown flux law {name!r}; known: {sorted(_FLUX_LAWS)}")
    return _FLUX_LAWS[name](**params)


@dataclass
class GridField:
    """Nodal values (C, [components,] n1, n2) of one evolving scalar (or
    stacked components) on the C charts; a stepper also takes a list."""

    values: np.ndarray
    t: float


# -- interpolation helpers -------------------------------------------------------


def _lagrange_cubic_weights(s):
    """Weights (..., 4) of 4-point cubic Lagrange interpolation at offsets s
    from the first node (nodes at 0, 1, 2, 3)."""
    pts = (0.0, 1.0, 2.0, 3.0)
    w = []
    for k in range(4):
        num = np.ones_like(s)
        for j in range(4):
            if j != k:
                num = num * ((s - pts[j]) / (pts[k] - pts[j]))
        w.append(num)
    return np.stack(w, axis=-1)


def _interp_stencils(axes, periodic, shape, targets):
    """Bicubic interpolation stencils from a uniform chart grid to targets.

    ``axes`` are the 1-D node coordinates, ``targets`` an (N, 2) array of
    chart coordinates.  Returns ``(cols, wts)``, each (16, N): the flat grid
    indices of each target's 4x4 stencil, ascending per target, and their
    weights.
    """
    n2 = shape[1]
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    idx, wgt = [], []
    for d, (ax, per, n) in enumerate(zip(axes, periodic, shape)):
        pos = (targets[:, d] - ax[0]) / (ax[1] - ax[0])
        j0 = np.floor(pos).astype(np.intp) - 1
        if not per:
            j0 = np.clip(j0, 0, n - 4)
        ids = j0[:, None] + np.arange(4)
        idx.append(ids % n if per else ids)
        wgt.append(_lagrange_cubic_weights(pos - j0))
    cols = (idx[0][:, :, None] * n2 + idx[1][:, None, :]).reshape(-1, 16)
    wts = (wgt[0][:, :, None] * wgt[1][:, None, :]).reshape(-1, 16)
    order = np.argsort(cols, axis=1, kind="stable")
    return tuple(np.ascontiguousarray(np.take_along_axis(a, order, 1).T)
                 for a in (cols, wts))


def _apply(op, values):
    """Stencil gather ``op`` ((16, N), or B of them, (B, 16, N)) applied to
    each (n1, n2) field of a stack (..., n1, n2); returns (..., [B,] N).
    Summed over the non-contiguous stencil axis, a target's 16 terms are
    added one after another in ascending index order, as a CSR product does."""
    cols, wts = op
    g = np.take(values.reshape(values.shape[:-2] + (-1,)), cols, axis=-1)
    g *= wts
    return g.sum(axis=-2)


# -- the grid solver --------------------------------------------------------------


class SurfaceGridSolver:
    """Discrete operators for one atlas at a fixed per-chart resolution.

    Charts may carry closed-form motion (time-dependent parametrizations);
    all metric data is evaluated analytically on the padded grids and cached
    per time level, or once for an atlas that does not move.  Bounded
    directions are only supported on multi-chart atlases (ghost data comes
    from the partner chart).

    Every chart shares one padded grid shape, pads and spacings (else
    ValueError): fields stack as (C, [components,] n1, n2), metric fields
    with the chart axis after their tensor axes, as g^ab (2, 2, C, n1, n2).
    """

    def __init__(self, atlas, resolution):
        self.resolution = tuple(resolution)
        self.charts = atlas.charts
        if len(self.charts) < 2 and not all(self.charts[0].periodic):
            raise ValueError("bounded chart directions need a partner chart")
        self.grids = [ChartGrid(atlas, m, resolution) for m in range(len(self.charts))]
        self.grid = self.grids[0]  # the shape, pads and spacings all share
        if len({(g.X.shape, g.pads, g.hs) for g in self.grids}) > 1:
            raise ValueError("charts on unequal padded grids (shape, pads or "
                             "spacings) cannot stack into one array")
        self._build_couplers()
        self._static = all(c.time_independent for c in self.charts)
        charts, grids = self.charts, self.grids  # no cycle through self
        free = [{} if self._static else chart.time_free(*g.X)
                for chart, g in zip(charts, grids)]
        self._metric_cache = functools.lru_cache(_METRIC_LEVELS)(
            lambda t: _stacked([chart.metric(g.X[0], g.X[1], t, known)
                                for chart, g, known in zip(charts, grids, free)]))

    # -- cross-chart coupling ----------------------------------------------------

    def _build_couplers(self):
        """Ghost-fill and overlap-blend stencil gathers (reference coords),
        per chart: ``{k: (partner, op, rows)}`` filling k = 2 or 4 ghost rows
        per side and ``(partner, op, node index, psi, 1 - psi)``; none on a
        one-chart atlas."""
        self.ghost_ops, self.blend_ops = [], []
        if len(self.charts) < 2:
            return
        for m, g in enumerate(self.grids):
            p1, p2 = g.pads
            if p2 != 0:
                raise ValueError("padding in a periodic direction is unsupported")
            # axis-0 ghost rows, inner 2 per side first: the 2-row fill takes half
            rows = np.r_[2:p1, -p1:2 - p1, :2, -2:0]
            op = [np.ascontiguousarray(a.reshape(16, 2, -1).swapaxes(0, 1))
                  for a in self._partner_op(m, g.X[0][rows], g.X[1][rows])]
            self.ghost_ops.append({2: (1 - m, [a[0] for a in op], np.r_[:2, -2:0]),
                                   p1: (1 - m, op, rows)})
            # blend rows: interior nodes where our pou weight is below 1
            need = np.nonzero(g.psi < 1.0 - 1e-13)
            psi = g.psi[need]
            self.blend_ops.append((1 - m, self._partner_op(
                m, g.axes[0][need[0]], g.axes[1][need[1]]), need, psi, 1.0 - psi))

    def _partner_op(self, m, X1, X2):
        """Interpolation from the partner chart's grid to chart m's points."""
        other = self.charts[1 - m]
        Y1, Y2 = other.invert(self.charts[m].position(X1, X2, 0.0))
        return _interp_stencils(self.grids[1 - m].axes, other.periodic,
                                self.resolution, np.stack([Y1, Y2], axis=-1))

    def fill_ghosts(self, values, k=_PAD):
        """``values`` (C, ..., n1, n2) padded by ``k`` ghost rows per bounded
        side, each chart's interpolated from its partner: the reach of the
        caller's stencils (4 for heat and diffusion, 2 for the barotropic
        stage)."""
        values, grid = np.asarray(values), self.grid
        pad = np.empty(values.shape[:-2] + grid.interior(grid.X[0], _PAD - k).shape)
        grid.interior(pad, k)[...] = values
        for m, ghosts in enumerate(self.ghost_ops):
            partner, op, rows = ghosts[k]
            pad[m][..., rows, :] = _apply(op, values[partner]).reshape(
                values.shape[1:-2] + (len(rows), pad.shape[-1]))
        return pad

    def blend(self, values):
        """Partition-of-unity average of overlapping chart values (in place).

        ``values`` is (C, ..., n1, n2), or a list of per-chart arrays."""
        interped = [_apply(bop, values[partner])
                    for partner, bop, *_ in self.blend_ops]
        for m, (_, _, need, psi, rest) in enumerate(self.blend_ops):
            own = values[m][(...,) + need]
            values[m][(...,) + need] = psi * own + rest * interped[m]
        return values

    # -- metric data ---------------------------------------------------------------

    def snapshot(self, t):
        """Padded metric snapshot of all charts at time ``t``, cached for the
        ``_METRIC_LEVELS`` most recently read levels (t = 0, and one RK4
        step's t, t + dt/2 and t + dt); the least recently read is evicted.
        A time-independent atlas has one entry, shared by every ``t``."""
        return self._metric_cache(0.0 if self._static else float(t))[0]

    def metric(self, t):
        """Per-chart views of :meth:`snapshot` at ``t``, no copies."""
        return self._metric_cache(0.0 if self._static else float(t))[1]

    def positions(self, t):
        """Interior material positions per chart at time ``t``."""
        return [self.interior(m, st.x) for m, st in enumerate(self.metric(t))]

    def interior(self, m, padded, k=_PAD):
        """Rows of ``padded`` k in from each padded edge (default: interior)."""
        return self.grids[m].interior(padded, k)

    # -- spatial operators -----------------------------------------------------------

    def _d(self, arr, axis, k):
        """Derivative along chart ``axis`` on the rows k in from each padded edge."""
        return fd_derivative(arr, axis, self.grid.hs[axis], self.grid.pads, k)

    def _gradient(self, values, t):
        """g^ab and the chart gradient (2, C, ...) of ``values`` on the rows
        two in from each padded edge: all the interior divergence reads."""
        pads = self.fill_ghosts(values)
        return (self.grid.interior(self.snapshot(t).inv_gram, 2),
                np.stack([self._d(pads, a, 2) for a in range(2)]))

    def flux_divergence(self, values, t, flux):
        """Interior values (C, n1, n2) of div_G(e_J'(|grad f|^2) grad f)."""
        inv_gram, df = self._gradient(values, t)
        sqrtJ = self.snapshot(t).sqrtJ
        # |grad f|^2 = g^{ab} f,a f,b; a constant e_J' needs no z
        z = None if isinstance(flux.d_expr, Num) else np.einsum(
            "ab...,a...,b...->...", inv_gram, df, df)
        Fa = np.einsum("ab...,b...->a...", inv_gram, df)
        Fa *= self.grid.interior(sqrtJ, 2) * flux.deriv(z)
        div = self._d(Fa[0], 0, 2)
        div += self._d(Fa[1], 1, 2)
        div /= self.grid.interior(sqrtJ)
        return div

    # -- stability ---------------------------------------------------------------------

    def check_parabolic_dt(self, dt, max_coef, t=0.0):
        """Raise StabilityViolation if dt exceeds the RK4 parabolic bound."""
        inv_gram, hs = self.snapshot(t).inv_gram, self.grid.hs
        lam = worst_of(0.0, float(np.max(_D1_GAIN_SQ * (
            inv_gram[0, 0] / hs[0] ** 2 + inv_gram[1, 1] / hs[1] ** 2))))
        # written so that a NaN rate gives a NaN bound, which refuses every dt
        rate = lam * max_coef
        bound = np.inf if rate <= 0 else _RK4_REAL_LIMIT / rate
        if not dt <= bound:
            raise StabilityViolation(
                f"dt={dt:g} exceeds explicit stability bound {bound:g}")
        return bound

    # -- integrals ----------------------------------------------------------------------

    def integrate(self, values, t):
        """Surface integral of interior nodal values at time ``t``."""
        return grid_integral(self.grids, values,
                             self.grid.interior(self.snapshot(t).sqrtJ))


class _ChartView(NamedTuple):
    """Chart ``m``'s fields of a stacked snapshot: each read is a view."""

    stacked: MetricState
    m: int

    def __getattr__(self, name):
        return getattr(self.stacked, name)[..., self.m, :, :]


def _stacked(states):
    """One MetricState stacking per-chart ``states``, the chart axis third
    from last, and a view of it per chart."""
    snap = MetricState(*(np.stack([getattr(st, f) for st in states], axis=-3)
                         for f in ("x", "g", "inv_gram", "sqrtJ")),
                       np.array([st.orientation for st in states])[:, None, None])
    return snap, [_ChartView(snap, m) for m in range(len(states))]


# -- time steppers -------------------------------------------------------------------


def _transported_rho(solver, t):
    """Exact density sqrtJ(0)/sqrtJ(t) at the interior nodes, transported
    from a unit one; None on a static solver, where it is exactly 1.0."""
    crop = solver.grid.interior
    return None if solver._static else (crop(solver.snapshot(0.0).sqrtJ)
                                        / crop(solver.snapshot(t).sqrtJ))


def _coefficient(solver, field, t):
    """Values (C, n1, n2) of a coefficient ``field`` at t (a constant: a float)."""
    return (field.expr.value if isinstance(field.expr, Num)
            else field.value(solver.grid.interior(solver.snapshot(t).x), t))


def _flux_bound(solver, values, t, flux, coefficients):
    """Max |e_J'| over [0, max |grad u|^2] of the interior ``values`` u at
    time ``t``, the gradient read on the rows the flux divergence reads; a
    NaN or inf in u or in the ``coefficients`` raises."""
    if not all(np.all(np.isfinite(v)) for v in (values, *coefficients)):
        raise StabilityViolation(f"NaN or inf in a field or coefficient at t={t:g}")
    zmax = 0.0
    if not isinstance(flux.d_expr, Num):  # a constant e_J' needs no z
        inv_gram, df = solver._gradient(values, t)
        zmax = float(np.max(np.einsum("ab...,a...,b...->...", inv_gram, df, df)))
    return float(np.max(np.abs(flux.deriv(np.linspace(0.0, worst_of(zmax, 1e-30), 8)))))


def step_heat(solver, field, coeffs, flux, dt):
    """One RK4 step of the generalized heat equation in Lagrangian form.

    ``field`` holds the product (specific heat * temperature) at the nodes;
    the density is the exact transport of a unit one.  The right-hand side is
    ``(div_G q + rho Q_theta) / rho`` at fixed reference coordinates (rho is
    1.0 on a static solver), with q the flux of theta = field / C_theta.
    The stability guard bounds e_J' by :func:`_flux_bound` of theta.
    """
    c, values = coeffs, np.asarray(field.values)
    cth = _coefficient(solver, c.C_theta, field.t)
    coef = _flux_bound(solver, values / cth, field.t, flux,
                       (cth, _coefficient(solver, c.Q_theta, field.t)))
    rho = _transported_rho(solver, field.t)
    low = float(np.min(1.0 if rho is None else rho)) * float(np.min(np.abs(cth)))
    solver.check_parabolic_dt(dt, coef / worst_of(low, 1e-30), field.t)

    def rhs(ys, t):
        cth = _coefficient(solver, c.C_theta, t)
        div = solver.flux_divergence(ys[0] / cth, t, flux)
        q, rho = _coefficient(solver, c.Q_theta, t), _transported_rho(solver, t)
        return [div + q if rho is None else (div + rho * q) / rho]

    return GridField(solver.blend(_rk4([values], field.t, dt, rhs)[0]),
                     field.t + dt)


def step_diffusion(solver, field, coeffs, flux, dt):
    """One RK4 step of the generalized diffusion equation.

    ``field`` holds the concentration C; internally the conserved variable
    C*sqrtJ is advanced at fixed reference coordinates, which realizes the
    (div v)C transport term exactly.  The guard is :func:`_flux_bound` of C.
    """
    c, values, crop = coeffs, np.asarray(field.values), solver.grid.interior
    coef = _flux_bound(solver, values, field.t, flux,
                       (_coefficient(solver, c.Q_C, field.t),))
    solver.check_parabolic_dt(dt, worst_of(coef, 1e-30), field.t)
    W = values * crop(solver.snapshot(field.t).sqrtJ)

    def rhs(ws, t):
        sj = crop(solver.snapshot(t).sqrtJ)
        div = solver.flux_divergence(ws[0] / sj, t, flux)
        return [sj * (div + _coefficient(solver, c.Q_C, t))]

    t_new = field.t + dt
    [W] = _rk4([W], field.t, dt, rhs)
    return GridField(solver.blend(W / crop(solver.snapshot(t_new).sqrtJ)), t_new)


def step_barotropic_tangential(solver, field, law, dt):
    """One RK4 step of the tangential barotropic system on a static surface.

    ``field.values`` stacks (rho, v1, v2, v3) per chart as a (C, 4, n1, n2)
    array; the velocity is re-projected onto the tangent space after every
    stage.  Raises ValueError on a moving atlas: all stages read
    ``field.t``'s metric.
    """
    if not solver._static:
        raise ValueError("the barotropic step needs a static surface")
    st, crop = solver.snapshot(field.t), solver.grid.interior
    # P and g^a at the interior nodes, where the stage needs derivatives
    P, gup = crop(st.P), crop(st.gup)

    def project(vals):
        vals[:, 1:] = np.einsum("ijc...,cj...->ci...", P, vals[:, 1:])
        return vals

    def rhs(ys, t):
        vals = project(ys[0].copy())
        if not np.min(vals[:, 0]) > 0:  # NaN fails too
            raise NonpositiveDensity("barotropic density became non-positive or NaN")
        # two ghost rows per side, the reach of the stage's one stencil; the
        # chart axis after the components, as in the metric
        pad = solver.fill_ghosts(vals, 2).swapaxes(0, 1)
        peff_pad = law.effective(np.maximum(pad[0], 1e-12))
        # chart derivatives (2, 5, C, ...) of the stack (rho, peff, v1, v2, v3)
        stack = np.concatenate([pad[:1], peff_pad[None], pad[1:]])
        ds = np.stack([solver._d(stack, a, 2) for a in range(2)])
        # tangential gradients g^a d_a f (5, 3, C, ...) and div_G v = g^a . d_a v
        grad = np.einsum("ai...,ak...->ki...", gup, ds)
        div_v = np.einsum("ai...,ai...->...", gup, ds[:, 2:])
        # tangential advection (v, grad_t) of each quantity
        vint, rho_i = crop(pad[1:], 2), crop(pad[0], 2)
        drho = -np.einsum("i...,i...->...", vint, grad[0]) - div_v * rho_i
        dv = -np.einsum("i...,ki...->k...", vint, grad[2:]) - grad[1] / rho_i
        dv = np.einsum("ij...,j...->i...", P, dv)
        return [np.stack([drho, *dv], axis=1)]

    [new] = _rk4([np.asarray(field.values)], field.t, dt, rhs)
    project(solver.blend(project(new)))
    return GridField(new, field.t + dt)
