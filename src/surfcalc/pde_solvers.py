"""Method-of-lines solvers on chart grids: generalized heat and diffusion
equations (Lagrangian, conserved-variable form) and the tangential barotropic
system on a static surface.

Spatial discretization is the divergence-form chart Laplacian
``(1/sqrtJ) d_a ( sqrtJ g^{ab} e_J'(|grad|^2) d_b f )`` built from nested
4th-order first-derivative stencils on each chart's padded ``ChartGrid``,
the grid the flow map uses: a bounded direction carries four ghost rows per
side, filled by bicubic interpolation from the partner chart (sphere
atlas).  Four rows are the reach of two nested 5-point stencils, so a stage
takes central stencils alone, on the rows it keeps.  After
every step, overlap nodes are blended with partition-of-unity weights so the
charts stay consistent.  Time integration is classical RK4.

A stage forms only what it reads: the ghost rows its stencils reach (4 per
side for heat and diffusion, 2 for the barotropic stage), a constant
coefficient as one float, no heat density on a static solver (it is 1.0),
and a moving chart's t-free subtrees of x and g_a once per solver (7 or 8
nodes, 140 or 160 KiB per sphere band at 32x64).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chart_geometry import _PAD, ChartGrid, fd_derivative, grid_integral
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
    """Per-chart nodal values of one evolving scalar (or stacked components)."""

    values: list
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
    """

    def __init__(self, atlas, resolution):
        self.resolution = tuple(resolution)
        self.charts = atlas.charts
        if len(self.charts) < 2 and not all(self.charts[0].periodic):
            raise ValueError("bounded chart directions need a partner chart")
        self.grids = [ChartGrid(atlas, m, resolution) for m in range(len(self.charts))]
        self._build_couplers()
        self._static = all(c.time_independent for c in self.charts)
        charts, grids = self.charts, self.grids  # no cycle through self
        free = [{} if self._static else chart.time_free(*g.X)
                for chart, g in zip(charts, grids)]
        self._metric_cache = functools.lru_cache(_METRIC_LEVELS)(
            lambda t: [chart.metric(g.X[0], g.X[1], t, known)
                       for chart, g, known in zip(charts, grids, free)])

    # -- cross-chart coupling ----------------------------------------------------

    def _build_couplers(self):
        """Ghost-fill and overlap-blend stencil gathers (reference coords),
        per chart: ``{k: (partner, op, rows)}`` filling k = 2 or 4 ghost rows
        per side and ``(partner, op, node index, psi, 1 - psi)``, or None."""
        self.ghost_ops = [None] * len(self.charts)
        self.blend_ops = [None] * len(self.charts)
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
            self.ghost_ops[m] = {2: (1 - m, [a[0] for a in op], np.r_[:2, -2:0]),
                                 p1: (1 - m, op, rows)}
            # blend rows: interior nodes where our pou weight is below 1
            need = np.nonzero(g.psi < 1.0 - 1e-13)
            psi = g.psi[need]
            self.blend_ops[m] = (1 - m, self._partner_op(
                m, g.axes[0][need[0]], g.axes[1][need[1]]), need, psi, 1.0 - psi)

    def _partner_op(self, m, X1, X2):
        """Interpolation from the partner chart's grid to chart m's points."""
        other = self.charts[1 - m]
        Y1, Y2 = other.invert(self.charts[m].position(X1, X2, 0.0))
        return _interp_stencils(self.grids[1 - m].axes, other.periodic,
                                self.resolution, np.stack([Y1, Y2], axis=-1))

    def fill_ghosts(self, values, k=_PAD):
        """Per-chart arrays padded by ``k`` ghost rows per bounded side,
        interpolated cross-chart: the reach of the caller's stencils (4 for
        heat and diffusion, 2 for the barotropic stage).

        Each ``values[m]`` is one (n1, n2) field or a stack (..., n1, n2)."""
        out = []
        for m in range(len(self.charts)):
            lead = values[m].shape[:-2]
            pad = np.empty(lead + self.interior(m, self.grids[m].X[0], _PAD - k).shape)
            self.interior(m, pad, k)[...] = values[m]
            if self.ghost_ops[m] is not None:
                partner, op, rows = self.ghost_ops[m][k]
                pad[..., rows, :] = _apply(op, values[partner]).reshape(
                    lead + (len(rows), pad.shape[-1]))
            out.append(pad)
        return out

    def blend(self, values):
        """Partition-of-unity average of overlapping chart values (in place).

        Each ``values[m]`` is one (n1, n2) field or a stack (..., n1, n2)."""
        if len(self.charts) < 2:
            return values
        interped = [_apply(bop, values[partner])
                    for partner, bop, *_ in self.blend_ops]
        for m, (_, _, need, psi, rest) in enumerate(self.blend_ops):
            own = values[m][(...,) + need]
            values[m][(...,) + need] = psi * own + rest * interped[m]
        return values

    # -- metric data ---------------------------------------------------------------

    def metric(self, t):
        """Padded metric snapshots per chart at time ``t``, cached for the
        ``_METRIC_LEVELS`` most recently read levels (t = 0, and one RK4
        step's t, t + dt/2 and t + dt); the least recently read is evicted.
        A time-independent atlas has one entry, shared by every ``t``."""
        return self._metric_cache(0.0 if self._static else float(t))

    def positions(self, t):
        """Interior material positions per chart at time ``t``."""
        return [self.interior(m, st.x) for m, st in enumerate(self.metric(t))]

    def interior(self, m, padded, k=_PAD):
        """Rows of ``padded`` k in from each padded edge (default: interior)."""
        return self.grids[m].interior(padded, k)

    # -- spatial operators -----------------------------------------------------------

    def _d(self, m, arr, axis, k):
        """Derivative along chart ``axis`` on the rows k in from each padded edge."""
        g = self.grids[m]
        return fd_derivative(arr, axis, g.hs[axis], g.pads, k)

    def flux_divergence(self, values, t, flux):
        """Interior values of div_G(e_J'(|grad f|^2) grad f) per chart."""
        pads = self.fill_ghosts(values)
        out = []
        for m, st in enumerate(self.metric(t)):
            # f, flux and metric on the rows two in: all the interior div reads
            inv_gram, sqrtJ = (self.interior(m, a, 2) for a in (st.inv_gram, st.sqrtJ))
            df = np.stack([self._d(m, pads[m], a, 2) for a in range(2)])
            # |grad f|^2 = g^{ab} f,a f,b; a constant e_J' needs no z
            z = None if isinstance(flux.d_expr, Num) else np.einsum(
                "ab...,a...,b...->...", inv_gram, df, df)
            scale = sqrtJ * flux.deriv(z)
            Fa = scale * np.einsum("ab...,b...->a...", inv_gram, df)
            out.append((self._d(m, Fa[0], 0, 2) + self._d(m, Fa[1], 1, 2))
                       / self.interior(m, st.sqrtJ))
        return out

    # -- stability ---------------------------------------------------------------------

    def check_parabolic_dt(self, dt, max_coef, t=0.0):
        """Raise StabilityViolation if dt exceeds the RK4 parabolic bound."""
        lam = worst_of(0.0, *(float(np.max(
            _D1_GAIN_SQ * (st.inv_gram[0, 0] / grid.hs[0] ** 2
                           + st.inv_gram[1, 1] / grid.hs[1] ** 2)))
            for grid, st in zip(self.grids, self.metric(t))))
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
        return grid_integral(self.grids, values, [
            g.interior(st.sqrtJ) for g, st in zip(self.grids, self.metric(t))])


# -- time steppers -------------------------------------------------------------------


def _transported_rho(solver, t):
    """Exact density sqrtJ(0)/sqrtJ(t) at the interior nodes, transported
    from a unit one; None on a static solver, where it is exactly 1.0."""
    return None if solver._static else [
        solver.interior(m, s0.sqrtJ) / solver.interior(m, st.sqrtJ)
        for m, (s0, st) in enumerate(zip(solver.metric(0.0), solver.metric(t)))]


def _coefficient(solver, field, t):
    """Per-chart values of a coefficient ``field`` at t (a constant: a float)."""
    return ([field.expr.value] * len(solver.charts) if isinstance(field.expr, Num)
            else [field.value(x, t) for x in solver.positions(t)])


def _flux_bound(solver, values, t, flux, coefficients):
    """Max |e_J'| over [0, max |grad u|^2] of the interior ``values`` u at
    time ``t``, the gradient read on the rows the flux divergence reads; a
    NaN or inf in u or in the per-chart ``coefficients`` raises."""
    if not all(np.all(np.isfinite(v)) for v in (*values, *coefficients)):
        raise StabilityViolation(f"NaN or inf in a field or coefficient at t={t:g}")
    zmax = 0.0
    if not isinstance(flux.d_expr, Num):  # a constant e_J' needs no z
        pads = solver.fill_ghosts(values)
        for m, st in enumerate(solver.metric(t)):
            df = np.stack([solver._d(m, pads[m], a, 2) for a in range(2)])
            z = np.einsum("ab...,a...,b...->...",
                          solver.interior(m, st.inv_gram, 2), df, df)
            zmax = worst_of(zmax, float(np.max(z)))
    return float(np.max(np.abs(flux.deriv(np.linspace(0.0, worst_of(zmax, 1e-30), 8)))))


def step_heat(solver, field, coeffs, flux, dt):
    """One RK4 step of the generalized heat equation in Lagrangian form.

    ``field`` holds the product (specific heat * temperature) at the nodes;
    the density is the exact transport of a unit one.  The right-hand side is
    ``(div_G q + rho Q_theta) / rho`` at fixed reference coordinates (rho is
    1.0 on a static solver), with q the flux of theta = field / C_theta.
    The stability guard bounds e_J' by :func:`_flux_bound` of theta.
    """
    c = coeffs
    cth = _coefficient(solver, c.C_theta, field.t)
    coef = _flux_bound(solver, [v / cm for v, cm in zip(field.values, cth)], field.t,
                       flux, cth + _coefficient(solver, c.Q_theta, field.t))
    cth_min = -worst_of(*(-float(np.min(np.abs(cm))) for cm in cth))
    rho_min = -worst_of(*(-float(np.min(r))
                          for r in _transported_rho(solver, field.t) or [1.0]))
    solver.check_parabolic_dt(dt, coef / worst_of(rho_min * cth_min, 1e-30), field.t)

    def rhs(vals, t):
        cth = _coefficient(solver, c.C_theta, t)
        div = solver.flux_divergence([v / cm for v, cm in zip(vals, cth)], t, flux)
        q, rho = _coefficient(solver, c.Q_theta, t), _transported_rho(solver, t)
        if rho is None:
            return [d + qm for d, qm in zip(div, q)]
        return [(d + r * qm) / r for d, r, qm in zip(div, rho, q)]

    return GridField(solver.blend(_rk4(field.values, field.t, dt, rhs)),
                     field.t + dt)


def step_diffusion(solver, field, coeffs, flux, dt):
    """One RK4 step of the generalized diffusion equation.

    ``field`` holds the concentration C; internally the conserved variable
    C*sqrtJ is advanced at fixed reference coordinates, which realizes the
    (div v)C transport term exactly.  The guard is :func:`_flux_bound` of C.
    """
    c = coeffs
    coef = _flux_bound(solver, field.values, field.t, flux,
                       _coefficient(solver, c.Q_C, field.t))
    solver.check_parabolic_dt(dt, worst_of(coef, 1e-30), field.t)

    W = [v * solver.interior(m, st.sqrtJ)
         for m, (v, st) in enumerate(zip(field.values, solver.metric(field.t)))]

    def rhs(wvals, t):
        states = solver.metric(t)
        sj = [solver.interior(m, states[m].sqrtJ) for m in range(len(wvals))]
        div = solver.flux_divergence([w / s for w, s in zip(wvals, sj)], t, flux)
        return [s * (d + qm)
                for s, d, qm in zip(sj, div, _coefficient(solver, c.Q_C, t))]

    t_new = field.t + dt
    vals = [w / solver.interior(m, st.sqrtJ) for m, (w, st) in enumerate(
        zip(_rk4(W, field.t, dt, rhs), solver.metric(t_new)))]
    return GridField(solver.blend(vals), t_new)


def step_barotropic_tangential(solver, field, law, dt):
    """One RK4 step of the tangential barotropic system on a static surface.

    ``field.values[m]`` stacks (rho, v1, v2, v3) as a (4, n1, n2) array; the
    velocity is re-projected onto the tangent space after every stage.
    Raises ValueError on a moving atlas: all stages read ``field.t``'s metric.
    """
    if not solver._static:
        raise ValueError("the barotropic step needs a static surface")
    states = solver.metric(field.t)
    P = [solver.interior(m, st.P) for m, st in enumerate(states)]
    # g^a at the interior nodes, where the stage needs derivatives
    gup = [solver.interior(m, st.gup) for m, st in enumerate(states)]

    def project(vals):
        for m in range(len(vals)):
            vals[m][1:] = np.einsum("ij...,j...->i...", P[m], vals[m][1:])
        return vals

    def rhs(vals, t):
        vals = [v.copy() for v in vals]
        project(vals)
        if not all(np.min(v[0]) > 0 for v in vals):  # NaN fails too
            raise NonpositiveDensity("barotropic density became non-positive or NaN")
        out = []
        # two ghost rows per side: the reach of the stage's one stencil
        for m, pad in enumerate(solver.fill_ghosts(vals, 2)):
            peff_pad = law.effective(np.maximum(pad[0], 1e-12))
            # chart derivatives (2, 5, ...) of the stack (rho, peff, v1, v2, v3)
            stack = np.concatenate([pad[:1], peff_pad[None], pad[1:]])
            ds = np.stack([solver._d(m, stack, a, 2) for a in range(2)])
            # tangential gradients g^a d_a f (5, 3, ...) and div_G v = g^a . d_a v
            grad = np.einsum("ai...,ak...->ki...", gup[m], ds)
            div_v = np.einsum("ai...,ai...->...", gup[m], ds[:, 2:])
            # tangential advection (v, grad_t) of each quantity
            vint = solver.interior(m, pad[1:], 2)
            rho_i = solver.interior(m, pad[0], 2)
            drho = -np.einsum("i...,i...->...", vint, grad[0]) - div_v * rho_i
            dv = -np.einsum("i...,ki...->k...", vint, grad[2:]) - grad[1] / rho_i
            dv = np.einsum("ij...,j...->i...", P[m], dv)
            out.append(np.concatenate([drho[None], dv]))
        return out

    stepped = GridField(_rk4(field.values, field.t, dt, rhs), field.t + dt)
    project(stepped.values)
    project(solver.blend(stepped.values))
    return stepped
