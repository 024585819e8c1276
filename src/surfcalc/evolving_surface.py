"""Flow-map evolution, Jacobian dynamics, and exact scalar transport.

Material points are carried on fixed reference grids (one uniform grid per
chart) by classical RK4 on ``dx/dt = v(x, t)``.  The area Jacobian is
recomputed from the advanced grid by 4th-order finite differences in the
chart coordinates, so it stays consistent with the grid quadrature.  The
continuity equation is then solved exactly through the conserved-variable
representation ``f = f0 * sqrtJ0 / sqrtJ``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .chart_geometry import Chart, ChartAtlas, SingularMetric, _metric_state
from .expressions import parse_expr, substitute
from .fields import ScalarField, as_scalar_field, as_vector_field

__all__ = [
    "JacobianCollapse",
    "MotionLaw",
    "dilation_density",
    "motion_builtin",
    "moving_atlas",
    "FlowState",
    "advance_flow",
    "fd_derivative",
    "jacobian_rate_check",
    "transport_scalar",
    "transported_density",
    "transport_theorem_check",
    "worst_of",
    "integrate_grid",
    "integrate_grid_vector",
]

_CHART_VARS = ("X1", "X2", "t")


class JacobianCollapse(RuntimeError):
    """The area Jacobian became non-positive: the surface degenerated."""


# -- motions -------------------------------------------------------------------


class MotionLaw:
    """A prescribed total velocity, with an exact moving-chart builder when
    the motion has a closed form (translation, rotation, dilation, static).
    """

    def __init__(self, velocity, transform=None, name="custom"):
        self.velocity = as_vector_field(velocity)
        self.transform = transform  # param expr list -> moved param expr list
        self.name = name

    def moving_chart(self, chart):
        """Exact time-dependent version of ``chart`` under this motion."""
        if self.transform is None:
            return None
        return Chart(self.transform(chart.param), chart.domain, chart.periodic,
                     chart.orientation, chart.pou_bump, chart.invert,
                     chart.name + "+" + self.name)


def _static_motion():
    return MotionLaw(["0", "0", "0"], transform=lambda p: list(p), name="static")


def _translation_motion(c=(0.3, -0.2, 0.1)):
    c = [float(ci) for ci in c]
    vel = [str(ci) for ci in c]

    def transform(param):
        return [p + ci * parse_expr("t", _CHART_VARS) for p, ci in zip(param, c)]

    return MotionLaw(vel, transform=transform, name="translation")


def _rotation_motion(rate=0.7):
    w = float(rate)
    vel = [f"-{w}*x2", f"{w}*x1", "0"]
    cw = parse_expr(f"cos({w}*t)", _CHART_VARS)
    sw = parse_expr(f"sin({w}*t)", _CHART_VARS)

    def transform(param):
        p0, p1, p2 = param
        return [cw * p0 - sw * p1, sw * p0 + cw * p1, p2]

    return MotionLaw(vel, transform=transform, name="rotation")


def _dilation_motion():
    vel = ["x1/(1+t)", "x2/(1+t)", "x3/(1+t)"]
    scale = parse_expr("1+t", _CHART_VARS)

    def transform(param):
        return [scale * p for p in param]

    return MotionLaw(vel, transform=transform, name="dilation")


def dilation_density(rho0):
    """Exact transported density of the canonical dilation flow.

    For ``v = x/(1+t)`` the area element scales by ``(1+t)^2`` and material
    points by ``(1+t)``, so the continuity equation is solved in closed form
    by ``rho(x, t) = rho0(x/(1+t)) / (1+t)^2``.
    """
    vars_t = ("x1", "x2", "x3", "t")
    expr = as_scalar_field(rho0).expr
    for name in ("x1", "x2", "x3"):
        expr = substitute(expr, name, parse_expr(f"{name}/(1+t)", vars_t))
    inv = parse_expr("1/(1+t)", vars_t)
    return ScalarField(expr * inv * inv)


_MOTIONS = {
    "static": _static_motion,
    "translation": _translation_motion,
    "rotation": _rotation_motion,
    "dilation": _dilation_motion,
}


def motion_builtin(name, **params):
    """Look up a built-in motion: static, translation, rotation, dilation."""
    if name not in _MOTIONS:
        raise KeyError(f"unknown motion {name!r}; known: {sorted(_MOTIONS)}")
    return _MOTIONS[name](**params)


def moving_atlas(atlas, motion):
    """Atlas whose charts carry the exact closed-form motion (if available)."""
    charts = [motion.moving_chart(ch) for ch in atlas.charts]
    if any(c is None for c in charts):
        raise ValueError(f"motion {motion.name!r} has no closed-form chart map")
    return ChartAtlas(charts, name=atlas.name + "+" + motion.name)


# -- finite differences on uniform chart grids --------------------------------

# 4th-order first derivative: central interior, one-sided at bounded edges
# (for unpadded flow grids: a solver stage's ghost rows keep it central).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _ix(axis, s):
    """Index ``s`` along ``axis``."""
    return (slice(None),) * axis + (s,)


def _central_d1(a, axis, h):
    """4th-order central first derivative along ``axis`` (spacing h) on the
    rows two in from either end: n - 4 rows of n."""
    return (8.0 * (a[_ix(axis, np.s_[3:-1])] - a[_ix(axis, np.s_[1:-3])])
            - (a[_ix(axis, np.s_[4:])] - a[_ix(axis, np.s_[:-4])])) / (12.0 * h)


def fd_derivative(arr, axis, h, periodic):
    """4th-order first derivative of nodal data along ``axis`` (spacing h)."""
    a = np.asarray(arr, dtype=float)
    if periodic:  # w[i + 2] = a[i mod n]
        w = np.concatenate([a[_ix(axis, np.s_[-2:])], a, a[_ix(axis, np.s_[:2])]], axis)
        return _central_d1(w, axis, h)
    out = np.empty_like(a)
    out[_ix(axis, np.s_[2:-2])] = _central_d1(a, axis, h)
    lo, hi = a[_ix(axis, np.s_[:5])], a[_ix(axis, np.s_[:-6:-1])]
    for k, edge in enumerate((_EDGE0, _EDGE1)):
        out[_ix(axis, k)] = np.tensordot(edge, lo, axes=(0, axis)) / h
        out[_ix(axis, -1 - k)] = -np.tensordot(edge, hi, axes=(0, axis)) / h
    return out


def _chart_grid(chart, shape):
    """Uniform reference grid, spacings, trapezoid weights, and the 1-D node
    axes of a chart."""
    axes, hs, ws = [], [], []
    for (lo, hi), per, n in zip(chart.domain, chart.periodic, shape):
        if per:
            h = (hi - lo) / n
            xs = lo + h * np.arange(n)
            w = np.full(n, h)
        else:
            h = (hi - lo) / (n - 1)
            xs = lo + h * np.arange(n)
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
        axes.append(xs)
        hs.append(h)
        ws.append(w)
    X1, X2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.stack([X1, X2]), tuple(hs), np.outer(ws[0], ws[1]), tuple(axes)


def _geometry_from_positions(x, hs, periodic, orientation):
    """MetricState of nodal positions with FD tangents in the chart."""
    g = np.stack([fd_derivative(x, 1 + a, hs[a], periodic[a]) for a in range(2)])
    try:
        return _metric_state(x, g, orientation)
    except SingularMetric:
        raise JacobianCollapse("grid Jacobian non-positive") from None


# -- flow state ----------------------------------------------------------------


@dataclass
class FlowState:
    """Material-point grids for an atlas, advanced in time by RK4.

    ``geo`` holds the grid metric of the current positions, computed
    wherever the positions are set.  ``x0`` holds the positions at t = 0
    and is never written after :meth:`create`.
    """

    atlas: ChartAtlas
    t: float
    x0: list               # per chart: (3, n1, n2) positions at t = 0
    x: list                # per chart: (3, n1, n2) material positions
    hs: list               # per chart: (h1, h2)
    w: list                # per chart: (n1, n2) chart-coordinate weights
    psi: list              # per chart: (n1, n2) partition-of-unity values
    sqrtJ0: list           # per chart: (n1, n2) initial area element
    rho0_tilde: list       # per chart: (n1, n2) reference density weights
    geo: list              # per chart: MetricState of the positions x

    @classmethod
    def create(cls, atlas, resolution=(48, 96), rho0=1.0):
        """Flow state at t = 0 on uniform grids of ``resolution`` per chart."""
        rho0 = as_scalar_field(rho0)
        x, hs, w, psi = [], [], [], []
        for m, chart in enumerate(atlas.charts):
            Xm, hsm, wm, _ = _chart_grid(chart, resolution)
            x.append(chart.position(Xm[0], Xm[1], 0.0))
            hs.append(hsm)
            w.append(wm)
            psi.append(atlas.pou(m, Xm[0], Xm[1]))
        geo = _grid_metrics(atlas, hs, x)
        sJ0 = [gm.sqrtJ for gm in geo]
        r0t = [rho0.value(xm, 0.0) * s for xm, s in zip(x, sJ0)]
        return cls(atlas=atlas, t=0.0, x0=x, x=x, hs=hs, w=w, psi=psi,
                   sqrtJ0=sJ0, rho0_tilde=r0t, geo=geo)

    def copy(self):
        out = copy.copy(self)
        out.x = [xm.copy() for xm in self.x]
        return out


def _grid_metrics(atlas, hs, xs):
    """Grid metric of each chart's nodal positions ``xs`` (spacings ``hs``)."""
    return [_geometry_from_positions(xm, h, chart.periodic, chart.orientation)
            for xm, h, chart in zip(xs, hs, atlas.charts)]


def _rk4(y, t, dt, rhs):
    """One classical RK4 step of ``dy/dt = rhs(y, t)`` for a list of arrays.

    ``dt`` may be negative.  Returns the advanced list.
    """
    k1 = rhs(y, t)
    k2 = rhs([a + 0.5 * dt * b for a, b in zip(y, k1)], t + 0.5 * dt)
    k3 = rhs([a + 0.5 * dt * b for a, b in zip(y, k2)], t + 0.5 * dt)
    k4 = rhs([a + dt * b for a, b in zip(y, k3)], t + dt)
    return [a + (dt / 6.0) * (p + 2 * q + 2 * r + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _flow_step(state, vel, dt):
    """Advance ``state`` in place by one RK4 step of ``dt`` (either sign):
    the material points, then their grid geometry.  Raises
    :class:`JacobianCollapse` when the advanced grid degenerates."""
    state.x = _rk4(state.x, state.t, dt,
                   lambda xs, t: [vel.value(xm, t) for xm in xs])
    state.geo = _grid_metrics(state.atlas, state.hs, state.x)
    state.t = state.t + dt
    return state


def advance_flow(state, motion, dt, steps=1):
    """Advance the flow-map grids by ``steps`` classical RK4 steps of ``dt``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = state.copy()
    for _ in range(steps):
        _flow_step(out, motion.velocity, dt)
    return out


# -- transported scalars and integrals ----------------------------------------


def transport_scalar(state, f0):
    """Exact transported scalar at the current grid: per-chart nodal arrays.

    Solves ``D_t f + (div v) f = 0`` along the flow:
    ``f = f0(x(0)) sqrtJ(0) / sqrtJ(t)``.
    """
    f0 = as_scalar_field(f0)
    return [f0.value(x0, 0.0) * s0 / geo.sqrtJ
            for x0, s0, geo in zip(state.x0, state.sqrtJ0, state.geo)]


def transported_density(state):
    """Exact density: reference weights divided by the current area element."""
    return [state.rho0_tilde[m] / state.geo[m].sqrtJ
            for m in range(len(state.x))]


def integrate_grid(state, values):
    """Surface integral over the grid of nodal arrays ``values`` (one per
    chart): trapezoid weights, pou, area element."""
    total = 0.0
    for m in range(len(state.x)):
        geo = state.geo[m]
        total += float(np.sum(state.w[m] * state.psi[m] * values[m] * geo.sqrtJ))
    return total


def integrate_grid_vector(state, values):
    return np.array([
        integrate_grid(state, values=[v[i] for v in values]) for i in range(3)
    ])


# -- checks --------------------------------------------------------------------


def worst_of(*values):
    """The largest of the float ``values``; NaN when any of them is NaN.

    Check aggregations use it because the builtin ``max(0.0, nan)`` returns
    0.0, which would let a NaN residual pass.  The least value is
    ``-worst_of(-a, -b)``.
    """
    return float(np.max(values))


def _div_tangent_grid(state, m, geo, vec_nodal):
    """Chart-form surface divergence of nodal ambient vectors on chart m."""
    chart = state.atlas.charts[m]
    dv = np.stack([fd_derivative(vec_nodal, 1 + a, state.hs[m][a],
                                 chart.periodic[a]) for a in range(2)])
    # g^{ab} g_a . dvec/dX_b
    return np.einsum("ab...,ai...,bi...->...", geo.inv_gram, geo.g, dv)


def jacobian_rate_check(state, motion, dt_probe=1e-3):
    """Max residual of d(sqrtJ)/dt = (div v) sqrtJ at the grid nodes.

    The time derivative is a central difference of the grid-derived area
    element across two short RK4 probe steps; the divergence side is
    evaluated in chart form from the same grid.
    """
    fwd = advance_flow(state, motion, dt_probe)
    bwd = _flow_step(state.copy(), motion.velocity, -dt_probe)
    worst = 0.0
    for m in range(len(state.x)):
        geo = state.geo[m]
        dsJ = (fwd.geo[m].sqrtJ - bwd.geo[m].sqrtJ) / (2.0 * dt_probe)
        vval = motion.velocity.value(state.x[m], state.t)
        div_v = _div_tangent_grid(state, m, geo, vval)
        worst = worst_of(worst, float(np.max(np.abs(dsJ - div_v * geo.sqrtJ))))
    return worst


def transport_theorem_check(state, motion, f, dt_probe=1e-3):
    """Relative residual of d/dt (integral of f) = integral of D_t f + f div v."""
    f = as_scalar_field(f)

    def integral(st):
        return integrate_grid(st, [f.value(x, st.t) for x in st.x])

    fwd = advance_flow(state, motion, dt_probe)
    bwd = _flow_step(state.copy(), motion.velocity, -dt_probe)
    lhs = (integral(fwd) - integral(bwd)) / (2.0 * dt_probe)

    integrands = []
    for m in range(len(state.x)):
        geo = state.geo[m]
        xm, t = state.x[m], state.t
        vval = motion.velocity.value(xm, t)
        Dt_f = f.dt(xm, t) + np.einsum("i...,i...->...", vval, f.grad(xm, t))
        div_v = _div_tangent_grid(state, m, geo, vval)
        integrands.append(Dt_f + f.value(xm, t) * div_v)
    rhs = integrate_grid(state, integrands)
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale
