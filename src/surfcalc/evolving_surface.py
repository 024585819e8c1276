"""Flow-map evolution, Jacobian dynamics, and exact scalar transport.

Material points are carried on fixed reference grids (one padded
:class:`~surfcalc.chart_geometry.ChartGrid` per chart, the grid the solvers
use) by classical RK4 on ``dx/dt = v(x, t)``.  The area Jacobian is
recomputed from the advanced grid by 4th-order central differences in the
chart coordinates: the ghost rows of a bounded direction are advected too,
so no edge needs a one-sided stencil.  It stays consistent with the grid
quadrature.  The continuity equation is then solved exactly through the
conserved-variable representation ``f = f0 * sqrtJ0 / sqrtJ``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chart_geometry import (Chart, ChartAtlas, ChartGrid, SingularMetric,
                             _metric_state, fd_derivative, grid_integral)
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
    "jacobian_rate_check",
    "probe_steps",
    "transport_scalar",
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


def _geometry_from_positions(xp, grid, orientation):
    """MetricState at the interior nodes of padded positions ``xp`` on ``grid``."""
    g = np.stack([fd_derivative(xp, a, grid.hs[a], grid.pads) for a in range(2)])
    try:
        return _metric_state(grid.interior(xp), g, orientation)
    except SingularMetric:
        raise JacobianCollapse("grid Jacobian non-positive") from None


# -- flow state ----------------------------------------------------------------


@dataclass
class FlowState:
    """Material points on each chart's padded :class:`ChartGrid`, advanced
    in time by RK4.

    ``geo`` holds the grid metric of the current interior positions,
    computed wherever the positions are set.  ``x0`` and ``sqrtJ0`` (at
    t = 0) are never written after :meth:`create`; :func:`transport_scalar`
    carries an initial density or concentration along the flow from them.
    """

    atlas: ChartAtlas
    t: float
    grids: list            # per chart: ChartGrid
    xpad: list             # per chart: (3, n1p, n2p) padded material positions
    x0: list               # per chart: (3, n1, n2) interior positions at t = 0
    sqrtJ0: list           # per chart: (n1, n2) initial area element
    geo: list              # per chart: MetricState of the positions x

    @property
    def x(self):
        """Per chart: (3, n1, n2) interior material positions (views)."""
        return [g.interior(xp) for g, xp in zip(self.grids, self.xpad)]

    @classmethod
    def create(cls, atlas, resolution):
        """Flow state at t = 0 on uniform grids of ``resolution`` per chart."""
        grids = [ChartGrid(atlas, m, resolution) for m in range(len(atlas.charts))]
        xpad = [chart.position(g.X[0], g.X[1], 0.0)
                for chart, g in zip(atlas.charts, grids)]
        geo = _grid_metrics(atlas, grids, xpad)
        return cls(atlas=atlas, t=0.0, grids=grids, xpad=xpad,
                   x0=[g.interior(xp) for g, xp in zip(grids, xpad)],
                   sqrtJ0=[gm.sqrtJ for gm in geo], geo=geo)

    def copy(self):
        return replace(self, xpad=[xp.copy() for xp in self.xpad])


def _grid_metrics(atlas, grids, xpad):
    """Grid metric of each chart's padded nodal positions ``xpad``."""
    return [_geometry_from_positions(xp, g, chart.orientation)
            for xp, g, chart in zip(xpad, grids, atlas.charts)]


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
    state.xpad = _rk4(state.xpad, state.t, dt,
                      lambda xs, t: [vel.value(xm, t) for xm in xs])
    state.geo = _grid_metrics(state.atlas, state.grids, state.xpad)
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


def integrate_grid(state, values):
    """Surface integral over the grid of nodal arrays ``values`` (one per
    chart): trapezoid weights, pou, area element."""
    return grid_integral(state.grids, values, [geo.sqrtJ for geo in state.geo])


def integrate_grid_vector(state, values):
    return np.array([integrate_grid(state, [v[i] for v in values]) for i in range(3)])


# -- checks --------------------------------------------------------------------


def worst_of(*values):
    """The largest of the float ``values``; NaN when any of them is NaN.

    Check aggregations use it because the builtin ``max(0.0, nan)`` returns
    0.0, which would let a NaN residual pass.  The least value is
    ``-worst_of(-a, -b)``.
    """
    return float(np.max(values))


def _div_tangent_grid(state, m, vec_pad):
    """Chart-form surface divergence g^a . dvec/dX_a, at the interior
    nodes of chart m, of ambient vectors at its padded nodes."""
    grid, geo = state.grids[m], state.geo[m]
    dv = np.stack([fd_derivative(vec_pad, a, grid.hs[a], grid.pads) for a in range(2)])
    return np.einsum("ai...,ai...->...", geo.gup, dv)


def probe_steps(state, motion):
    """``(fwd, bwd, dt_probe)``: the states one RK4 step of dt_probe = 1e-3
    after and before ``state``, read by both transport checks."""
    dt_probe = 1e-3
    return (advance_flow(state, motion, dt_probe),
            _flow_step(state.copy(), motion.velocity, -dt_probe), dt_probe)


def jacobian_rate_check(state, motion, probes):
    """Max residual of d(sqrtJ)/dt = (div v) sqrtJ at the grid nodes.

    The time derivative is a central difference of the grid-derived area
    element across the two short RK4 probe steps of :func:`probe_steps`;
    the divergence side is evaluated in chart form from the same grid.
    """
    fwd, bwd, dt_probe = probes
    worst = 0.0
    for m, geo in enumerate(state.geo):
        dsJ = (fwd.geo[m].sqrtJ - bwd.geo[m].sqrtJ) / (2.0 * dt_probe)
        vpad = motion.velocity.value(state.xpad[m], state.t)
        div_v = _div_tangent_grid(state, m, vpad)
        worst = worst_of(worst, float(np.max(np.abs(dsJ - div_v * geo.sqrtJ))))
    return worst


def transport_theorem_check(state, motion, f, probes):
    """Relative residual of d/dt (integral of f) = integral of D_t f + f div v."""
    f = as_scalar_field(f)

    def integral(st):
        return integrate_grid(st, [f.value(x, st.t) for x in st.x])

    fwd, bwd, dt_probe = probes
    lhs = (integral(fwd) - integral(bwd)) / (2.0 * dt_probe)

    integrands = []
    t = state.t
    for m, xm in enumerate(state.x):
        vpad = motion.velocity.value(state.xpad[m], t)
        vval = state.grids[m].interior(vpad)
        Dt_f = f.dt(xm, t) + np.einsum("i...,i...->...", vval, f.grad(xm, t))
        div_v = _div_tangent_grid(state, m, vpad)
        integrands.append(Dt_f + f.value(xm, t) * div_v)
    rhs = integrate_grid(state, integrands)
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale
