"""Flow-map evolution, Jacobian dynamics, and exact scalar transport.

Material points are carried on fixed reference grids (one uniform grid per
chart) by classical RK4 on ``dx/dt = v(x, t)``.  The area Jacobian is
recomputed from the advanced grid by 4th-order finite differences in the
chart coordinates, so it stays consistent with the grid quadrature.  The
continuity equation is then solved exactly through the conserved-variable
representation ``f = (f0 * sqrtJ0 + accumulated source) / sqrtJ``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .chart_geometry import Chart, ChartAtlas
from .expressions import parse_expr
from .fields import as_scalar_field, as_vector_field

__all__ = [
    "JacobianCollapse",
    "MotionLaw",
    "dilation_density",
    "motion_builtin",
    "moving_atlas",
    "FlowState",
    "GridGeometry",
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

_EPS_J = 1e-14
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
    by ``rho(x, t) = rho0(x/(1+t)) / (1+t)^2``.  Needs an expression-backed
    initial density.
    """
    from .expressions import substitute
    from .fields import ScalarField, as_scalar_field

    rho0 = as_scalar_field(rho0)
    if not isinstance(rho0, ScalarField):
        raise TypeError("dilation_density needs an expression-backed density")
    vars_t = ("x1", "x2", "x3", "t")
    expr = rho0.expr
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

# 4th-order first derivative: central interior, one-sided at bounded edges.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def fd_derivative(arr, axis, h, periodic):
    """4th-order first derivative of nodal data along ``axis`` (spacing h)."""
    a = np.asarray(arr, dtype=float)
    n = a.shape[axis]

    def ix(s):
        """Index ``s`` along ``axis``."""
        return (slice(None),) * axis + (s,)

    if periodic:
        w = np.concatenate([a[ix(np.s_[-2:])], a, a[ix(np.s_[:2])]], axis)
        # w[i + 2] = a[i mod n]
        return (8.0 * (w[ix(np.s_[3:n + 3])] - w[ix(np.s_[1:n + 1])])
                - (w[ix(np.s_[4:])] - w[ix(np.s_[:n])])) / (12.0 * h)
    out = np.empty_like(a)
    out[ix(np.s_[2:-2])] = (8.0 * (a[ix(np.s_[3:-1])] - a[ix(np.s_[1:-3])])
                            - (a[ix(np.s_[4:])] - a[ix(np.s_[:-4])])) / (12.0 * h)
    lo, hi = a[ix(np.s_[:5])], a[ix(np.s_[:-6:-1])]
    for k, edge in enumerate((_EDGE0, _EDGE1)):
        out[ix(k)] = np.tensordot(edge, lo, axes=(0, axis)) / h
        out[ix(-1 - k)] = -np.tensordot(edge, hi, axes=(0, axis)) / h
    return out


@dataclass
class GridGeometry:
    """Numeric metric data derived from nodal positions by FD in the chart."""

    g: np.ndarray          # (2, 3, n1, n2) tangent basis
    gram: np.ndarray       # (2, 2, n1, n2)
    inv_gram: np.ndarray   # (2, 2, n1, n2)
    J: np.ndarray          # (n1, n2)
    sqrtJ: np.ndarray      # (n1, n2)
    n: np.ndarray          # (3, n1, n2) unit normal
    P: np.ndarray          # (3, 3, n1, n2) tangential projector


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
    g = np.stack([fd_derivative(x, 1 + a, hs[a], periodic[a]) for a in range(2)])
    gram = np.einsum("ai...,bi...->ab...", g, g)
    J = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    if np.any(J <= _EPS_J):
        raise JacobianCollapse("grid Jacobian non-positive")
    sqrtJ = np.sqrt(J)
    inv_gram = np.empty_like(gram)
    inv_gram[0, 0] = gram[1, 1] / J
    inv_gram[1, 1] = gram[0, 0] / J
    inv_gram[0, 1] = -gram[0, 1] / J
    inv_gram[1, 0] = -gram[1, 0] / J
    nvec = orientation * np.cross(g[0], g[1], axisa=0, axisb=0, axisc=0) / sqrtJ
    P = np.eye(3)[:, :, None, None] - nvec[:, None] * nvec[None, :]
    return GridGeometry(g=g, gram=gram, inv_gram=inv_gram, J=J, sqrtJ=sqrtJ,
                        n=nvec, P=P)


# -- flow state ----------------------------------------------------------------


@dataclass
class FlowState:
    """Material-point grids for an atlas, advanced in time by RK4.

    ``geo`` holds the grid geometry of the current positions, computed
    wherever the positions are set.  ``sources`` maps a name to
    ``(field, accumulators)`` where the accumulators hold per-chart values
    of the time integral of ``field * sqrtJ`` along each trajectory,
    advanced with the same RK4 stages as the flow itself.
    """

    atlas: ChartAtlas
    t: float
    X: list                # per chart: (2, n1, n2) reference coordinates
    x: list                # per chart: (3, n1, n2) material positions
    hs: list               # per chart: (h1, h2)
    w: list                # per chart: (n1, n2) chart-coordinate weights
    psi: list              # per chart: (n1, n2) partition-of-unity values
    sqrtJ0: list           # per chart: (n1, n2) initial area element
    rho0_tilde: list       # per chart: (n1, n2) reference density weights
    geo: list              # per chart: GridGeometry of the positions x
    sources: dict = field(default_factory=dict)

    @classmethod
    def create(cls, atlas, resolution=(48, 96), rho0=1.0, t0=0.0):
        rho0 = as_scalar_field(rho0)
        X, x, hs, w, psi, sJ0, r0t, geos = [], [], [], [], [], [], [], []
        for m, chart in enumerate(atlas.charts):
            Xm, hsm, wm, _ = _chart_grid(chart, resolution)
            xm = chart.position(Xm[0], Xm[1], t0)
            geo = _geometry_from_positions(xm, hsm, chart.periodic, chart.orientation)
            X.append(Xm)
            x.append(xm)
            hs.append(hsm)
            w.append(wm)
            psi.append(atlas.pou(m, Xm[0], Xm[1]))
            sJ0.append(geo.sqrtJ)
            r0t.append(rho0.value(xm, t0) * geo.sqrtJ)
            geos.append(geo)
        return cls(atlas=atlas, t=t0, X=X, x=x, hs=hs, w=w, psi=psi,
                   sqrtJ0=sJ0, rho0_tilde=r0t, geo=geos)

    def track_source(self, name, field_expr):
        """Register a source whose integral of ``F * sqrtJ`` is accumulated."""
        f = as_scalar_field(field_expr)
        self.sources[name] = (f, [np.zeros_like(s) for s in self.sqrtJ0])

    def geometry(self, m):
        """Grid-derived metric data for chart ``m`` at the current time."""
        return self.geo[m]

    def copy(self):
        out = copy.copy(self)
        out.x = [xm.copy() for xm in self.x]
        out.sources = {k: (f, [a.copy() for a in acc])
                       for k, (f, acc) in self.sources.items()}
        return out


def _source_rates(state, xs, t):
    """Rates F(x,t)*sqrtJ for every tracked source at stage positions."""
    rates = {}
    for name, (f, _) in state.sources.items():
        per_chart = []
        for m, chart in enumerate(state.atlas.charts):
            geo = _geometry_from_positions(xs[m], state.hs[m], chart.periodic,
                                           chart.orientation)
            per_chart.append(f.value(xs[m], t) * geo.sqrtJ)
        rates[name] = per_chart
    return rates


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
    the material points, their grid geometry and, on the same stages, every
    tracked source.  Raises :class:`JacobianCollapse` when the advanced grid
    degenerates."""
    n = len(state.x)
    accs = [acc for _, acc in state.sources.values()]

    def rhs(y, t):
        rates = _source_rates(state, y[:n], t)
        return ([vel.value(xm, t) for xm in y[:n]]
                + [r for per_chart in rates.values() for r in per_chart])

    y = _rk4(state.x + [a for acc in accs for a in acc], state.t, dt, rhs)
    state.x = y[:n]
    state.geo = [_geometry_from_positions(xm, hs, chart.periodic,
                                          chart.orientation)
                 for xm, hs, chart in zip(state.x, state.hs,
                                          state.atlas.charts)]
    for k, acc in enumerate(accs):
        acc[:] = y[n * (k + 1):n * (k + 2)]
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


def transport_scalar(state, f0, source_name=None):
    """Exact transported scalar at the current grid: per-chart nodal arrays.

    Solves ``D_t f + (div v) f = F`` along the flow:
    ``f = (f0(x(0)) sqrtJ(0) + integral of F sqrtJ) / sqrtJ(t)``.
    """
    f0 = as_scalar_field(f0)
    out = []
    for m in range(len(state.x)):
        geo = state.geometry(m)
        num = f0.value(_initial_positions(state, m), 0.0) * state.sqrtJ0[m]
        if source_name is not None:
            num = num + state.sources[source_name][1][m]
        out.append(num / geo.sqrtJ)
    return out


def _initial_positions(state, m):
    chart = state.atlas.charts[m]
    return chart.position(state.X[m][0], state.X[m][1], 0.0)


def transported_density(state):
    """Exact density: reference weights divided by the current area element."""
    return [state.rho0_tilde[m] / state.geometry(m).sqrtJ
            for m in range(len(state.x))]


def integrate_grid(state, values):
    """Surface integral over the grid of nodal arrays ``values`` (one per
    chart): trapezoid weights, pou, area element."""
    total = 0.0
    for m in range(len(state.x)):
        geo = state.geometry(m)
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
        geo = state.geometry(m)
        dsJ = (fwd.geometry(m).sqrtJ - bwd.geometry(m).sqrtJ) / (2.0 * dt_probe)
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
        geo = state.geometry(m)
        xm, t = state.x[m], state.t
        vval = motion.velocity.value(xm, t)
        Dt_f = f.dt(xm, t) + np.einsum("i...,i...->...", vval, f.grad(xm, t))
        div_v = _div_tangent_grid(state, m, geo, vval)
        integrands.append(Dt_f + f.value(xm, t) * div_v)
    rhs = integrate_grid(state, integrands)
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale
