"""Chart atlases, pointwise metric data, and surface quadrature.

A closed surface is represented by one or more parametrized charts with a
smooth partition of unity.  All pointwise geometry (tangent basis, Gram
matrix and its inverse, area Jacobian, unit normal, tangential projector,
mean curvature) is derived from the parametrization by exact differentiation
of its expression tree, evaluated with dual numbers so chart-coordinate
derivatives of composed quantities come along for free.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import partial_of, value_of
from .expressions import Expr, Num, evaluate_all, free_subtrees, parse_expr
from .fields import as_scalar_field

__all__ = [
    "SingularMetric",
    "OutOfDomain",
    "Chart",
    "ChartAtlas",
    "ChartFrame",
    "ChartGrid",
    "MetricState",
    "QuadratureRule",
    "default_rule",
    "blockwise",
    "rule_terms",
    "rule_sums",
    "fd_derivative",
    "grid_integral",
    "metric_at",
    "integrate",
    "plane_chart",
    "sphere_atlas",
    "torus_atlas",
]

_EPS_J = 1e-14
_CHART_VARS = ("X1", "X2", "t")


class SingularMetric(RuntimeError):
    """The Gram determinant dropped to (or below) zero: degenerate chart."""


class OutOfDomain(ValueError):
    """A chart coordinate lies outside the chart's domain."""


def smooth_bump(lo, hi):
    """A C-infinity bump supported on (lo, hi), peaking at the midpoint.

    Built from exp(-beta / ((s - lo)(hi - s))); beta is chosen so the peak
    value is exp(-1).  All derivatives vanish at the endpoints, which keeps
    quadrature and stencil errors from the partition of unity negligible.
    """
    beta = ((hi - lo) / 2.0) ** 2

    def bump(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = (s > lo) & (s < hi)
        si = s[inside]
        out[inside] = np.exp(-beta / ((si - lo) * (hi - si)))
        return out

    return bump


class Chart:
    """One parametrized patch of a surface.

    Parameters
    ----------
    param:
        Three expressions (or strings) in ``X1, X2`` and optionally ``t``
        mapping chart coordinates to ambient points.
    domain:
        ``((x1lo, x1hi), (x2lo, x2hi))`` rectangle of valid coordinates.
    periodic:
        Per-direction periodicity flags.
    orientation:
        +1 or -1; fixes the normal as ``orientation * (g1 x g2)/|g1 x g2|``.
    pou_bump:
        Nonnegative smooth weight ``b(X1, X2)`` used (after atlas-level
        normalization) as the partition-of-unity factor.  ``None`` means 1.
    invert:
        Optional callable mapping ambient points ``(3, ...)`` at the reference
        time to chart coordinates ``(X1, X2)``; needed for weight
        normalization and cross-chart interpolation on multi-chart atlases.
    """

    def __init__(self, param, domain, periodic=(False, False), orientation=1,
                 pou_bump=None, invert=None, name="chart"):
        self.param = [p if isinstance(p, Expr) else parse_expr(p, _CHART_VARS)
                      for p in param]
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        self.periodic = tuple(periodic)
        self.orientation = int(orientation)
        self.pou_bump = pou_bump
        self.invert = invert
        self.name = name
        # exact first partials of the parametrization
        self._dparam = d = {v: [p.diff(v) for p in self.param] for v in _CHART_VARS}
        self._xg = self.param + d["X1"] + d["X2"]  # x and g_a, as metric reads

    @property
    def time_independent(self):
        """True when the parametrization does not depend on ``t``.

        Read off the exact time partials: the simplifying constructors reduce
        them to ``Num(0.0)`` for every static chart.
        """
        return all(isinstance(d, Num) and d.value == 0.0
                   for d in self._dparam["t"])

    def contains(self, X1, X2, margin=0.0):
        ok = np.ones(np.shape(np.asarray(X1)), dtype=bool)
        for coords, (lo, hi), per in zip((X1, X2), self.domain, self.periodic):
            if not per:
                c = np.asarray(coords)
                ok &= (c >= lo - margin) & (c <= hi + margin)
        return ok

    def bump_at(self, X1, X2):
        if self.pou_bump is None:
            return np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
        return self.pou_bump(X1, X2)

    def evaluate(self, exprs, X1, X2, t=0.0, known=()):
        """Plain float values ``(len(exprs), ...)`` of chart expressions
        (no dual overhead); the nodes of ``known`` take the values given."""
        shape = np.broadcast(np.asarray(X1), np.asarray(X2)).shape
        values = evaluate_all(exprs, {"X1": X1, "X2": X2, "t": t}, known)
        return np.stack([np.broadcast_to(np.asarray(v, dtype=float), shape)
                         for v in values])

    def position(self, X1, X2, t=0.0):
        return self.evaluate(self.param, X1, X2, t)

    def frame(self, X1, X2, t=0.0):
        """Dual-number geometric frame at the given coordinates."""
        self._require_domain(X1, X2)
        return ChartFrame(self, X1, X2, t)

    def metric(self, X1, X2, t=0.0, known=()):
        """Numeric geometry from one plain evaluation of ``x`` and ``g_a``
        (``known`` as in :meth:`evaluate`); no domain check (solver grids
        are padded past bounded edges)."""
        v = self.evaluate(self._xg, X1, X2, t, known)
        g = v[3:].reshape((2, 3) + v.shape[1:])
        return _metric_state(v[:3], g, self.orientation)

    def time_free(self, X1, X2):
        """Values at (X1, X2) of the largest t-free subtrees of x and g_a, by node."""
        nodes = free_subtrees(self._xg, "t")
        return dict(zip(nodes, evaluate_all(nodes, {"X1": X1, "X2": X2})))

    def _require_domain(self, X1, X2):
        if not np.all(self.contains(X1, X2, margin=1e-12)):
            raise OutOfDomain(f"coordinates outside chart {self.name!r}")


class MetricState:
    """Numeric pointwise geometry (arrays broadcast over points): it holds
    ``x`` (3, ...), g_a ``g`` (2, 3, ...), g^ab ``inv_gram`` and ``sqrtJ``;
    g_ab ``gram``, ``J``, the unit normal ``n``, the projector ``P`` and the
    contravariant basis g^a = g^ab g_b ``gup`` (2, 3, ...) are built on first
    read, the first four by the kernels a frame uses."""

    def __init__(self, x, g, inv_gram, sqrtJ, orientation):
        self.x, self.g, self.inv_gram, self.sqrtJ = x, g, inv_gram, sqrtJ
        self.orientation = orientation

    gram = functools.cached_property(lambda self: np.array(_gram(self.g)))
    J = functools.cached_property(lambda self: _det(self.gram))
    n = functools.cached_property(lambda self: np.array(
        _normal(self.g, self.sqrtJ, self.orientation)))
    P = functools.cached_property(lambda self: np.array(_projector(self.n)))
    gup = functools.cached_property(lambda self: np.einsum(
        "ab...,bi...->ai...", self.inv_gram, self.g))


def _gram(g):
    """g_ab = g_a . g_b of the tangents ``g`` (``g[a][i]``) as nested lists;
    ``gram[1][0] is gram[0][1]``.  This and the kernels below run the same
    ops on plain arrays and on duals (a quotient is ``a * (1/b)``, as in
    ``Dual.__truediv__``)."""
    g01 = _dot3(g[0], g[1])
    return [[_dot3(g[0], g[0]), g01], [g01, _dot3(g[1], g[1])]]


def _det(gram):
    return gram[0][0] * gram[1][1] - gram[0][1] * gram[0][1]


def _geometry(g):
    """``(gram, J, sqrtJ)`` of the tangents ``g``; refuses a degenerate
    chart before any square root or reciprocal of J."""
    gram = _gram(g)
    J = _det(gram)
    if np.any(np.asarray(value_of(J)) <= _EPS_J):
        raise SingularMetric("Gram determinant non-positive: degenerate chart")
    return gram, J, ad.sqrt(J)


def _normal(g, sqrtJ, orientation):
    """Unit normal ``orientation * (g_1 x g_2) / sqrtJ`` as a list."""
    r = 1.0 / sqrtJ
    return [(orientation * c) * r for c in _cross3(g[0], g[1])]


def _inverse(gram, J):
    """g^ab as nested lists of values: no reader takes its partials."""
    inv = 1.0 / value_of(J)
    off = -value_of(gram[0][1]) * inv
    return [[value_of(gram[1][1]) * inv, off],
            [off, value_of(gram[0][0]) * inv]]


def _symmetric(entry):
    """3x3 nested list of entry(i, j) for j >= i, mirrored below the diagonal."""
    M = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            M[i][j] = M[j][i] = entry(i, j)
    return M


def _projector(n):
    """Tangential projector I - n n^T as nested lists; ``P[j][i] is P[i][j]``."""
    return _symmetric(lambda i, j: (1.0 if i == j else 0.0) - n[i] * n[j])


def _metric_state(x, g, orientation):
    """MetricState of positions ``x`` (3, ...) and tangents ``g`` (2, 3, ...);
    g_ab, J and 1/J are formed only to build g^ab and sqrtJ."""
    gram, J, sqrtJ = _geometry(g)
    return MetricState(x, g, np.array(_inverse(gram, J)), sqrtJ, orientation)


# -- padded uniform chart grids ------------------------------------------------

_PAD = 4  # ghost rows per bounded side: the reach of two nested 5-point stencils


def _crop(a, pads, ks):
    """Rows of ``a`` ks[d] in from each edge of every padded axis d."""
    (p1, p2), (k1, k2) = pads, ks
    return a[..., slice(k1, -k1 or None) if p1 else slice(None),
             slice(k2, -k2 or None) if p2 else slice(None)]


def fd_derivative(a, axis, h, pads, k=_PAD):
    """4th-order first derivative along chart ``axis`` (spacing h) of nodal
    data (..., n1, n2) padded by ``pads`` rows per side, on the rows k >= 2
    in from each padded edge: the central stencil alone, reading the ghost
    rows of a padded axis and wrapping an unpadded (periodic) one."""
    w = _crop(a, pads, (k - 2, k) if axis == 0 else (k, k - 2))

    def rows(s):
        return w[(..., s) + (slice(None),) * (1 - axis)]

    if not pads[axis]:  # w[i + 2] = a[i mod n]
        w = np.concatenate([rows(np.s_[-2:]), w, rows(np.s_[:2])], axis - 2)
    d = rows(np.s_[3:-1]) - rows(np.s_[1:-3])
    d *= 8.0
    d -= rows(np.s_[4:]) - rows(np.s_[:-4])
    d /= 12.0 * h
    return d


class ChartGrid:
    """Uniform nodes of chart ``m``, ``shape`` interior ones, with ``_PAD``
    ghost rows on each side of a bounded direction (none on a periodic one).

    ``X`` holds the padded node coordinates, ``axes`` the 1-D interior ones;
    ``w`` (trapezoid weights) and ``psi`` live on the interior nodes.
    """

    def __init__(self, atlas, m, shape):
        chart = atlas.charts[m]
        per, dom = chart.periodic, chart.domain
        self.pads = tuple(0 if q else _PAD for q in per)
        self.hs = tuple((hi - lo) / (n if q else n - 1)
                        for (lo, hi), q, n in zip(dom, per, shape))
        self.axes = tuple(lo + h * np.arange(n)
                          for (lo, _), h, n in zip(dom, self.hs, shape))
        self.X = np.stack(np.meshgrid(*(
            np.concatenate([xs[0] + h * np.arange(-p, 0), xs,
                            xs[-1] + h * np.arange(1, p + 1)])
            for xs, h, p in zip(self.axes, self.hs, self.pads)), indexing="ij"))
        self.w = np.outer(*(h * np.r_[0.5, np.ones(n - 2), 0.5] if p
                            else np.full(n, h)
                            for h, p, n in zip(self.hs, self.pads, shape)))
        Xi = self.interior(self.X)
        self.psi = atlas.pou(m, Xi[0], Xi[1])

    def interior(self, a, k=_PAD):
        """Rows of padded ``a`` k in from each padded edge (default: interior)."""
        return _crop(a, self.pads, (k, k))


def grid_integral(grids, values, sqrtJ):
    """Sum of w psi values sqrtJ over the interior nodes of chart ``grids``
    (one array each per chart): the surface integral of ``values``."""
    return sum(float(np.sum(g.w * g.psi * v * s))
               for g, v, s in zip(grids, values, sqrtJ))


class ChartFrame:
    """Dual-valued geometry of one chart at given coordinates and time.

    Every quantity but ``inv_gram`` and ``gup`` (values) is a dual seeded on
    ``X1, X2`` only, so one more chart-coordinate derivative of anything
    assembled from the frame can be read off its dual parts.  Time enters as a plain parameter; the chart
    velocity is :attr:`x_t`, the exact time partial of the parametrization.
    """

    def __init__(self, chart, X1, X2, t=0.0):
        self.chart = chart
        shape = np.broadcast(np.asarray(X1, dtype=float),
                             np.asarray(X2, dtype=float)).shape
        self.shape = shape
        self.X1 = X1 = np.broadcast_to(np.asarray(X1, dtype=float), shape)
        self.X2 = X2 = np.broadcast_to(np.asarray(X2, dtype=float), shape)
        self.t = t
        env = {"X1": ad.seed("X1", X1), "X2": ad.seed("X2", X2), "t": t}
        values = evaluate_all(chart._xg, env)
        self.x = values[:3]
        self.g = [values[3:6], values[6:]]
        self.gram, self.J, self.sqrtJ = _geometry(self.g)
        # n before g^ab, so its temporaries are freed before 1/J
        self.n = _normal(self.g, self.sqrtJ, chart.orientation)
        self.inv_gram = _inverse(self.gram, self.J)

    # -- derived quantities ---------------------------------------------------

    @functools.cached_property
    def x_t(self):
        """Chart velocity dx/dt (3, ...): one plain evaluation of the exact
        time partials of the parametrization, built on first read."""
        return self.chart.evaluate(self.chart._dparam["t"], self.X1, self.X2,
                                   self.t)

    @functools.cached_property
    def P(self):
        """Tangential projector I - n n^T (dual), built on first read."""
        return _projector(self.n)

    # the contravariant basis g^a = g^ab g_b (2, 3, ...) as values: that of
    # the frame's snapshot, built on first read
    gup = functools.cached_property(lambda self: self.metric().gup)

    def tangential(self, q, i):
        """Values of the ambient component ``i`` of the tangential derivative
        g^1_i dq/dX1 + g^2_i dq/dX2 of a dual scalar ``q`` (one derivative
        level is consumed)."""
        gup = self.gup
        return gup[0, i] * self.values(q, "X1") + gup[1, i] * self.values(q, "X2")

    def div(self, f):
        """Values of the chart-form surface divergence of a dual 3-vector."""
        return _total(self.tangential(c, i) for i, c in enumerate(f))

    @property
    def H(self):
        """Mean curvature -div_G n (values)."""
        return -self.div(self.n)

    def values(self, q, wrt=None):
        """Plain float array of a dual quantity over the frame's points.

        ``q`` is a scalar, a vector (list) or a matrix (list of lists); the
        result has shape ``q``'s layout + ``self.shape``, constants included;
        for a scalar ``q`` it is a read-only view.  With ``wrt`` (``"X1"`` or
        ``"X2"``) it holds that chart-coordinate partial instead, zero where
        the seed is absent; the time partial of the position is :attr:`x_t`.
        """
        if wrt not in (None, "X1", "X2"):
            raise ValueError(f"a frame carries X1 and X2 partials, not {wrt!r}")
        if isinstance(q, list):
            return np.stack([self.values(c, wrt) for c in q])
        v = value_of(q) if wrt is None else partial_of(q, wrt, like=0.0)
        return np.broadcast_to(np.asarray(v, dtype=float), self.shape)

    def metric(self):
        """The frame's x, g_a, g^ab and sqrt J values as a MetricState."""
        v = self.values
        return MetricState(v(self.x), v(self.g), v(self.inv_gram),
                           v(self.sqrtJ), self.chart.orientation)

    # -- field composition ----------------------------------------------------

    def eval_scalars(self, fields):
        """:meth:`eval_scalar` of each field, each shared node formed once."""
        env = {"x1": self.x[0], "x2": self.x[1], "x3": self.x[2], "t": self.t}
        return evaluate_all([f.expr for f in fields], env)

    def eval_scalar(self, f):
        """Evaluate an ambient scalar field on the (dual) surface points."""
        return self.eval_scalars([f])[0]


# the start of _total: adding x to it gives x itself
_START = type("_Start", (), {"__add__": lambda self, x: x})()


def _total(terms):
    """``sum(terms)`` from the first term itself, not from a 0 that copies
    it (``sum`` drops each term once added, as ``functools.reduce`` does not)."""
    return sum(terms, _START)


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def metric_at(chart, X, t=0.0):
    """Complete pointwise geometry of ``chart`` at coordinates ``X``."""
    X = np.asarray(X, dtype=float)
    chart._require_domain(X[0], X[1])
    return chart.metric(X[0], X[1], t)


# -- atlases ------------------------------------------------------------------


class ChartAtlas:
    """A set of charts with normalized partition-of-unity weights.  Its
    ``integration`` atlas is the one :func:`default_rule` integrates on, its
    ``reference`` the static atlas whose coordinates its charts share."""

    def __init__(self, charts, name="surface", integration=None,
                 reference=None):
        self.charts = list(charts)
        self.name = name
        self._integration, self._reference = integration, reference

    integration = property(lambda self: self._integration or self)
    reference = property(lambda self: self._reference or self)

    def image(self, fn, suffix):
        """The atlas of ``fn(chart)`` per chart, integration atlas included."""
        integ = self._integration and self._integration.image(fn, suffix)
        return ChartAtlas([fn(c) for c in self.charts], self.name + suffix,
                          integ, self.reference)

    def charts_for(self, rule):
        """The charts of this atlas, or of its integration atlas, that
        ``rule`` was built on (or their images)."""
        for atlas in (self, self.integration):
            if atlas.reference is rule.atlas:
                return atlas.charts
        raise ValueError(f"a rule on {rule.atlas.name!r} does not fit {self.name!r}")

    def pou(self, m, X1, X2):
        """Normalized weight of chart ``m`` at its own coordinates.

        Weights are attached to reference coordinates: normalization uses the
        reference (t=0) configuration, so they ride along with material
        points under any later motion.
        """
        chart = self.charts[m]
        own = chart.bump_at(X1, X2)
        if len(self.charts) == 1:
            return own
        total = np.array(own, dtype=float, copy=True)
        p = chart.position(X1, X2, 0.0)
        for k, other in enumerate(self.charts):
            if k == m:
                continue
            if other.invert is None:
                raise ValueError(
                    f"chart {other.name!r} needs an inverse map for pou normalization")
            Y1, Y2 = other.invert(p)
            total += other.bump_at(Y1, Y2)
        if np.any(total <= 0):
            raise ValueError("partition-of-unity bumps do not cover the surface")
        return own / total


def plane_chart(extent=1.0):
    chart = Chart(["X1", "X2", "0"],
                  domain=((-extent, extent), (-extent, extent)),
                  orientation=1, name="plane")
    return ChartAtlas([chart], name="plane")


# Sphere: two rotated latitude-longitude bands.  Each chart omits its poles;
# the other chart's band covers them.  The worst-covered points sit at
# colatitude pi/4 in both charts, well inside both bump supports.
_SPH_GRID_MARGIN = 0.5    # band edge (colatitude) actually gridded/valid
_SPH_POU_MARGIN = 0.65    # bump support edge; 0 weight outside


def _sphere_param(R, rotated):
    base = ("sin(X1)*cos(X2)", "sin(X1)*sin(X2)", "cos(X1)")
    u = [parse_expr(s, _CHART_VARS) for s in base]
    if rotated:
        # rotate about the y-axis: (u1,u2,u3) -> (u3, u2, -u1); poles go to +-x
        u = [u[2], u[1], -1.0 * u[0]]
    return [R * c for c in u]


def _sphere_invert(R, rotated):
    def invert(p):
        q = np.asarray(p, dtype=float) / R
        if rotated:
            q = np.stack([-q[2], q[1], q[0]])
        X1 = np.arccos(np.clip(q[2], -1.0, 1.0))
        X2 = np.mod(np.arctan2(q[1], q[0]), 2.0 * math.pi)
        return X1, X2

    return invert


def sphere_atlas(R=1.0):
    lo, hi = _SPH_GRID_MARGIN, math.pi - _SPH_GRID_MARGIN
    bump1d = smooth_bump(_SPH_POU_MARGIN, math.pi - _SPH_POU_MARGIN)

    def bump(X1, X2):
        return bump1d(X1)

    charts = []
    for rotated, name in ((False, "sphere-band-z"), (True, "sphere-band-x")):
        charts.append(Chart(
            _sphere_param(R, rotated),
            domain=((lo, hi), (0.0, 2.0 * math.pi)),
            periodic=(False, True),
            orientation=1,
            pou_bump=bump,
            invert=_sphere_invert(R, rotated),
            name=name,
        ))
    # one analytic, periodic chart for integrals: no psi, no node on a pole
    polar = Chart(_sphere_param(R, False), ((0.0, math.pi), (0.0, 2 * math.pi)),
                  periodic=(False, True), name="sphere-polar")
    name = f"sphere(R={R})"
    return ChartAtlas(charts, name, ChartAtlas([polar], name + " polar"))


def torus_atlas(R=2.0, r=0.5):
    param = [f"({R} + {r}*cos(X2))*cos(X1)",
             f"({R} + {r}*cos(X2))*sin(X1)",
             f"{r}*sin(X2)"]
    chart = Chart(param,
                  domain=((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
                  periodic=(True, True), orientation=1, name="torus")
    return ChartAtlas([chart], name=f"torus(R={R},r={r})")


_SURFACES = {"plane": plane_chart, "sphere": sphere_atlas, "torus": torus_atlas}


# -- quadrature ---------------------------------------------------------------


class QuadratureRule:
    """Tensor-product nodes per chart: Gauss-Legendre in bounded directions,
    uniform (trapezoid/midpoint) nodes in periodic directions.

    ``nodes[m]`` is ``(X, w, psi)`` for chart ``m``: coordinates ``(2, N)``,
    weights ``(N,)``, and normalized partition-of-unity values ``(N,)``, on
    the charts of ``atlas`` itself.  On the sphere's two bands psi is not
    analytic, so ``QuadratureRule(sphere, 160, 384)`` stops near 1e-9.
    """

    def __init__(self, atlas, order=32, periodic_order=64):
        self.atlas = atlas.reference
        self.nodes = []
        for m, chart in enumerate(atlas.charts):
            axes = []
            for d, ((lo, hi), per) in enumerate(zip(chart.domain, chart.periodic)):
                if per:
                    k = periodic_order
                    xs = lo + (hi - lo) * (np.arange(k) + 0.5) / k
                    ws = np.full(k, (hi - lo) / k)
                else:
                    xs, ws = np.polynomial.legendre.leggauss(order)
                    xs = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
                    ws = 0.5 * (hi - lo) * ws
                axes.append((xs, ws))
            X1, X2 = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
            W = np.outer(axes[0][1], axes[1][1])
            X = np.stack([X1.ravel(), X2.ravel()])
            w = W.ravel()
            if np.any(w <= 0):
                raise ValueError("quadrature weights must be positive")
            psi = blockwise(lambda X: atlas.pou(m, X[0], X[1]), X)
            self.nodes.append((X, w, psi))


def default_rule(atlas):
    """n Gauss-Legendre x 2n trapezoid nodes on the one chart of the atlas's
    integration atlas.  The sphere's is a latitude-longitude chart with no
    psi: its integrands are analytic and periodic, so the rule converges
    spectrally (area 4 pi to ~1e-13).  Its two bands carry psi, C-infinity
    but not analytic: ask for them by ``QuadratureRule(sphere, order,
    periodic_order)`` or a scenario's ``quadrature`` lines."""
    integ = atlas.integration
    if len(integ.charts) > 1:
        raise ValueError(f"{atlas.name!r} has no one-chart integration atlas")
    # n = 48 is as accurate on the sphere; see ROADMAP, Housekeeping
    n = 48 if integ is atlas else 112
    return QuadratureRule(integ, order=n, periodic_order=2 * n)


# Nodes per block of rule-wide work.  On the conservation report's stress
# integral 2048, 4096 and 8192 took 0.28-0.41, 0.21-0.29 and 0.18-0.26 s,
# bit-identical; 16384 was no faster and lifted the report's peak 18 -> 30 MiB.
_BLOCK = 8192
# Freeing one untouched 8 MiB array lifts glibc's heap-trim threshold to
# twice its size, above a block's working set, so each block reuses the
# freed heap of the last instead of faulting it back in from the system.
np.empty(1 << 20)


def blockwise(fn, *arrays):
    """``fn`` on slices of at most ``_BLOCK`` nodes of ``arrays`` (node axis
    last), its array results written into one output made at the first
    block: one copy of the result and one block's work are held at a time.
    Elementwise work rounds alike however the nodes are cut, so a reduction
    over the result equals one over a single call on all nodes."""
    n = np.shape(arrays[0])[-1]
    out = None
    for s in range(0, n, _BLOCK):
        out = _put(out, fn(*(a[..., s:s + _BLOCK] for a in arrays)), s, n)
    return out


def _put(out, part, s, n):
    """``out`` (if None, a new ``n``-node array like ``part``) with ``part``
    at node ``s``: no name in :func:`blockwise` keeps a block once written."""
    if out is None:
        out = np.empty(part.shape[:-1] + (n,), part.dtype)
    out[..., s:s + _BLOCK] = part
    return out


def rule_terms(reduce, atlas, rule, fn, *per_chart):
    """``reduce(terms)`` for each chart of ``atlas.charts_for(rule)``, in
    order: ``terms`` is ``fn(chart, X, w, psi, *arrays)`` through
    :func:`blockwise`, ``arrays`` being that chart's entries of each of
    ``per_chart``.  Every rule-wide loop is this one.  A chart's terms are
    reduced over its whole node axis, and dropped, before the next chart's
    are computed."""
    charts = atlas.charts_for(rule)
    return [reduce(blockwise(functools.partial(fn, chart), *nodes, *arrays))
            for chart, nodes, *arrays in zip(charts, rule.nodes, *per_chart)]


def rule_sums(atlas, rule, fn):
    """``np.sum(terms, axis=-1)`` of each chart's :func:`rule_terms`, added
    in chart order from 0.0."""
    total = 0.0
    for s in rule_terms(lambda a: np.sum(a, axis=-1), atlas, rule, fn):
        total += s
    return total


def integrate(field, atlas, rule, t=0.0):
    """Surface integral of a scalar field at time ``t``."""
    value = as_scalar_field(field).value

    def terms(chart, X, w, psi):
        st = metric_at(chart, X, t)
        return w * psi * value(st.x, t) * st.sqrtJ
    return float(rule_sums(atlas, rule, terms))
