import math

import numpy as np
import pytest

from surfcalc import evolving_surface
from surfcalc.chart_geometry import fd_derivative, sphere_atlas
from surfcalc.evolving_surface import (FlowState, JacobianCollapse, MotionLaw,
                                       advance_flow, dilation_density,
                                       integrate_grid,
                                       integrate_grid_vector,
                                       jacobian_rate_check, motion_builtin,
                                       moving_atlas, probe_steps,
                                       transport_scalar,
                                       transport_theorem_check)
from surfcalc.fields import ScalarField


def test_motion_builtins():
    for name in ("static", "translation", "rotation", "dilation"):
        m = motion_builtin(name)
        assert m.name == name
        assert m.transform is not None
    with pytest.raises(KeyError):
        motion_builtin("shear")


def test_moving_atlas_positions(sphere):
    motion = motion_builtin("translation", c=(0.3, -0.2, 0.1))
    mov = moving_atlas(sphere, motion)
    chart0, chartM = sphere.charts[0], mov.charts[0]
    X1 = np.array([0.2])
    X2 = np.array([1.0])
    base = chart0.position(X1, X2, 0.0)
    moved = chartM.position(X1, X2, 2.0)
    assert np.allclose(moved, base + 2.0 * np.array([[0.3], [-0.2], [0.1]]))


def test_fd_derivative_order():
    # periodic (unpadded) axis: the central stencil on the wrapped data,
    # which equals the padded route on data padded by two rows per side
    y = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
    hy = y[1] - y[0]
    dp = fd_derivative(np.sin(y)[None, :], 1, hy, (0, 0))[0]
    assert np.max(np.abs(dp - np.cos(y))) <= 1e-4
    wrapped = np.sin(np.concatenate([y[-2:], y, y[:2]]))[None, :]
    assert np.array_equal(dp, fd_derivative(wrapped, 1, hy, (0, 2), k=2)[0])
    # a (3, n1, n2) stack, axis 0 padded by four ghost rows per side
    x = np.linspace(-4 / 32, 1.0 + 4 / 32, 41)
    h = x[1] - x[0]
    stack = np.stack([np.sin(k * x)[:, None] * np.cos(y)[None, :]
                      for k in (1.0, 2.0, 3.0)])
    ds = fd_derivative(stack, 0, h, (4, 0))
    assert ds.shape == (3, 33, 48)
    for k, dk in zip((1.0, 2.0, 3.0), ds):
        exact = k * np.cos(k * x[4:-4])[:, None] * np.cos(y)[None, :]
        assert np.max(np.abs(dk - exact)) <= 1e-4
    dps = fd_derivative(stack, 1, hy, (4, 0))
    for k, dk in zip((1.0, 2.0, 3.0), dps):
        exact = -np.sin(k * x[4:-4])[:, None] * np.sin(y)[None, :]
        assert np.max(np.abs(dk - exact)) <= 1e-4


def test_dilating_sphere_mass_conservation(sphere):
    motion = motion_builtin("dilation")
    rho0 = ScalarField("1 + 0.3*x3")
    state = FlowState.create(sphere, resolution=(48, 96))
    mass0 = integrate_grid(state, values=transport_scalar(state, rho0))
    cur = state
    for _ in range(10):
        cur = advance_flow(cur, motion, 0.02, steps=5)
        mass = integrate_grid(cur, values=transport_scalar(cur, rho0))
        assert abs(mass - mass0) / abs(mass0) <= 1e-8
    # area scales by (1 + t)^2 under the dilation
    area = integrate_grid(cur, values=[np.ones(x.shape[1:]) for x in cur.x])
    exact = 4 * math.pi * (1 + cur.t) ** 2
    assert abs(area - exact) / exact <= 1e-6


def test_jacobian_rate_and_transport_theorem(sphere):
    motion = motion_builtin("dilation")
    state = FlowState.create(sphere, resolution=(48, 96))
    cur = advance_flow(state, motion, 0.02, steps=10)
    probes = probe_steps(cur, motion)
    assert jacobian_rate_check(cur, motion, probes) <= 1e-6
    assert transport_theorem_check(cur, motion, ScalarField("1 + 0.3*x3"),
                                   probes) <= 1e-6


def test_rigid_motions_preserve_area_element(sphere):
    state = FlowState.create(sphere, resolution=(32, 64))
    # translation is integrated exactly; rotation carries a tiny O(dt^5)
    # time-stepping error per step
    for name, tol in (("translation", 1e-12), ("rotation", 1e-9)):
        cur = advance_flow(state, motion_builtin(name), 0.05, steps=8)
        for m in range(len(cur.x)):
            geo = cur.geo[m]
            assert np.max(np.abs(geo.sqrtJ - state.sqrtJ0[m])) <= tol


def test_rk4_temporal_order(sphere):
    """Observed RK4 order on a time-modulated radial flow whose exact flow
    map is x0 * exp(sin t) (the canonical dilation is integrated exactly by
    RK4, so it cannot expose the order)."""
    motion = MotionLaw(["cos(t)*x1", "cos(t)*x2", "cos(t)*x3"])
    T = 1.0
    errs = []
    for steps in (8, 16):
        state = FlowState.create(sphere, resolution=(24, 48))
        cur = advance_flow(state, motion, T / steps, steps=steps)
        scale = math.exp(math.sin(T))
        err = max(np.max(np.abs(c - scale * b))
                  for c, b in zip(cur.x, state.x))
        errs.append(err)
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.8, order


def test_dilation_density_closed_form():
    rho = dilation_density(ScalarField("2 + 0.5*x3"))
    x = np.array([[0.3], [0.1], [-0.2]])
    t = 0.7
    exact = (2 + 0.5 * x[2] / (1 + t)) / (1 + t) ** 2
    assert np.allclose(rho.value(x, t), exact)


def test_dilation_density_solves_continuity(sphere):
    # transported grid density agrees with the closed form along the flow
    motion = motion_builtin("dilation")
    state = FlowState.create(sphere, resolution=(24, 48))
    cur = advance_flow(state, motion, 0.02, steps=10)
    rho = dilation_density(ScalarField("2 + 0.5*x3"))
    grid = transport_scalar(cur, ScalarField("2 + 0.5*x3"))
    for m in range(len(grid)):
        assert np.max(np.abs(grid[m] - rho.value(cur.x[m], cur.t))) <= 1e-6


def test_jacobian_collapse_detected(sphere):
    # flowing toward the origin collapses the surface
    motion = MotionLaw(["-2*x1", "-2*x2", "-2*x3"])
    state = FlowState.create(sphere, resolution=(16, 32))
    with pytest.raises(JacobianCollapse):
        advance_flow(state, motion, 0.25, steps=20)


def test_integrate_grid_vector(sphere):
    state = FlowState.create(sphere, resolution=(32, 64))
    vals = [np.stack([x[0], x[1], x[2] ** 2]) for x in state.x]
    out = integrate_grid_vector(state, vals)
    # odd components vanish; the x3^2 moment is 4 pi / 3
    assert np.max(np.abs(out[:2])) <= 1e-10
    assert abs(out[2] - 4 * math.pi / 3) <= 1e-4


def _count_geometries(monkeypatch):
    calls = []
    original = evolving_surface._geometry_from_positions

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evolving_surface, "_geometry_from_positions", counting)
    return calls


def test_flow_state_keeps_its_grid_geometry(sphere, monkeypatch):
    """A state's grid geometry is built where its positions are set: once per
    chart and step, never by the integrals that read it."""
    state = FlowState.create(sphere, resolution=(16, 32))
    calls = _count_geometries(monkeypatch)
    for _ in range(3):
        integrate_grid(state, values=transport_scalar(state, "1 + 0.3*x3"))
        transport_scalar(state, ScalarField("x1"))
    assert calls == []
    cur = advance_flow(state, motion_builtin("dilation"), 0.02, steps=2)
    assert len(calls) == 2 * len(sphere.charts)
    for m, geo in enumerate(cur.geo):
        chart = sphere.charts[m]
        fresh = evolving_surface._geometry_from_positions(
            cur.xpad[m], cur.grids[m], chart.orientation)
        assert np.array_equal(geo.sqrtJ, fresh.sqrtJ)
        assert np.array_equal(geo.inv_gram, fresh.inv_gram)
    # the state it was advanced from keeps its own geometry
    assert all(np.array_equal(geo.sqrtJ, s0)
               for geo, s0 in zip(state.geo, state.sqrtJ0))


def test_one_grid_metric_per_chart_and_step(sphere, monkeypatch):
    """Three RK4 steps on the two-chart sphere build each chart's grid
    metric once per step, at the step's end: no RK4 stage builds one."""
    state = FlowState.create(sphere, resolution=(16, 32))
    calls = _count_geometries(monkeypatch)
    advance_flow(state, motion_builtin("dilation"), 0.02, steps=3)
    assert len(calls) == 3 * len(sphere.charts)


def test_flow_positions_match_reference_rk4(sphere):
    """advance_flow's positions are bit-identical to a plain RK4 of the
    velocity, and the t = 0 positions stay as create evaluated them."""
    motion = motion_builtin("dilation")
    state = FlowState.create(sphere, resolution=(16, 32))
    end = advance_flow(state, motion, 0.02, steps=3)
    y, t = state.x, 0.0
    for _ in range(3):
        y = evolving_surface._rk4(
            y, t, 0.02, lambda xs, t: [motion.velocity.value(xm, t) for xm in xs])
        t += 0.02
    assert all(np.array_equal(a, b) for a, b in zip(end.x, y))
    fresh = FlowState.create(sphere, resolution=(16, 32))
    assert all(np.array_equal(a, b) for a, b in zip(end.x0, fresh.x))


def test_jacobian_collapse_on_backward_probe(sphere):
    """The backward RK4 probe step of the transport checks raises the collapse.
    a(t) vanishes at t = 0 and t = -dt/2 and is 6/dt at t = -dt, so the
    backward step of v = a(t) x maps every node to (about) the origin while
    the forward step stays regular."""
    dt = 1e-3
    a = f"{12.0 / dt ** 3!r}*t*(t + {dt / 2!r})"
    motion = MotionLaw([f"{a}*x1", f"{a}*x2", f"{a}*x3"])
    state = FlowState.create(sphere, resolution=(16, 32))
    advance_flow(state, motion, dt)
    with pytest.raises(JacobianCollapse):
        probe_steps(state, motion, dt_probe=dt)
