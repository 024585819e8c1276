"""One pass of one benchmark workload, run in a fresh process by ``run.py``.

    python3 benchmark/workloads.py --workload solver --seed 0 [--trace PATH]

The pass builds what the workload needs once (set-up), then runs the timed
part and computes every check.  Its last stdout line is a JSON object with
the monotonic time set-up ended, the solve time, the host's speed in each
phase (``speed.py``), the peak resident memory, the raw checks
``[name, value, tolerance, inconclusive]`` and the inputs the seed chose.
Verdicts are derived by the driver, not here.  ``--trace PATH`` installs the
tracer's wrappers before set-up and writes the spans to PATH.
"""

from __future__ import annotations

from speed import SpeedSampler

if __name__ == "__main__":
    # sample the host's speed from the start of the pass, imports included
    SAMPLER = SpeedSampler().start()

import argparse
import contextlib
import json
import math
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

# Functions the tracer wraps are called through their module, so a traced
# pass sees the wrapper.
from surfcalc import pde_solvers
from surfcalc.chart_geometry import default_rule, sphere_atlas
from surfcalc.cli_runner import main as surfcalc_cli
from surfcalc.evolving_surface import motion_builtin, moving_atlas
from surfcalc.fluid_models import CoefficientFields, pressure_law_builtin
from surfcalc.pde_solvers import GridField, SurfaceGridSolver, flux_law_builtin
from surfcalc.variational_checks import (check_action_variation,
                                         check_flux_variation,
                                         time_window_variation)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "surfcalc" / "scenarios"
OUT_DIR = ROOT / ".bench_out"

# Run length of one pass.  Steps per solver part, and the ladder's time
# intervals and epsilon rungs: two rungs are the fewest that give a slope and
# a Richardson extrapolation, and nt=2 keeps one ladder near 5 s (nt=20
# takes about 35 s) while every rung stays far above the rounding floor.
HEAT_STEPS = 10
SMALL_STEPS = 20
CHECK_EVERY = 5
LADDER_NT = 2
LADDER_EPS = (1e-2, 3e-3)

# the direction of criterion 7 and tests/test_acceptance.py
WOBBLE = ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")

SCENARIOS = ("sphere_identities", "dilating_sphere_mass",
             "conservation_translation", "torus_variational")


class _NoTrace:
    """Stands in for the tracer in untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()


def _unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _dot(axis, x):
    return np.einsum("i,i...->...", axis, x)


# -- solver -------------------------------------------------------------------


def setup_solver(seed):
    rng = np.random.default_rng(seed)
    sphere = sphere_atlas()
    return {
        "heat_axis": _unit_vector(rng),
        "spin_axis": _unit_vector(rng),
        "fine": SurfaceGridSolver(sphere, (64, 128)),
        "coarse": SurfaceGridSolver(sphere, (32, 64)),
        "moving": SurfaceGridSolver(
            moving_atlas(sphere, motion_builtin("dilation")), (32, 64)),
        "flux": flux_law_builtin("linear"),
        "law": pressure_law_builtin("quadratic"),
    }


def _max_err(values, exact):
    return max(float(np.max(np.abs(v - e))) for v, e in zip(values, exact))


def solve_solver(state, tracer):
    a, flux = state["heat_axis"], state["flux"]
    checks = []

    # heat: theta = exp(-2 t) (a . x) on the unit sphere.  The error is
    # taken over the change the run makes, so that a 1% error in the
    # operator's scale reads about 1e-2 and fails criterion 5's 1e-3.
    solver = state["fine"]
    xs = solver.positions(0.0)
    start = [_dot(a, x) for x in xs]
    field = GridField([v.copy() for v in start], 0.0)
    coeffs = CoefficientFields(F=("0", "0", "0"), Q_theta=0.0)
    for _ in range(HEAT_STEPS):
        field = pde_solvers.step_heat(solver, field, coeffs, flux, 2e-4)
    exact = [math.exp(-2.0 * field.t) * v for v in start]
    checks.append(["heat_error_over_change",
                   _max_err(field.values, exact) / _max_err(exact, start),
                   1e-3, False])

    # sourced diffusion: C = 1 + t + 0.5 exp(-2 t) (a . x), species grows by
    # 4 pi t (the diffusion_sphere tolerances; the error is again taken over
    # the change the run makes)
    solver = state["coarse"]
    xs = solver.positions(0.0)
    start = [1.0 + 0.5 * _dot(a, x) for x in xs]
    field = GridField([v.copy() for v in start], 0.0)
    mass0 = solver.integrate(field.values, 0.0)
    coeffs = CoefficientFields(Q_C=1.0)
    for _ in range(SMALL_STEPS):
        field = pde_solvers.step_diffusion(solver, field, coeffs, flux, 5e-4)
    t = field.t
    budget = abs(solver.integrate(field.values, t) - mass0
                 - 4.0 * math.pi * t) / max(1.0, abs(mass0))
    exact = [1.0 + t + 0.5 * math.exp(-2.0 * t) * _dot(a, x) for x in xs]
    checks.append(["species_budget_error", budget, 1e-6, False])
    checks.append(["diffusion_error_over_change",
                   _max_err(field.values, exact) / _max_err(exact, start),
                   2e-3, False])

    # tangential barotropic flow from a rigid rotation about the seed's axis
    # (the barotropic_sphere tolerance)
    solver, b = state["coarse"], state["spin_axis"]
    vals = []
    for m, st in enumerate(solver.metric(0.0)):
        x = solver.interior(m, st.x)
        P = solver.interior(m, st.P)
        v0 = 0.3 * np.cross(b, x, axisb=0, axisc=0)
        vt = np.einsum("ij...,j...->i...", P, v0)
        vals.append(np.concatenate([(2.0 + 0.2 * _dot(a, x))[None], vt]))
    field = GridField(vals, 0.0)
    mass0 = solver.integrate([v[0] for v in field.values], 0.0)
    drift = 0.0
    for k in range(1, SMALL_STEPS + 1):
        field = pde_solvers.step_barotropic_tangential(solver, field,
                                                       state["law"], 2e-4)
        if k % CHECK_EVERY == 0:
            mass = solver.integrate([v[0] for v in field.values], field.t)
            drift = max(drift, abs(mass - mass0) / max(1.0, abs(mass0)))
    checks.append(["barotropic_mass_drift", drift, 1e-6, False])

    # unsourced diffusion on the dilating sphere: species is conserved
    with tracer.span("bench.diffusion_moving"):
        solver = state["moving"]
        xs = solver.positions(0.0)
        field = GridField([1.0 + 0.5 * _dot(a, x) for x in xs], 0.0)
        mass0 = solver.integrate(field.values, 0.0)
        coeffs = CoefficientFields(Q_C=0.0)
        for _ in range(SMALL_STEPS):
            field = pde_solvers.step_diffusion(solver, field, coeffs, flux,
                                               5e-4)
        mass = solver.integrate(field.values, field.t)
        cons = abs(mass - mass0) / abs(mass0)
    checks.append(["moving_species_conservation", cons, 1e-10, False])

    return checks, {"heat_axis": a.tolist(),
                    "spin_axis": state["spin_axis"].tolist()}


# -- ladder -------------------------------------------------------------------


def setup_ladder(seed):
    sphere = sphere_atlas()
    return {
        "sphere": sphere,
        "rule": default_rule(sphere),
        "motion": motion_builtin("dilation"),
        "variation": time_window_variation(WOBBLE, 0.4),
        "law": pressure_law_builtin("quadratic"),
        "flux": flux_law_builtin("quadratic"),
    }


def solve_ladder(state, tracer):
    checks = []
    rep = check_action_variation(state["sphere"], state["motion"],
                                 state["variation"], rho0=1.0, T=0.4,
                                 law=state["law"], eps_list=LADDER_EPS,
                                 rule=state["rule"], nt=LADDER_NT)
    flux = check_flux_variation("x1 + 2*x3", state["flux"], "0.5*x1 + x2*x3",
                                state["sphere"], rule=state["rule"],
                                eps_list=LADDER_EPS)
    for name, r in (("action", rep), ("flux", flux)):
        slope = r["slope"]
        checks.append([f"{name}_slope",
                       abs(slope - 2.0) if slope is not None else math.inf,
                       0.1, bool(r["floor_limited"])])
        checks.append([f"{name}_extrapolated_error", r["extrapolated_error"],
                       1e-6, False])
    return checks, {"nodes": int(sum(len(w) for _, w, _ in
                                     state["rule"].nodes))}


# -- scenarios ----------------------------------------------------------------


def setup_scenarios(seed):
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="scenarios-")
    paths = []
    for name in SCENARIOS:
        text = (SCENARIO_DIR / f"{name}.cfg").read_text()
        text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
        if n != 1:
            raise RuntimeError(f"{name}.cfg has no single 'seed' line")
        path = Path(tmp.name) / f"{name}.cfg"
        path.write_text(text)
        paths.append(path)
    return {"tmp": tmp, "paths": paths, "seed": seed}


def solve_scenarios(state, tracer):
    checks = []
    exits = {}
    with state["tmp"]:
        for path in state["paths"]:
            out = path.with_suffix("")
            try:
                surfcalc_cli(["run", str(path), "--out", str(out)],
                             standalone_mode=False)
            except SystemExit as exc:
                exits[path.stem] = exc.code
            summary = json.loads((out / "summary.json").read_text())
            for suite in summary["suites"].values():
                for row in suite["checks"]:
                    checks.append([f"{path.stem}/{row['check']}",
                                   row["value"], row["tolerance"],
                                   bool(row.get("inconclusive", False))])
    return checks, {"seed_key": state["seed"], "exit_codes": exits}


WORKLOADS = {
    "solver": (setup_solver, solve_solver),
    "ladder": (setup_ladder, solve_ladder),
    "scenarios": (setup_scenarios, solve_scenarios),
}


def run_pass(workload, seed, tracer=None, sampler=None):
    """Set up and solve once; returns the pass record (see module doc).
    ``speed`` holds the sampler's (mean, total) probe time per phase."""
    setup, solve = WORKLOADS[workload]
    state = setup(seed)
    setup_end = time.monotonic()
    checks, inputs = solve(state, tracer or _NoTrace())
    solve_end = time.monotonic()
    speed = None
    if sampler is not None:
        sampler.stop()
        speed = {"setup": sampler.phase(0.0, setup_end),
                 "solve": sampler.phase(setup_end, solve_end)}
    return {
        "setup_end": setup_end,
        "solve_s": solve_end - setup_end,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "checks": [[n, float(v), float(t), i] for n, v, t, i in checks],
        "inputs": inputs,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None,
                    help="write the spans of this pass to this path")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    record = run_pass(args.workload, args.seed, tracer, SAMPLER)
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
