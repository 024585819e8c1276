"""Spans and counters recorded from outside the program, for the traced run.

The tracer replaces public functions and methods of the surfcalc modules
with thin wrappers.  Each wrapped call records one span
``(name, start, end, parent, run_id)`` in memory; nothing is written until
the pass ends.  A function bound into another module by ``from ... import``
is replaced wherever it is looked up, so ``cli_runner.identity_residuals``
and ``pde_solvers.fd_derivative`` are traced like their originals.

Expression nodes are counted, not spanned: a span per node evaluation would
cost more than the evaluation of a small node.

Untraced passes never call ``install``: the timed numbers come from passes
without any wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time
from collections import Counter

import numpy as np

# (module, attribute path, span name, counter) -- the layer boundaries.  A
# counter named here is incremented by what ``_COUNTERS`` computes from the
# call's arguments.
SPANS = [
    ("pde_solvers", "SurfaceGridSolver.__init__", "pde_solvers.build", None),
    ("pde_solvers", "SurfaceGridSolver.metric", "pde_solvers.metric", None),
    ("pde_solvers", "SurfaceGridSolver.flux_divergence",
     "pde_solvers.flux_divergence", None),
    ("pde_solvers", "SurfaceGridSolver.fill_ghosts", "pde_solvers.fill_ghosts",
     None),
    ("pde_solvers", "SurfaceGridSolver.blend", "pde_solvers.blend", None),
    ("pde_solvers", "step_heat", "pde_solvers.step_heat", None),
    ("pde_solvers", "step_diffusion", "pde_solvers.step_diffusion", None),
    ("pde_solvers", "step_barotropic_tangential",
     "pde_solvers.step_barotropic", None),
    ("chart_geometry", "Chart.frame", "chart_geometry.frame", "frame_points"),
    ("chart_geometry", "ChartFrame.metric", "chart_geometry.metric", None),
    ("chart_geometry", "QuadratureRule.__init__", "chart_geometry.rule", None),
    ("variational_checks", "action_integral",
     "variational_checks.action_integral", None),
    ("variational_checks", "action_first_variation",
     "variational_checks.action_first_variation", None),
    ("variational_checks", "varied_atlas", "variational_checks.varied_atlas",
     None),
    ("variational_checks", "gradient_flux_energy",
     "variational_checks.gradient_flux_energy", None),
    ("fields", "ScalarField.d", "fields.d", None),
    ("surface_ops", "identity_residuals", "surface_ops.identity_residuals",
     None),
    ("surface_ops", "stress_dual", "surface_ops.stress_divergence", None),
    ("surface_ops", "div_matrix_dual", "surface_ops.stress_divergence", None),
    ("fluid_models", "residual_full", "fluid_models.residuals", None),
    ("fluid_models", "residual_conservative", "fluid_models.residuals", None),
    ("fluid_models", "residual_tangential", "fluid_models.residuals", None),
    ("fluid_models", "residual_noncanonical", "fluid_models.residuals", None),
    ("fluid_models", "residual_barotropic", "fluid_models.residuals", None),
    ("fluid_models", "thermo_quantities", "fluid_models.thermo", None),
    ("evolving_surface", "advance_flow", "evolving_surface.advance_flow",
     "flow_steps"),
    ("evolving_surface", "jacobian_rate_check",
     "evolving_surface.transport_checks", None),
    ("evolving_surface", "transport_theorem_check",
     "evolving_surface.transport_checks", None),
    ("evolving_surface", "integrate_grid", "evolving_surface.integrate_grid",
     None),
    ("evolving_surface", "fd_derivative", "evolving_surface.fd_derivative",
     None),
    ("config", "load_scenario", "config.load_scenario", None),
]

_MODULES = ("autodiff", "expressions", "fields", "chart_geometry",
            "surface_ops", "evolving_surface", "fluid_models", "pde_solvers",
            "variational_checks", "config", "cli_runner")
_NODE_CLASSES = ("Num", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Call")


def _frame_points(args, kwargs):
    X1, X2 = args[1], args[2]
    return int(np.broadcast(np.asarray(X1), np.asarray(X2)).size)


def _flow_steps(args, kwargs):
    return int(kwargs.get("steps", args[3] if len(args) > 3 else 1))


_COUNTERS = {"frame_points": _frame_points, "flow_steps": _flow_steps}


class Tracer:
    """In-memory span recorder with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, run_id]
        self.counts = Counter()
        self.run_id = os.getpid()   # one pass, one process
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, counter):
        count = _COUNTERS.get(counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[counter] += count(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count(self, fn, *keys):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in keys:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary in ``SPANS`` and count expression nodes."""
        modules = {name: importlib.import_module(f"surfcalc.{name}")
                   for name in _MODULES}
        for modname, path, name, counter in SPANS:
            owner = modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name, counter)
            if outer:
                self._set(owner, attr, wrapped)
                continue
            # a plain function: rebind it wherever a module looks it up
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        suites = modules["cli_runner"]._SUITE_FUNCS
        for suite, fn in list(suites.items()):
            self._undo.append((suites, suite, fn))
            suites[suite] = self._wrap(fn, f"cli_runner.suite.{suite}", None)
        for cls_name in _NODE_CLASSES:
            cls = getattr(modules["expressions"], cls_name)
            keys = ["evaluate_nodes"] + (["call_evals"] if cls_name == "Call"
                                         else [])
            self._set(cls, "evaluate", self._count(cls.evaluate, *keys))
            self._set(cls, "diff", self._count(cls.diff, "diff_nodes"))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path):
        """Write the spans and counters of this pass as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# -- analysis -----------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent is not None:
        yield spans[parent][0]
        parent = spans[parent][3]


def tail_percentile(samples):
    """Median, the highest listed percentile with at least ten samples beyond
    it (the median itself when there are too few), and the sample count."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 50.0, 0
    xs = sorted(samples)
    p50 = statistics.median(xs)
    tail, pct = p50, 50.0
    for level in (75.0, 90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(level * n / 100.0 - 1e-9)   # nearest rank, 1-based
        if n - rank >= 10:
            tail, pct = xs[rank - 1], level
    return p50, tail, pct, n


# per-call timings: metric prefix -> (span name, required phase or None,
# excluded phase or None)
PER_CALL = {
    "pde_solvers.step_heat": ("pde_solvers.step_heat", None, None),
    "pde_solvers.step_diffusion": ("pde_solvers.step_diffusion", None,
                                   "bench.diffusion_moving"),
    "pde_solvers.step_diffusion_moving": ("pde_solvers.step_diffusion",
                                          "bench.diffusion_moving", None),
    "pde_solvers.step_barotropic": ("pde_solvers.step_barotropic", None, None),
    "variational_checks.action_integral": (
        "variational_checks.action_integral", None, None),
    "surface_ops.identity_residuals": ("surface_ops.identity_residuals",
                                       None, None),
}

# totals per pass: metric -> (span name, "self" or "duration")
TOTALS = {f"{name}.self_s": (name, "self") for name in (
    "pde_solvers.flux_divergence", "pde_solvers.fill_ghosts",
    "pde_solvers.blend", "chart_geometry.frame", "chart_geometry.metric",
    "variational_checks.action_first_variation",
    "variational_checks.varied_atlas",
    "variational_checks.gradient_flux_energy",
    "fields.d", "surface_ops.stress_divergence", "fluid_models.residuals",
    "fluid_models.thermo", "evolving_surface.advance_flow",
    "evolving_surface.transport_checks", "evolving_surface.integrate_grid",
    "evolving_surface.fd_derivative", "config.load_scenario")}
TOTALS["pde_solvers.build_s"] = ("pde_solvers.build", "duration")
TOTALS["chart_geometry.rule.build_s"] = ("chart_geometry.rule", "duration")
SUITES = ("verify-geometry", "verify-identities", "residuals", "transport",
          "conservation-report", "check-variations", "check-representations")
for _suite in SUITES:
    TOTALS[f"cli_runner.suite.{_suite}.s"] = (f"cli_runner.suite.{_suite}",
                                              "duration")

# counters per pass: metric -> key in the pass's counts
COUNTS = {
    "chart_geometry.frame.points": "frame_points",
    "expressions.evaluate.nodes": "evaluate_nodes",
    "expressions.call.evals": "call_evals",
    "expressions.diff.nodes": "diff_nodes",
    "evolving_surface.advance_flow.steps": "flow_steps",
}


def _metric_hits(spans, phase):
    """(metric calls, frames built inside them, calls that built no frame)."""
    frames = Counter(s[3] for s in spans if s[0] == "chart_geometry.frame")
    calls = built = hits = 0
    for idx, s in enumerate(spans):
        if s[0] != "pde_solvers.metric":
            continue
        if phase is not None and phase not in _ancestors(spans, idx):
            continue
        calls += 1
        built += frames[idx]
        hits += frames[idx] == 0
    return calls, built, hits


def layer_metrics(passes):
    """Per-layer metrics from traced passes, each ``{"spans", "counts"}``,
    and a label per ``ms_tail`` metric naming its percentile.

    Totals and counts (calls too) are medians over passes; per-call timings
    pool the calls of every pass.  A layer a workload does not reach reads 0.
    """
    out, labels = {}, {}
    per_pass = [(p["spans"], self_times(p["spans"]), p["counts"])
                for p in passes]

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    for metric, (name, kind) in TOTALS.items():
        vals = []
        for spans, selfs, _ in per_pass:
            vals.append(sum((selfs[i] if kind == "self" else s[2] - s[1])
                            for i, s in enumerate(spans) if s[0] == name))
        out[metric] = (median(vals), "s")
    for prefix, (name, need, skip) in PER_CALL.items():
        durations, calls = [], []
        for spans, _, _ in per_pass:
            calls.append(0)
            for idx, s in enumerate(spans):
                if s[0] != name:
                    continue
                anc = set(_ancestors(spans, idx))
                if (need and need not in anc) or (skip and skip in anc):
                    continue
                durations.append(1e3 * (s[2] - s[1]))
                calls[-1] += 1
        p50, tail, pct, n = tail_percentile(durations)
        out[f"{prefix}.ms_p50"] = (p50, "ms")
        out[f"{prefix}.ms_tail"] = (tail, "ms")
        out[f"{prefix}.calls"] = (median(calls), "count")
        labels[f"{prefix}.ms_tail"] = f"p{pct:g} of {n} calls"
    for metric, key in COUNTS.items():
        out[metric] = (median([c.get(key, 0) for _, _, c in per_pass]),
                       "count")
    out["chart_geometry.frame.calls"] = (median(
        [sum(s[0] == "chart_geometry.frame" for s in spans)
         for spans, _, _ in per_pass]), "count")
    for suffix, phase in (("", None), ("_moving", "bench.diffusion_moving")):
        stats = [_metric_hits(spans, phase) for spans, _, _ in per_pass]
        if not suffix:
            out["pde_solvers.metric.calls"] = (
                median([c for c, _, _ in stats]), "count")
            out["pde_solvers.metric.frames_built"] = (
                median([b for _, b, _ in stats]), "count")
        calls = sum(c for c, _, _ in stats)
        hits = sum(h for _, _, h in stats)
        out[f"pde_solvers.metric.hit_ratio{suffix}"] = (
            hits / calls if calls else 0.0, "ratio")
    return out, labels
