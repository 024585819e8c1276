"""Self-tests: the check gate, self time on a span tree, the tracer's
wrappers, the speed sampler, the per-layer metric names, the seed's effect on
inputs, and the solver checks' power to catch an operator error."""

import json
import math
import time

import numpy as np
import pytest

from run import HERE, tally, verdict
from speed import PERIOD_S, SpeedSampler
from tracer import Tracer, layer_metrics, self_times, tail_percentile


def test_gate_fails_nan_inf_and_over_tolerance():
    assert verdict(1e-9, 1e-8)
    assert verdict(1e-8, 1e-8)
    assert not verdict(2e-8, 1e-8)
    assert not verdict(math.nan, 1e-8)
    assert not verdict(math.inf, 1e-8)
    assert not verdict(-math.inf, 1e-8)
    checks = [["ok", 0.0, 1.0, False], ["nan", math.nan, 1.0, False],
              ["inf", math.inf, 1.0, False], ["big", 2.0, 1.0, False],
              ["floor", 0.5, 1.0, True], ["floor_big", 3.0, 1.0, True]]
    run, failed, inconclusive = tally(checks)
    assert run == 6
    assert failed == ["nan", "inf", "big", "floor_big"]
    assert inconclusive == 2


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 3] and [2, 4] (overlapping: they cover
    # [1, 4]) and [5, 6]; a grandchild [5.2, 5.7] and a child running past
    # the root's end are clipped to their parent
    spans = [["root", 0.0, 10.0, None, 0],
             ["a", 1.0, 3.0, 0, 0],
             ["b", 2.0, 4.0, 0, 0],
             ["c", 5.0, 6.0, 0, 0],
             ["c1", 5.2, 5.7, 3, 0],
             ["late", 9.5, 11.0, 0, 0],
             ["other", 20.0, 21.0, None, 1]]
    got = self_times(spans)
    want = [10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.5, 0.5, 1.5, 1.0]
    assert got == pytest.approx(want)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile([]) == (0.0, 0.0, 50.0, 0)
    p50, tail, pct, n = tail_percentile([3.0, 1.0, 2.0])
    assert (p50, tail, pct, n) == (2.0, 2.0, 50.0, 3)
    p50, tail, pct, n = tail_percentile(list(range(1, 101)))
    assert (pct, n) == (90.0, 100)
    assert tail == 90
    assert p50 == 50.5


def test_tracer_wraps_imported_names_and_restores_them():
    from surfcalc import chart_geometry, cli_runner, evolving_surface
    from surfcalc import pde_solvers

    originals = (pde_solvers.fd_derivative, cli_runner.identity_residuals,
                 dict(cli_runner._SUITE_FUNCS), chart_geometry.Chart.frame)
    tracer = Tracer()
    tracer.install()
    try:
        assert pde_solvers.fd_derivative is not originals[0]
        assert evolving_surface.fd_derivative is pde_solvers.fd_derivative
        assert cli_runner.identity_residuals is not originals[1]
        chart = chart_geometry.sphere_atlas().charts[0]
        with tracer.span("bench.probe"):
            chart.frame(np.array([1.0, 1.2, 1.4]), np.array([0.5, 0.6, 0.7]))
    finally:
        tracer.uninstall()
    assert (pde_solvers.fd_derivative, cli_runner.identity_residuals,
            cli_runner._SUITE_FUNCS, chart_geometry.Chart.frame) == originals
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["bench.probe", "chart_geometry.frame"]
    assert tracer.spans[1][3] == 0
    assert tracer.counts["frame_points"] == 3
    assert tracer.counts["evaluate_nodes"] > 0


def test_speed_sampler_samples_each_phase():
    sampler = SpeedSampler().start()
    try:
        start = time.monotonic()
        while time.monotonic() - start < 20 * PERIOD_S:
            pass
        middle = time.monotonic()
        while time.monotonic() - middle < 20 * PERIOD_S:
            pass
    finally:
        sampler.stop()
    mean, total = sampler.phase(middle, time.monotonic())
    assert 0.0 < mean <= total
    assert total < PERIOD_S * 20
    with pytest.raises(RuntimeError):
        sampler.phase(0.0, 0.0)


def test_layer_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    got = set(layer_metrics([{"spans": [], "counts": {}}])[0])
    assert got | {"tracing.overhead_s"} == names


@pytest.mark.parametrize("workload", ["solver", "scenarios"])
def test_seed_changes_inputs_not_verdicts(workload):
    from workloads import run_pass

    a, b = run_pass(workload, 0), run_pass(workload, 1)
    assert [n for n, *_ in a["checks"]] == [n for n, *_ in b["checks"]]
    assert [v for _, v, *_ in a["checks"]] != [v for _, v, *_ in b["checks"]]
    if workload == "solver":
        assert a["inputs"] != b["inputs"]
    assert tally(a["checks"])[1] == tally(b["checks"])[1]


def test_solver_checks_catch_a_one_percent_operator_error():
    from surfcalc.pde_solvers import flux_law_builtin
    from workloads import setup_solver, solve_solver, _NoTrace

    state = setup_solver(0)
    state["flux"] = flux_law_builtin("linear", kappa=1.01)
    checks, _ = solve_solver(state, _NoTrace())
    failed = tally(checks)[1]
    assert "heat_error_over_change" in failed
    assert "diffusion_error_over_change" in failed
