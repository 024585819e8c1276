"""Rule-wide frame work runs in node blocks of ``chart_geometry._BLOCK``:
every output is bit-identical however the nodes are cut, and the peak
memory of a check is that of one block and one chart's terms, not of
one whole chart's geometry."""

import ast
import os
import platform
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import surfcalc
from surfcalc import chart_geometry
from surfcalc.chart_geometry import (QuadratureRule, blockwise, integrate,
                                     metric_at, rule_sums, rule_terms)
from surfcalc.cli_runner import (suite_conservation_report,
                                 suite_verify_geometry)
from surfcalc.config import load_scenario
from surfcalc.evolving_surface import (dilation_density, motion_builtin,
                                       moving_atlas)
from surfcalc.fields import ScalarField
from surfcalc.fluid_models import (CoefficientFields, FluidFields,
                                   pressure_law_builtin)
from surfcalc.pde_solvers import flux_law_builtin
from surfcalc.surface_ops import ibp_residuals
from surfcalc.variational_checks import (VariationField,
                                         action_first_variation,
                                         action_integral,
                                         check_action_variation,
                                         check_dissipation_work_variation,
                                         check_energy_representations,
                                         check_flux_variation,
                                         dissipation_work_energy,
                                         gradient_flux_energy,
                                         jacobian_variation_residual,
                                         tangential_pairing_residual,
                                         time_window_variation, varied_atlas)

MOTIONS = ["static", "translation", "rotation", "dilation"]
WOBBLE = ("0.9*x3*x1 + 0.6*x1", "-0.6*x1 + 0.3*x3", "0.6*x3 + 0.3*x2*x2")


def test_blockwise_concatenates_node_slices(monkeypatch):
    monkeypatch.setattr(chart_geometry, "_BLOCK", 4)
    a = np.arange(22.0).reshape(2, 11)
    sizes = []

    def fn(x, y):
        sizes.append(y.shape[-1])
        return x * y + 1.0

    out = blockwise(fn, a, a[1])
    assert sizes == [4, 4, 3]
    assert out.shape == a.shape and np.array_equal(out, a * a[1] + 1.0)


def test_blockwise_holds_one_copy_of_its_result():
    """The blocks are written into one output made at the first block, so a
    fresh (k, n) result peaks at that output and one block: joining a list
    of blocks at the end held the result twice."""
    x = np.linspace(0.0, 1.0, 100_000)
    rows = np.arange(1.0, 9.0)
    nbytes = rows.size * x.size * 8
    tracemalloc.start()
    try:
        out = blockwise(lambda a: np.outer(rows, a), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, np.outer(rows, x))
    assert peak < 1.5 * nbytes, peak / nbytes


def test_rule_sums_drop_each_chart_before_the_next(sphere, monkeypatch):
    """At the first block of chart 1, the traced memory holds none of chart
    0's terms: ``rule_terms`` reduces a chart's terms before it computes the
    next chart."""
    monkeypatch.setattr(chart_geometry, "_BLOCK", 300)
    rule = QuadratureRule(sphere, order=24, periodic_order=48)
    rows = np.arange(1.0, 65.0)
    chart0_bytes = rows.size * rule.nodes[0][0].shape[1] * 8
    readings = []

    def fn(chart, X, w, psi):
        if chart is sphere.charts[1] and not readings:
            readings.append(tracemalloc.get_traced_memory()[0])
        return np.outer(rows, w * psi)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sums = rule_sums(sphere, rule, fn)
    finally:
        tracemalloc.stop()
    assert sums.shape == rows.shape
    assert readings[0] - base < chart0_bytes / 4, (readings[0] - base,
                                                   chart0_bytes)


def test_only_chart_geometry_calls_blockwise():
    """Every rule-wide loop goes through ``rule_terms``: no other module
    cuts node blocks itself."""
    callers = set()
    for path in Path(surfcalc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "blockwise" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.add(path.stem)
    assert callers == {"chart_geometry"}


def test_rule_sums_add_whole_chart_sums_in_chart_order(sphere, torus,
                                                      monkeypatch):
    """At 97-node blocks each row of ``rule_sums`` is the float sum of that
    row over each whole chart, added chart by chart; ``rule_terms`` hands
    each chart its own ``per_chart`` array."""
    monkeypatch.setattr(chart_geometry, "_BLOCK", 97)

    def fn(chart, X, w, psi, extra):
        st = metric_at(chart, X, 0.3)
        return np.stack([w * psi * st.sqrtJ, extra * np.sin(X[0]) * w,
                         psi * st.x[2] - extra])
    for atlas in (sphere, torus):
        rule = QuadratureRule(atlas, order=24, periodic_order=48)
        extras = [np.cos(X[1]) for X, _, _ in rule.nodes]
        whole = [fn(chart, X, w, psi, e) for chart, (X, w, psi), e
                 in zip(atlas.charts, rule.nodes, extras)]
        cut = rule_terms(np.copy, atlas, rule, fn, extras)
        assert all(np.array_equal(a, b)
                   for a, b in zip(cut, whole, strict=True))
        want = [0.0] * 3
        for terms in whole:
            want = [s + float(np.sum(row)) for s, row in zip(want, terms)]
        got = rule_sums(atlas, rule, lambda chart, X, w, psi: fn(
            chart, X, w, psi, np.cos(X[1])))
        assert [float(s) for s in got] == want


def _stress_integral(atlas_name, motion, tmp_path):
    """The stress-divergence row of the conservation report on a 24/48 rule."""
    cfg = tmp_path / "stress.cfg"
    cfg.write_text("\n".join([
        "name = blocks", "suite = conservation-report",
        f"surface.kind = {atlas_name}", f"motion.kind = {motion}",
        "resolution = 16, 32", "dt = 0.05", "T = 0.05", "stress_draws = 2",
        "quadrature.order = 24", "quadrature.periodic_order = 48"]))
    rows, _ = suite_conservation_report(load_scenario(cfg),
                                        np.random.default_rng(3))
    return [r for r in rows if r["check"] == "stress_divergence_integral"]


def _blocked_outputs(surface, atlas, motion_name, law, tmp_path):
    """Every output of the functions that evaluate a rule in node blocks."""
    rule = QuadratureRule(atlas, order=24, periodic_order=48)
    motion = motion_builtin(motion_name)
    mov = moving_atlas(atlas, motion)
    var = time_window_variation(WOBBLE, 0.4)
    rho0 = "1 + 0.2*x3"
    out = {
        "action_first_variation": action_first_variation(
            atlas, motion, var, rho0, 0.4, law=law, rule=rule, nt=2),
        "action_integral": action_integral(
            varied_atlas(mov, var, 1e-3), motion_builtin("static"), rho0, 0.4,
            law=law, rule=rule, nt=2),
        "check_action_variation": check_action_variation(
            atlas, motion, var, rho0=rho0, T=0.4, law=law,
            eps_list=(1e-2, 3e-3), rule=rule, nt=2),
    }
    rho_ref = ScalarField("2 + 0.3*x3 - 0.1*x1*x2")
    fields = FluidFields(
        rho=dilation_density(rho_ref) if motion_name == "dilation" else rho_ref,
        v=motion.velocity, sigma="0.3*x1 - x2*x3", e="1 + 0.2*x2",
        theta="x1*x2 + 0.5*x3", C="0.4*x3*x3 - x1")
    coeffs = CoefficientFields(mu=1.0, lam=0.5, kappa=1.2, nu=0.8,
                               F=("0.1", "-0.2*x3", "0.3*x2"))
    out["check_energy_representations"] = check_energy_representations(
        atlas, motion, fields, coeffs, t=0.3, law=law,
        flux=flux_law_builtin("quadratic"), rule=rule)
    if law is not None:
        return out
    # the rest does not read a pressure law
    out["psi"] = [psi.tobytes() for _, _, psi in rule.nodes]
    out["integrate"] = integrate("1 + x1*x3 - 0.2*x2", mov, rule, t=0.3)
    direction = VariationField(WOBBLE)
    out["initial_residual"] = direction.initial_residual(mov, rule, t0=0.3)
    out["tangency_residual"] = direction.tangency_residual(mov, rule, t=0.3)
    out["tangential_pairing_residual"] = tangential_pairing_residual(
        WOBBLE, ("x2*x3", "sin(x1)", "x1*x1 - 0.3*x2"), mov, rule, t=0.3)
    out["jacobian_variation_residual"] = jacobian_variation_residual(
        atlas, motion, var, 0.2, rule=rule)
    f, phi = "x1*x2 + sin(x3) + 2*x3", "0.5*x1 + x2*x3"
    for name in ("linear", "quadratic"):
        flux = flux_law_builtin(name)
        out["check_flux_variation", name] = check_flux_variation(
            f, flux, phi, mov, rule=rule, t=0.3)
        out["gradient_flux_energy", name] = gradient_flux_energy(
            f, flux, mov, rule, 0.3)
    v = ("x2*x3", "sin(x1)", "x1*x1 - 0.3*x2")
    args = (v, "x3*x1 + 1", 1.0, 0.5, "2 + 0.5*x3", ("0.1", "-0.2*x3", "0.3*x2"))
    out["dissipation_work_energy"] = dissipation_work_energy(
        *args, mov, rule, t=0.3)
    for tangential in (False, True):
        out["check_dissipation_work_variation", tangential] = (
            check_dissipation_work_variation(
                *args, VariationField(("0.4*x3 + x1*x2", "cos(x2)", "0.2 - x1"),
                                      tangential=tangential),
                mov, rule=rule, t=0.3))
    for m in range(3):
        out["ibp_residuals", m] = ibp_residuals(
            "x1*x3 + cos(x2)", ("x2", "x3*x1", "0.5 - x1"), mov, rule, t=0.3,
            m=m)
    out["stress_divergence_integral"] = _stress_integral(surface, motion_name,
                                                         tmp_path)
    return out


@pytest.mark.parametrize("law", [None, "quadratic"])
@pytest.mark.parametrize("motion", MOTIONS)
@pytest.mark.parametrize("surface", ["sphere", "torus"])
def test_blocked_rule_evaluation_is_bit_identical(surface, motion, law,
                                                  request, monkeypatch,
                                                  tmp_path):
    """Blocks of 97 and 1000 nodes (neither divides a chart's node count)
    give the same bits as one block per chart."""
    atlas = request.getfixturevalue(surface)
    law = law and pressure_law_builtin(law)
    nodes = max(X.shape[1] for X, _, _ in
                QuadratureRule(atlas, order=24, periodic_order=48).nodes)
    monkeypatch.setattr(chart_geometry, "_BLOCK", nodes)
    whole = _blocked_outputs(surface, atlas, motion, law, tmp_path)
    for block in (97, 1000):
        assert nodes % block
        monkeypatch.setattr(chart_geometry, "_BLOCK", block)
        cut = _blocked_outputs(surface, atlas, motion, law, tmp_path)
        assert cut.keys() == whole.keys()
        for key in whole:
            assert cut[key] == whole[key], (block, key)


def _peak_mib(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _scenario_path(name):
    return resources.files("surfcalc") / "scenarios" / f"{name}.cfg"


def _dense_scenario(name, tmp_path):
    """The path of bundled scenario ``name`` with the dense two-band rule of
    the ``sphere_rule_dense`` fixture as its ``quadrature``."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(_scenario_path(name).read_text()
                    + "\nquadrature.order = 160\nquadrature.periodic_order = 384\n")
    return str(path)


def test_dense_rule_checks_peak_at_one_block(sphere, sphere_rule_dense,
                                             tmp_path):
    """On the 61,440-node charts of the dense two-band sphere rule the flux
    ladder, the action variation, the area integral, the rule's own
    partition of unity and two rule-wide suites hold one block's geometry
    and one chart's terms at a time.  Each bound is the measured peak plus
    about 10%: 12.3, 8.1, 3.4, 5.5, 7.8 and 18.0 MiB.  Two charts' terms,
    and a chart's terms held twice, peaked at 13.5, 9.2, 3.7, 5.4, 8.2 and
    21.3 MiB; one whole chart's geometry at a time, at 31.9, 10.0, 36.4 and
    26.4 MiB on the last four.  Two one-time imports are warmed first, so
    that no check counts them: numpy.random (the suites' generator, 0.8 MiB)
    and numpy.polynomial (``leggauss``, 0.6 MiB); unwarmed, the report read
    19.85 MiB as the first call of a fresh process."""
    np.random.default_rng(0)
    np.polynomial.legendre.leggauss(2)
    flux_peak = _peak_mib(lambda: check_flux_variation(
        "x1 + 2*x3", flux_law_builtin("quadratic"), "0.5*x1 + x2*x3", sphere,
        rule=sphere_rule_dense))
    var = time_window_variation(WOBBLE, 0.4)
    action_peak = _peak_mib(lambda: action_first_variation(
        sphere, motion_builtin("dilation"), var, "1 + 0.2*x3", 0.4,
        law=pressure_law_builtin("quadratic"), rule=sphere_rule_dense, nt=2))
    assert flux_peak <= 13.4, flux_peak
    assert action_peak <= 8.9, action_peak
    area_peak = _peak_mib(lambda: integrate(1.0, sphere, sphere_rule_dense))
    rule_peak = _peak_mib(lambda: QuadratureRule(sphere, 160, 384))
    geometry_peak = _peak_mib(lambda: suite_verify_geometry(
        load_scenario(_dense_scenario("sphere_identities", tmp_path)),
        np.random.default_rng(0)))
    report_peak = _peak_mib(lambda: suite_conservation_report(
        load_scenario(_dense_scenario("conservation_translation", tmp_path)),
        np.random.default_rng(0)))
    assert area_peak <= 3.7, area_peak
    assert rule_peak <= 6.0, rule_peak
    assert geometry_peak <= 8.6, geometry_peak
    assert report_peak <= 19.8, report_peak


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's heap-trim threshold")
def test_blocks_reuse_the_heap_the_last_block_freed(tmp_path):
    """In a fresh process the conservation report's minor page faults stay
    near those of its peak working set: on the dense two-band rule each
    block of the stress integral reuses the heap of the block before (with
    that heap trimmed after every block, the report took about 48,000
    faults)."""
    cfg = _dense_scenario("conservation_translation", tmp_path)
    code = ("import resource, numpy as np\n"
            "from surfcalc.cli_runner import suite_conservation_report\n"
            "from surfcalc.config import load_scenario\n"
            f"scn = load_scenario({cfg!r})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "suite_conservation_report(scn, np.random.default_rng(0))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    path = os.pathsep.join([str(Path(surfcalc.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert int(out.stdout) <= 15_000, out.stdout
