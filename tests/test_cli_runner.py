import importlib.resources as resources
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from surfcalc import cli_runner, evolving_surface, surface_ops
from surfcalc.cli_runner import _row, _slope_row, _write_csv, main
from surfcalc.config import load_scenario
from surfcalc.variational_checks import _ladder_report


def scenario_path(name):
    return str(resources.files("surfcalc") / "scenarios" / name)


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    out = runner.invoke(main, ["version"])
    assert out.exit_code == 0
    assert out.output.strip()


def test_list_builtins(runner):
    out = runner.invoke(main, ["list-builtins"])
    assert out.exit_code == 0
    for word in ("sphere(R=1.0)", "torus", "dilation", "quadratic",
                 "power(a=1.0, gamma=1.4)", "verify-geometry",
                 "conservation-report"):
        assert word in out.output


def test_moving_chart_pass_checks_material_identities_only(monkeypatch):
    """verify-identities builds the stress once per family and reference
    chart (4 x 2 on sphere_identities); the moving-chart pass adds none."""
    calls = []
    original = surface_ops.stress_dual

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(surface_ops, "stress_dual", counting)
    scn = load_scenario(scenario_path("sphere_identities.cfg"))
    rows, _ = cli_runner.suite_verify_identities(scn, np.random.default_rng(0))
    assert len(calls) == 8
    checks = {r["check"] for r in rows}
    assert {"transport_commutation_scalar",
            "transport_commutation_momentum"} <= checks


def test_run_identities_scenario(runner, tmp_path):
    out_dir = tmp_path / "out"
    out = runner.invoke(main, ["run", scenario_path("sphere_identities.cfg"),
                               "--out", str(out_dir)])
    assert out.exit_code == 0, out.output
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is True
    assert set(summary["suites"]) == {"verify-geometry", "verify-identities",
                                      "residuals"}
    for suite, data in summary["suites"].items():
        assert data["pass"] is True
        assert (out_dir / f"{suite}.csv").exists()


def test_suite_override(runner, tmp_path):
    out_dir = tmp_path / "out"
    out = runner.invoke(main, ["run", scenario_path("sphere_identities.cfg"),
                               "--suite", "verify-geometry",
                               "--out", str(out_dir)])
    assert out.exit_code == 0, out.output
    summary = json.loads((out_dir / "summary.json").read_text())
    assert list(summary["suites"]) == ["verify-geometry"]


def test_run_transport_scenario(runner, tmp_path):
    out_dir = tmp_path / "out"
    out = runner.invoke(main, ["run", scenario_path("dilating_sphere_mass.cfg"),
                               "--out", str(out_dir)])
    assert out.exit_code == 0, out.output
    assert (out_dir / "transport_mass.csv").exists()


def test_transport_checks_share_probe_steps(monkeypatch):
    """The Jacobian-rate and transport-theorem checks read one pair of
    probe steps: 25 flow steps and 2 probes (4 probes built them twice), and
    each row equals the check run on probe steps built for it alone."""
    steps = []
    flow_step = evolving_surface._flow_step

    def counting(*args):
        steps.append(args[2])
        return flow_step(*args)

    checked = {}
    for name in ("jacobian_rate_check", "transport_theorem_check"):
        def recording(*args, _check=getattr(cli_runner, name), **kwargs):
            checked[_check] = args
            return _check(*args, **kwargs)
        monkeypatch.setattr(cli_runner, name, recording)
    monkeypatch.setattr(evolving_surface, "_flow_step", counting)
    rows, _ = cli_runner.suite_transport(
        load_scenario(scenario_path("dilating_sphere_mass.cfg")),
        np.random.default_rng(0))
    assert len(steps) == 27 and steps[-2:] == [1e-3, -1e-3]
    monkeypatch.undo()
    values = {r["check"]: r["value"] for r in rows}
    assert [check(*args[:-1], evolving_surface.probe_steps(*args[:2]))
            for check, args in checked.items()] == [
        values["jacobian_rate_residual"], values["transport_theorem_residual"]]


def test_repeated_runs_are_identical(runner, tmp_path):
    """Bundled scenarios are deterministic: repeated runs give byte-identical
    summaries."""
    texts = []
    for k in range(2):
        out_dir = tmp_path / f"out{k}"
        out = runner.invoke(main, ["run", scenario_path("sphere_identities.cfg"),
                                   "--out", str(out_dir)])
        assert out.exit_code == 0, out.output
        texts.append((out_dir / "summary.json").read_bytes())
    assert texts[0] == texts[1]


def test_malformed_scenario_fails_cleanly(runner, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = broken\nsuite = transport\n")
    out = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert "surface.kind" in out.output


def test_unknown_suite_rejected(runner, tmp_path):
    out = runner.invoke(main, ["run", scenario_path("sphere_identities.cfg"),
                               "--suite", "warp",
                               "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert "unknown suite" in out.output


def test_unknown_suite(runner, tmp_path):
    """A suite name from the file is checked against the suite table, and the
    error points at the file's line."""
    cfg = tmp_path / "warp.cfg"
    cfg.write_text("name = x\nsuite = warp\nsurface.kind = sphere\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert "unknown suite" in out.output
    assert f"{cfg}:2" in out.output


def test_misspelled_key_is_an_error(runner, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("name = typo\nsuite = residuals\nsurface.kind = sphere\n"
                   "samples = 20\ntol.equivalnce = 1e-9\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert "tol.equivalnce" in out.output
    assert f"{cfg}:5" in out.output


def test_motion_u_is_an_error(runner, tmp_path):
    """A motion has no separate tangential part: ``motion.u`` is a key no
    suite reads, not a silently ignored setting."""
    cfg = tmp_path / "u.cfg"
    cfg.write_text("name = u\nsuite = verify-identities\nsurface.kind = sphere\n"
                   "motion.kind = rotation\nmotion.u = -x2, x1, 0\n"
                   "samples = 20\nfamilies = 1\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert "motion.u" in out.output
    assert f"{cfg}:5" in out.output


def test_parameter_of_another_builtin_is_an_error(runner, tmp_path):
    cfg = tmp_path / "plane.cfg"
    cfg.write_text("name = pl\nsuite = verify-geometry\nsurface.kind = plane\n"
                   "surface.R = 2\nsamples = 20\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert "surface.R" in out.output
    assert "TypeError" not in out.output


def test_failing_check_sets_exit_code(runner, tmp_path):
    strict = tmp_path / "strict.cfg"
    strict.write_text(
        "name = strict\nsuite = verify-geometry\nsurface.kind = sphere\n"
        "tol.area = 1e-15\n")
    out = runner.invoke(main, ["run", str(strict),
                               "--out", str(tmp_path / "o")])
    assert out.exit_code == 1
    assert "FAIL" in out.output


def test_raising_suite_leaves_a_summary(runner, tmp_path):
    """A suite that raises becomes one failed ``error`` row with the
    exception's type and text; the other suites still run, and the summary
    is written with ``pass: false``."""
    text = Path(scenario_path("heat_sphere.cfg")).read_text()
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(text.replace("dt = 5e-4", "dt = 0.01").replace(
        "suite = simulate-heat", "suite = verify-geometry, simulate-heat"))
    out_dir = tmp_path / "o"
    out = runner.invoke(main, ["run", str(cfg), "--out", str(out_dir)])
    assert out.exit_code == 1, out.output
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is False
    geometry = summary["suites"]["verify-geometry"]
    assert geometry["pass"] and len(geometry["checks"]) > 1
    heat = summary["suites"]["simulate-heat"]
    assert not heat["pass"] and len(heat["checks"]) == 1
    row = heat["checks"][0]
    assert row["check"] == "error" and not row["pass"]
    assert math.isnan(row["value"]) and row["tolerance"] == 0.0
    assert row["message"].startswith("StabilityViolation: ")
    assert row["message"] in out.output


def test_missing_slope_is_not_a_pass():
    fitted = _slope_row("slope", {"slope": 2.05, "floor_limited": False}, 0.1)
    assert fitted["pass"] and abs(fitted["value"] - 0.05) <= 1e-12
    missing = _slope_row("slope", {"slope": None, "floor_limited": False}, 0.1)
    assert not missing["pass"]
    drowned = _slope_row("slope", {"slope": None, "floor_limited": True}, 0.1)
    assert drowned["pass"] and drowned["inconclusive"]


def test_non_finite_value_fails():
    """-inf is below every tolerance, yet no check passes on a value that is
    not finite, unless its row is inconclusive."""
    assert not _row("x", -math.inf, 1.0)["pass"]
    assert not _row("x", math.nan, 1.0)["pass"]
    assert _row("x", 0.5, 1.0)["pass"]
    assert _row("x", math.inf, 0.1, inconclusive=True)["pass"]


def test_nan_ladder_is_not_inconclusive():
    """A ladder of NaN energies has no rung above its noise, but that is not
    a rounding floor: its slope row fails."""
    rep = _ladder_report(lambda e: (math.nan, math.nan), [1e-2, 3e-3], 1.0)
    assert rep["floor_limited"] is False
    row = _slope_row("slope", rep, 0.1)
    assert not row["pass"] and row["value"] == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residuals_fail(runner, tmp_path):
    """A density that is NaN at every node fails the equivalence checks that
    involve it; aggregated with the builtin max they would read 0 and pass."""
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("name = nan\nsuite = residuals\nsurface.kind = sphere\n"
                   "fields.rho = sqrt(x3 - 2)\n")
    out_dir = tmp_path / "o"
    out = runner.invoke(main, ["run", str(cfg), "--out", str(out_dir)])
    assert out.exit_code == 1, out.output
    rows = {r["check"]: r for r in json.loads(
        (out_dir / "summary.json").read_text())["suites"]["residuals"]["checks"]}
    for name in ("mass", "momentum", "energy"):
        row = rows[f"conservative_equivalence_{name}"]
        assert math.isnan(row["value"]) and not row["pass"]


@pytest.mark.parametrize("line, message", [
    ("T = 0", "T must be finite and > 0"),
    ("T = -0.4", "T must be finite and > 0"),
    ("nt = 3", "nt must be even and >= 2"),
    ("nt = 0", "nt must be even and >= 2"),
])
def test_variation_window_is_checked(runner, tmp_path, line, message):
    """A window with no length, or an odd Simpson count, is an error naming
    the line; T = 0 would pass on a vacuous ladder, and nt = 3 fail inside
    the quadrature without a line."""
    cfg = tmp_path / "window.cfg"
    cfg.write_text("name = w\nsuite = check-variations\nsurface.kind = torus\n"
                   f"motion.kind = dilation\n{line}\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0, out.output
    assert f"{cfg}:5: {message}" in out.output


def test_write_csv(tmp_path):
    """Strings and booleans are written as they are, every other cell as
    the repr of its float (full precision)."""
    path = tmp_path / "series.csv"
    _write_csv(path, ("t", "value", "pass"),
               [(0.0, 1.0, True), (np.float64(0.5), 1.0 / 3.0, False)])
    lines = path.read_text().strip().splitlines()
    assert lines == ["t,value,pass", "0.0,1.0,True",
                     f"0.5,{1.0 / 3.0!r},False"]


@pytest.mark.parametrize("line", ["T = inf", "T = nan", "T = 0",
                                  "dt = inf", "dt = nan", "dt = -1e-3"])
def test_time_window_is_checked(runner, tmp_path, line):
    """The step count round(T / dt) needs a finite, positive T and dt; any
    other value is an error naming the line, not an OverflowError."""
    cfg = tmp_path / "window.cfg"
    cfg.write_text("name = w\nsuite = transport\nsurface.kind = sphere\n"
                   f"motion.kind = dilation\n{line}\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0, out.output
    key = line.split()[0]
    assert f"{cfg}:5: {key} must be finite and > 0" in out.output


@pytest.mark.parametrize("lines", ["T = 0.5\ndt = 0.3", "T = 0.5\ndt = 0.6"])
def test_time_window_needs_whole_steps(runner, tmp_path, lines):
    """T must be a whole number of steps dt (to rounding): a run would
    otherwise end at steps * dt, not at T."""
    cfg = tmp_path / "window.cfg"
    cfg.write_text("name = w\nsuite = transport\nsurface.kind = sphere\n"
                   f"motion.kind = dilation\n{lines}\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0, out.output
    assert f"{cfg}:6: T = 0.5 is not a whole number of steps dt = " in out.output


def test_unfoldable_constant_names_the_line(runner, tmp_path):
    """A constant that cannot be folded (a division by zero) is a parse
    error of its key, reported with the file's line."""
    cfg = tmp_path / "z.cfg"
    cfg.write_text("name = z\nsuite = residuals\nsurface.kind = sphere\n"
                   "fields.rho = 1/0\n")
    out = runner.invoke(main, ["run", str(cfg), "--out", str(tmp_path / "o")])
    assert out.exit_code != 0
    assert f"{cfg}:4: bad expression for fields.rho" in out.output
