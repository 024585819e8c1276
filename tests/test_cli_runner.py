import importlib.resources as resources
import json
import math

import pytest
from click.testing import CliRunner

from surfcalc.cli_runner import _row, _slope_row, main
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
