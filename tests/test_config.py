import importlib.resources as resources
import re

import pytest

from surfcalc.cli_runner import _SUITE_FUNCS
from surfcalc.config import ConfigError, load_scenario, parse_config


def write(tmp_path, text, name="scn.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = """\
# comment line
name = demo
suite = transport, verify-geometry
surface.kind = sphere
surface.R = 1.5
motion.kind = dilation
fields.rho0 = 1 + 0.3*x3
resolution = 32, 64
dt = 0.01
T = 0.2
tol.mass = 1e-9
seed = 3
"""


def test_parse_config_basics():
    entries = parse_config(GOOD)
    assert entries["name"] == ("demo", 2)
    assert entries["surface.R"] == ("1.5", 5)


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("name demo")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("a = 1\na = 2")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("= 1")


def test_scenario_accessors(tmp_path, rng):
    scn = load_scenario(write(tmp_path, GOOD))
    assert scn.name == "demo"
    assert scn.suites() == ["transport", "verify-geometry"]
    assert scn.get_float("surface.R") == 1.5
    assert scn.resolution() == (32, 64)
    assert scn.time_window() == (0.01, 0.2)
    assert scn.seed() == 3
    assert scn.tolerance("mass", 1e-6) == 1e-9
    assert scn.tolerance("other", 1e-6) == 1e-6
    atlas = scn.build_surface()
    assert len(atlas.charts) == 2
    motion = scn.build_motion()
    assert motion.name == "dilation"
    rho0 = scn.get_scalar_field("fields.rho0")
    import numpy as np
    x = rng.uniform(-1, 1, (3, 5))
    assert np.allclose(rho0.value(x), 1 + 0.3 * x[2])


def test_missing_name(tmp_path):
    with pytest.raises(ConfigError, match="name"):
        load_scenario(write(tmp_path, "suite = transport\n"))


def test_bad_values(tmp_path):
    scn = load_scenario(write(
        tmp_path, "name = x\nsurface.kind = sphere\nsurface.R = big\n"
                  "fields.f = sin(\nfields.v = x1, x2\n"))
    with pytest.raises(ConfigError, match="must be a number"):
        scn.build_surface()
    with pytest.raises(ConfigError, match="bad expression"):
        scn.get_scalar_field("fields.f")
    with pytest.raises(ConfigError, match="3 comma-separated"):
        scn.get_vector_field("fields.v")


def test_missing_required_key(tmp_path):
    scn = load_scenario(write(tmp_path, "name = x\n"))
    with pytest.raises(ConfigError, match="surface.kind"):
        scn.build_surface()


def test_surface_builtins(tmp_path):
    """``surface.kind`` picks a builtin surface; an unknown kind is an error
    naming the file and line."""
    for kind, extra, charts in (("sphere", "surface.R = 2\n", 2),
                                ("torus", "", 1), ("plane", "", 1)):
        scn = load_scenario(write(tmp_path, f"name = x\nsurface.kind = {kind}\n"
                                            + extra))
        assert len(scn.build_surface().charts) == charts
    path = write(tmp_path, "name = x\nsuite = verify-geometry\n"
                           "surface.kind = mobius\n")
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}:3: unknown surface 'mobius'")):
        load_scenario(path).build_surface()


def test_law_builders(tmp_path):
    scn = load_scenario(write(
        tmp_path, "name = x\npressure.kind = power\npressure.gamma = 1.4\n"
                  "flux.kind = linear\nflux.kappa = 2.0\n"))
    law = scn.build_pressure_law()
    assert law.name == "power"
    flux = scn.build_flux_law()
    assert flux.density(1.0) == pytest.approx(2.0)


def test_bundled_scenarios_load_and_validate():
    root = resources.files("surfcalc") / "scenarios"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))
    assert "sphere_identities.cfg" in names
    assert "dilating_sphere_mass.cfg" in names
    for name in names:
        scn = load_scenario(str(root / name))
        assert scn.suites() and set(scn.suites()) <= set(_SUITE_FUNCS)
        scn.build_surface()
        scn.build_motion()


@pytest.mark.parametrize("value", ["1e-2", "1e-2, 0.01", "1e-2, -1e-3",
                                   "1e-2, 0", "1e-2, inf", "1e-2, nan"])
def test_eps_ladder_needs_two_distinct_positive_values(tmp_path, value):
    """A one-rung, repeated, non-positive or non-finite ladder is an error
    naming the line, not a crash inside the ladder report."""
    path = write(tmp_path, f"name = x\neps = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: eps needs")):
        load_scenario(path).eps_ladder()
    scn = load_scenario(write(tmp_path, "name = x\neps = 3e-3, 1e-3\n"))
    assert scn.eps_ladder() == (3e-3, 1e-3)


@pytest.mark.parametrize("key", ["order", "periodic_order"])
@pytest.mark.parametrize("value", [0, -4])
def test_quadrature_orders_below_one_are_errors(tmp_path, key, value):
    """An order below 1 is an error naming the line; it does not fall back
    to the default order."""
    path = write(tmp_path, f"name = x\nquadrature.{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}:2: quadrature.{key} must be >= 1")):
        load_scenario(path).quadrature()
    scn = load_scenario(write(tmp_path, f"name = x\nquadrature.{key} = 1\n"))
    assert scn.quadrature() == {"order": (1, 2),
                                "periodic_order": (32, 1)}[key]
