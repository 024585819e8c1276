"""The package runs without scipy: every module, a scenario, the CLI and the
grid solvers' steps, in a fresh interpreter where importing scipy raises
(this test session has already imported scipy as a test oracle)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent("""
    import importlib, pkgutil, sys, tempfile
    from pathlib import Path

    sys.modules["scipy"] = None  # any scipy import raises ImportError

    import numpy as np
    import surfcalc
    for mod in pkgutil.iter_modules(surfcalc.__path__):
        importlib.import_module(f"surfcalc.{mod.name}")
    from surfcalc.chart_geometry import sphere_atlas
    from surfcalc.cli_runner import main
    from surfcalc.fluid_models import CoefficientFields, pressure_law_builtin
    from surfcalc.pde_solvers import (GridField, SurfaceGridSolver,
                                      flux_law_builtin,
                                      step_barotropic_tangential, step_heat)

    cfg = Path(surfcalc.__file__).parent / "scenarios" / "sphere_identities.cfg"
    with tempfile.TemporaryDirectory() as out:
        for argv in (["run", str(cfg), "--out", out], ["list-builtins"]):
            try:
                main(argv, standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0, (argv, exc.code)

    solver = SurfaceGridSolver(sphere_atlas(), (8, 16))
    xs = solver.positions(0.0)
    heat = step_heat(solver, GridField([1.0 + 0.1 * x[2] for x in xs], 0.0),
                     CoefficientFields(), flux_law_builtin("linear"), 1e-4)
    # density 2 + 0.2 x3 and the rigid rotation (-0.3 x2, 0.3 x1, 0)
    baro = step_barotropic_tangential(
        solver, GridField([np.stack([2.0 + 0.2 * x[2], -0.3 * x[1],
                                     0.3 * x[0], 0.0 * x[0]]) for x in xs],
                          0.0),
        pressure_law_builtin("linear"), 1e-4)
    assert all(np.all(np.isfinite(a)) for a in heat.values + baro.values)
    # the blocking entry is the one scipy key, and it is still the block
    assert [k for k in sys.modules if k.split(".")[0] == "scipy"] == ["scipy"]
    assert sys.modules["scipy"] is None
    print("ok")
""")


def test_runtime_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", CHILD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "ok"
