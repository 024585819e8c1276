"""Cold start: scipy.sparse loads with the first grid solver, not with the
package.  Runs in a fresh interpreter, since this test session has already
imported scipy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent("""
    import importlib, pkgutil, sys, tempfile
    from pathlib import Path

    import surfcalc
    for mod in pkgutil.iter_modules(surfcalc.__path__):
        importlib.import_module(f"surfcalc.{mod.name}")
    from surfcalc.cli_runner import main

    cfg = Path(surfcalc.__file__).parent / "scenarios" / "sphere_identities.cfg"
    with tempfile.TemporaryDirectory() as out:
        for argv in (["run", str(cfg), "--out", out], ["list-builtins"]):
            try:
                main(argv, standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0, (argv, exc.code)
    assert "scipy.sparse" not in sys.modules

    from surfcalc.chart_geometry import sphere_atlas
    from surfcalc.pde_solvers import SurfaceGridSolver

    solver = SurfaceGridSolver(sphere_atlas(), (8, 16))
    assert "scipy.sparse" in sys.modules
    assert all(op.format == "csr" for _, op, _ in solver.ghost_ops)
    print("ok")
""")


def test_scipy_sparse_loads_with_first_solver():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", CHILD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "ok"
