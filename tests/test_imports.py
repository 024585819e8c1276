"""The package runs without scipy: every module, a scenario, the CLI and the
grid solvers' steps, in a fresh interpreter where importing scipy raises
(this test session has already imported scipy as a test oracle).  No
module imports a name it never reads, and every import is at module level."""

import ast
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
    assert all(np.all(np.isfinite(a)) for a in (heat.values, baro.values))
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


def _unused_imports(tree):
    """Names bound by the module-level imports of ``tree`` that the module
    never reads and does not list in ``__all__``."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy as np\n"
                     "from .a import b, c as d\n"
                     "import x.y\n"
                     "__all__ = ['b']\n"
                     "np.zeros(x.y)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "d")]


def test_no_unused_module_imports():
    found = {path.name: _unused_imports(ast.parse(path.read_text()))
             for path in sorted((SRC / "surfcalc").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def _function_level_imports(tree):
    """``(line, function name)`` of each import inside a ``def`` of ``tree``."""
    return sorted((node.lineno, fn.name) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_function_level_import_is_found():
    tree = ast.parse("import os\n"
                     "def f():\n"
                     "    import csv\n"
                     "    def g():\n"
                     "        from . import a\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        import json\n")
    assert _function_level_imports(tree) == [(3, "f"), (5, "f"), (5, "g"),
                                             (8, "m")]


def test_no_function_level_imports():
    found = {path.name: _function_level_imports(ast.parse(path.read_text()))
             for path in sorted((SRC / "surfcalc").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
