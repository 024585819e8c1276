"""The public names of the package resolve, and so do the layer boundaries
the benchmark's tracer wraps: a deleted or renamed function fails here, not
first in a traced benchmark pass."""

import ast
import importlib
import inspect
import operator
import pkgutil
from pathlib import Path

import pytest

import surfcalc

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _modules():
    return [importlib.import_module(f"surfcalc.{m.name}")
            for m in pkgutil.iter_modules(surfcalc.__path__)]


def _tracer_constant(name):
    """The tracer's constant ``name``, read from its source without
    importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACER}")


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, missing


@pytest.mark.skipif(not TRACER.exists(), reason="no benchmark/tracer.py")
def test_traced_spans_exist():
    """Each span resolves, and a method sits in its own class's ``__dict__``,
    where the tracer reads it: an inherited one raises ``KeyError`` there.
    So does each wrapped expression node's ``evaluate`` and ``diff``."""
    spans = _tracer_constant("SPANS")
    assert spans
    for module, attr, _, _ in spans:
        mod = importlib.import_module(f"surfcalc.{module}")
        operator.attrgetter(attr)(mod)  # AttributeError names what is gone
        *outer, name = attr.split(".")
        if outer:
            assert name in operator.attrgetter(".".join(outer))(mod).__dict__, attr
    expressions = importlib.import_module("surfcalc.expressions")
    for cls in _tracer_constant("_NODE_CLASSES"):
        for name in ("evaluate", "diff"):
            assert name in vars(getattr(expressions, cls)), (cls, name)


def test_no_rule_default():
    """Every rule-wide check takes the rule its caller chose."""
    checks = importlib.import_module("surfcalc.variational_checks")
    functions = [f for f in (*vars(checks).values(),
                             *vars(checks.VariationField).values())
                 if inspect.isfunction(f) and f.__module__ == checks.__name__]
    taking = [inspect.signature(f).parameters.get("rule") for f in functions]
    assert sum(p is not None for p in taking) >= 8
    for f, rule in zip(functions, taking):
        assert rule is None or rule.default is rule.empty, f.__qualname__


@pytest.mark.skipif(not WORKLOADS.exists(), reason="no benchmark/workloads.py")
def test_benchmark_imports_resolve():
    """Every name the benchmark's workloads import from surfcalc, and every
    attribute they read off an imported surfcalc module, exists."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "surfcalc"):
            for alias in node.names:
                names.append((node.module, alias.name))
                if node.module == "surfcalc":
                    modules[alias.asname or alias.name] = f"surfcalc.{alias.name}"
    assert names
    for module, name in names:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id",
                                                       None) in modules:
            getattr(importlib.import_module(modules[node.value.id]), node.attr)
