"""Scenario files: a flat ``key = value`` format with dotted sections.

A scenario names a surface, a motion, analytic fields, closure laws, grid
and quadrature resolutions, the time window, and per-check tolerance
overrides.  Field values are expressions over ``x1, x2, x3, t`` parsed by the
built-in expression interpreter, so every derivative downstream is exact.

Example::

    name = dilating_sphere_mass
    suite = transport
    surface.kind = sphere
    surface.R = 1.0
    motion.kind = dilation
    fields.rho0 = 1.0
    resolution = 48, 96
    dt = 0.02
    T = 1.0
    seed = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from inspect import signature

from .chart_geometry import _SURFACES
from .evolving_surface import _MOTIONS
from .expressions import parse_expr
from .fields import ScalarField, VectorField
from .fluid_models import _PRESSURE_LAWS
from .pde_solvers import _FLUX_LAWS

__all__ = ["BUILTINS", "ConfigError", "Scenario", "parse_config",
           "load_scenario"]

# section -> {kind: factory}: ``<section>.kind`` picks a factory, and
# ``<section>.<name>`` sets its parameter ``name``.
BUILTINS = {
    "surface": _SURFACES,
    "motion": _MOTIONS,
    "pressure": _PRESSURE_LAWS,
    "flux": _FLUX_LAWS,
}

_AMB_T = ("x1", "x2", "x3", "t")


class ConfigError(ValueError):
    """A malformed or inconsistent scenario file (message carries the line)."""


def parse_config(text, source="<config>"):
    """Parse ``key = value`` lines into {key: (value, line_number)}."""
    entries = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {rawline.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


@dataclass
class Scenario:
    """A parsed scenario: raw entries plus typed accessors and builders."""

    name: str
    entries: dict
    source: str = "<config>"
    consumed: set = field(default_factory=set)

    # -- raw access ------------------------------------------------------------

    def get(self, key, default=None, required=False):
        if key in self.entries:
            self.consumed.add(key)
            return self.entries[key][0]
        if required:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def where(self, key):
        """``source:line`` of ``key`` (line ``?`` when the key is unset)."""
        line = self.entries[key][1] if key in self.entries else "?"
        return f"{self.source}:{line}"

    def _parse(self, key, default, parse, message):
        """``parse`` of the value of ``key``, or ``default`` when it is unset;
        a ``ValueError`` becomes a ``ConfigError`` with ``message``."""
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.where(key)}: " + message.format(
                key=key, raw=raw, exc=exc)) from None

    def get_float(self, key, default=None):
        return self._parse(key, default, float,
                           "{key} must be a number, got {raw!r}")

    def get_int(self, key, default=None):
        return self._parse(key, default, int,
                           "{key} must be an integer, got {raw!r}")

    def get_floats(self, key, default=None):
        return self._parse(key, default,
                           lambda raw: tuple(float(p) for p in raw.split(",")),
                           "{key} must be comma-separated numbers")

    def get_ints(self, key, default=None):
        return self._parse(key, default,
                           lambda raw: tuple(int(p) for p in raw.split(",")),
                           "{key} must be comma-separated integers")

    def get_scalar_field(self, key, default=None):
        return self._parse(key, default,
                           lambda raw: ScalarField(parse_expr(raw, _AMB_T)),
                           "bad expression for {key}: {exc}")

    def get_vector_field(self, key, default=None):
        comps = self._parse(
            key, None, lambda raw: [parse_expr(p, _AMB_T) for p in raw.split(",")],
            "bad expression for {key}: {exc}")
        if comps is None:
            return default
        if len(comps) != 3:
            raise ConfigError(f"{self.where(key)}: "
                              f"{key} needs 3 comma-separated components")
        return VectorField(comps)

    def check_consumed(self):
        """Raise on the entries that nothing has read (misspelled keys, or
        parameters the chosen builtins do not take)."""
        unread = sorted((line, key) for key, (_, line) in self.entries.items()
                        if key not in self.consumed)
        if unread:
            raise ConfigError("; ".join(
                f"{self.source}:{line}: no suite reads key {key!r}"
                for line, key in unread))

    # -- builtins ----------------------------------------------------------------

    def suites(self):
        raw = self.get("suite", required=True)
        return [s.strip() for s in raw.split(",") if s.strip()]

    def builtin_args(self, section, kind):
        """Keyword arguments for builtin ``kind`` of ``section``: each parameter
        of its factory from ``<section>.<name>`` (comma-separated numbers when
        the default is a tuple, else a number), or the factory's default."""
        args = {}
        for name, par in signature(BUILTINS[section][kind]).parameters.items():
            get = (self.get_floats if isinstance(par.default, tuple)
                   else self.get_float)
            args[name] = get(f"{section}.{name}", par.default)
        return args

    def _build(self, section, default=None, required=False):
        kind = self.get(f"{section}.kind", default, required)
        if kind is None:
            return None
        table = BUILTINS[section]
        if kind not in table:
            raise ConfigError(f"{self.where(section + '.kind')}: unknown "
                              f"{section} {kind!r}; known: {sorted(table)}")
        return table[kind](**self.builtin_args(section, kind))

    def build_surface(self):
        return self._build("surface", required=True)

    def build_motion(self):
        return self._build("motion", "static")

    def build_pressure_law(self):
        return self._build("pressure")

    def build_flux_law(self):
        return self._build("flux")

    def resolution(self, key="resolution", default=(48, 96)):
        res = self.get_ints(key, default)
        if len(res) != 2 or min(res) < 16:
            raise ConfigError(f"{self.where(key)}: "
                              f"{key} needs two integers >= 16")
        return res

    def quadrature(self):
        order, periodic = (self._positive_int(f"quadrature.{key}")
                           for key in ("order", "periodic_order"))
        if order is None and periodic is None:
            return None
        return (order or 32, periodic or 2 * (order or 32))

    def time_window(self):
        dt = self.get_float("dt", 1e-3)
        T = self.get_float("T", 0.5)
        if dt <= 0:
            raise ConfigError(f"{self.where('dt')}: dt must be > 0")
        if T <= 0:
            raise ConfigError(f"{self.where('T')}: T must be > 0")
        return dt, T

    def _positive_int(self, key):
        n = self.get_int(key)
        if n is not None and n < 1:
            raise ConfigError(f"{self.where(key)}: {key} must be >= 1")
        return n

    def eps_ladder(self):
        eps = self.get_floats("eps", (1e-2, 3e-3, 1e-3, 3e-4))
        if (len(eps) < 2 or len(set(eps)) < len(eps)
                or not all(0.0 < e < math.inf for e in eps)):
            raise ConfigError(f"{self.where('eps')}: eps needs 2 or more "
                              "distinct, finite, positive values")
        return eps

    def seed(self):
        return self.get_int("seed", 0)

    def tolerance(self, check, default):
        return self.get_float(f"tol.{check}", default)


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = parse_config(text, source=str(path))
    name = entries.get("name", (None, 0))[0]
    if not name:
        raise ConfigError(f"{path}: missing required key 'name'")
    return Scenario(name=name, entries=entries, source=str(path),
                    consumed={"name"})
