"""Scenario configuration: shipped defaults plus strict JSON overrides.

The config file is plain JSON with the same nesting as the defaults below.
Parsing is strict: unknown sections or keys are fatal, because silently
ignored physics parameters are the classic way sweeps go wrong, and so are
a NaN, an infinity and a value whose JSON type differs from its default's
(an integer may stand for a number; true/false never does).  DEFAULTS is
the one home of every shipped setting: the library's functions and
dataclasses take these settings explicitly.  The oracle's truncation
budgets are not settings but constants of `fock`, so no config can switch
the guard off.  Units are annotated in the key names where dimensional
(_h henry, _f farad, _kelvin); the engine block is in natural units
(hbar = k_B = 1, frequencies and temperatures on a common energy scale).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .circuit import CircuitParams
from .core import EngineConfig
from .errors import ConfigError
from .metrology import DERIVATIVE_MODES

__all__ = ["OracleConfig", "ScenarioConfig", "DEFAULTS", "load_config"]

# the largest oracle.algebra_n_max whose dense K_x once fitted a 4096 x 4096 matrix,
# (63 + 1)^2 = 4096 states; the ladder record is now blockwise, and the bound stays so
# the config accepts exactly what it did until the key goes
_MAX_DENSE_N = 63

DEFAULTS: dict = {
    "engine": {
        # frequencies and temperatures normalized to omega2
        "omega1": 0.1,
        "omega2": 1.0,
        "t_hot": 2.0,
        "t_cold": 0.01,
    },
    "sweep": {
        "zeta_panels": [2.0, 3.0, 3.4, 4.0],
        "phi_points": 2000,
    },
    "metrology": {
        # "chain" reproduces the published headline numbers; "paper"
        # evaluates the printed coth^2 derivative literally
        "derivative_mode": "chain",
        "zeta_bracket": [0.5, 8.0],
    },
    "oracle": {
        "n_max": 120,
        "algebra_n_max": 30,
        "beta_omega": [0.25, 0.5, 1.0],
        "zeta_grid": [0.4, 0.8, 1.2],
        "phi_grid": [0.3, 0.9, 2.0],
    },
    "circuit": {
        "inductance_h": 60e-12,
        "capacitance_f": 0.4e-12,
        "josephson_scale_j_per_f": 1e-9,
        "amp_a": 1.0,
        "amp_b": 0.78,
        "rapidity": 20.0,
        "rapidity_absolute": False,
        "n_cell": 100,
        "mode_index": 1,
        "t_hot_kelvin": 2.0,
        "t_cold_kelvin": 0.01,
        "t_f_points": 512,
    },
}


def _check_labels(values, where: str) -> None:
    """Grid values name records and files by their %g label, so two values
    with one label would repeat or overwrite each other's output."""
    seen: dict[str, int] = {}
    for i, v in enumerate(values):
        j = seen.setdefault(f"{v:g}", i)
        if j != i:
            raise ConfigError(
                f"{where}[{j}] = {values[j]!r} and {where}[{i}] = {v!r} share the %g label {v:g}"
            )


@dataclass(frozen=True)
class OracleConfig:
    """Basis sizes and grids of the Fock-oracle gate, checked on construction."""

    n_max: int
    algebra_n_max: int
    beta_omega: tuple[float, ...]
    zeta_grid: tuple[float, ...]
    phi_grid: tuple[float, ...]

    def __post_init__(self):
        for name in ("beta_omega", "zeta_grid", "phi_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ConfigError(f"oracle.{name} must not be empty")
            _check_labels(getattr(self, name), f"oracle.{name}")
        for name, ok, rule in (
            ("n_max", self.n_max >= 1, ">= 1"),
            ("algebra_n_max", 2 <= self.algebra_n_max <= _MAX_DENSE_N, f"in [2, {_MAX_DENSE_N}]"),
            ("beta_omega", all(b > 0.0 for b in self.beta_omega), "positive"),
            ("zeta_grid", all(z >= 0.0 for z in self.zeta_grid), "non-negative"),
        ):
            if not ok:
                raise ConfigError(f"oracle.{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run configuration for the command-line surface."""

    engine: EngineConfig
    zeta_panels: tuple[float, ...]
    phi_points: int
    derivative_mode: str
    zeta_bracket: tuple[float, float]
    oracle: OracleConfig = field(repr=False)
    circuit: CircuitParams = field(repr=False)


_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _checked_leaf(default, value, where: str):
    """value if finite and of its default's JSON type, an int widened where a float is due."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_checked_leaf(default[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if type(default) is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} must be finite, got an integer past the float range") from None
    if type(value) is not type(default):
        raise ConfigError(f"{where} must be {_JSON_TYPES[type(default)]}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _merge_strict(defaults: dict, override: dict, path: str = "") -> dict:
    merged = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a table of settings")
            merged[key] = _merge_strict(defaults[key], value, where)
        else:
            merged[key] = _checked_leaf(defaults[key], value, where)
    return merged


def _build(raw: dict) -> ScenarioConfig:
    try:
        engine = EngineConfig(**raw["engine"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"engine block invalid: {exc}") from exc
    met = raw["metrology"]
    if met["derivative_mode"] not in DERIVATIVE_MODES:
        raise ConfigError(
            f"metrology.derivative_mode must be one of {DERIVATIVE_MODES}, "
            f"got {met['derivative_mode']!r}"
        )
    bracket = tuple(met["zeta_bracket"])
    if len(bracket) != 2 or not 0.0 <= bracket[0] < bracket[1]:
        raise ConfigError(f"metrology.zeta_bracket must be [lo, hi] with 0 <= lo < hi, got {bracket}")
    sweep = raw["sweep"]
    if not sweep["zeta_panels"] or min(sweep["zeta_panels"]) < 0.0:
        raise ConfigError(f"sweep.zeta_panels must be non-empty and >= 0, got {sweep['zeta_panels']}")
    _check_labels(sweep["zeta_panels"], "sweep.zeta_panels")
    if sweep["phi_points"] < 8:
        raise ConfigError("sweep.phi_points must be at least 8")
    try:
        params = CircuitParams(**raw["circuit"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"circuit block invalid: {exc}") from exc
    return ScenarioConfig(
        engine=engine,
        zeta_panels=tuple(sweep["zeta_panels"]),
        phi_points=sweep["phi_points"],
        derivative_mode=met["derivative_mode"],
        zeta_bracket=bracket,
        oracle=OracleConfig(**raw["oracle"]),
        circuit=params,
    )


def load_config(path: str | Path | None = None) -> ScenarioConfig:
    """Defaults, optionally overridden by a strict JSON file."""
    raw = DEFAULTS
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            override = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(override, dict):
            raise ConfigError("config file must contain a JSON object")
        raw = _merge_strict(DEFAULTS, override)
    return _build(raw)
