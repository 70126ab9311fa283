"""Flat JSON experiment configuration.

One JSON object with snake_case keys drives every CLI command. Each key is a
field of exactly one dataclass: the solver settings are the fields of
``SolverConfig`` (held as ``ExperimentConfig.solver``), the inputs,
degradation, noise and its seed those of ``ExperimentConfig``.
``lambda`` is the one key spelled unlike its field (``lam``). Unknown keys
are rejected so typos fail loudly. The parser checks only each key's JSON
type; the rules on the values, such as that exactly one of ``ground_truth``
or the pair ``y``/``z`` is present, belong to the dataclass owning the
field, which holds them for a config built in Python too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from .degradation import snr_power_ratio
from .solver import SolverConfig


class ConfigError(Exception):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    ground_truth: str | None = None
    y: str | None = None
    z: str | None = None
    spectral_response: str | None = None
    kernel_size: int = 7
    sigma: float = 2.0
    factor: int = 4
    msi_bands: int = 4
    band_groups: tuple[tuple[int, ...], ...] | None = None
    snr_y_db: float | None = 25.0
    snr_z_db: float | None = 30.0
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for key in ("snr_y_db", "snr_z_db"):
            # raises where no finite noise has the SNR
            if (snr := getattr(self, key)) is not None:
                snr_power_ratio(snr, key)
        if (self.y is None) != (self.z is None):
            raise ValueError("y and z must be given together")
        if (self.ground_truth is None) == (self.y is None):
            raise ValueError("exactly one of ground_truth or the y/z pair is required")
        if self.factor < 1 or self.kernel_size < 1 or self.msi_bands < 1:
            raise ValueError("factor, kernel_size, and msi_bands must be positive")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        if self.band_groups is not None and self.spectral_response is not None:
            raise ValueError("band_groups and spectral_response are mutually exclusive")

    def as_dict(self) -> dict:
        """The flat JSON object this config parses from."""
        out = {}
        for key, (in_solver, name, _, _) in _KEYS.items():
            val = getattr(self.solver if in_solver else self, name)
            if isinstance(val, tuple):
                val = [list(v) if isinstance(v, tuple) else v for v in val]
            out[key] = val
        return out


def _as_str(key, val):
    if not isinstance(val, str):
        raise ConfigError(f"{key} must be a string, got {val!r}")
    return val


def _as_int(key, val):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    return val


def _as_float(key, val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number, got {val!r}")
    try:
        out = float(val)
    except OverflowError:
        raise ConfigError(f"{key} is out of the float range") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {val!r}")
    return out


def _as_ints(key, val):
    if (not isinstance(val, list)
            or any(isinstance(v, bool) or not isinstance(v, int) for v in val)):
        raise ConfigError(f"{key} must be a list of integers, got {val!r}")
    return tuple(val)


def _as_int_lists(key, val):
    if not isinstance(val, list) or any(not isinstance(g, list) for g in val):
        raise ConfigError(f"{key} must be a list of integer lists")
    return tuple(_as_ints(key, g) for g in val)


# field annotation, less any "| None" -> JSON value check and conversion
_COERCE = {
    "str": _as_str,
    "int": _as_int,
    "float": _as_float,
    "tuple[int, int, int]": _as_ints,
    "tuple[tuple[int, ...], ...]": _as_int_lists,
}

# JSON key -> (owned by SolverConfig, field name, conversion, null allowed);
# ``solver`` nests the solver keys and ``beta_scales`` is set only by the
# ablation grid, so neither is a key of its own
_KEYS = {("lambda" if f.name == "lam" else f.name):
         (owner is SolverConfig, f.name, _COERCE[f.type.removesuffix(" | None")],
          f.type.endswith(" | None"))
         for owner in (ExperimentConfig, SolverConfig)
         for f in fields(owner) if f.name not in ("solver", "beta_scales")}


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    own, solver = {}, {}
    for key, val in raw.items():
        in_solver, name, convert, nullable = _KEYS[key]
        if val is not None:
            val = convert(key, val)
        elif not nullable:
            raise ConfigError(f"{key} must not be null")
        (solver if in_solver else own)[name] = val
    try:
        return ExperimentConfig(**own, solver=SolverConfig(**solver))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past int()'s digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_experiment_config(raw)


def with_seed(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    if seed is None:
        return cfg
    try:
        return replace(cfg, seed=int(seed))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
