"""Run configuration: ``key = value`` lines with ``#`` comments.

The schema is closed: unknown keys are errors (so a typo like ``lamda``
cannot silently fall back to a default). Keys naming input files must point
at files that exist when the config is loaded.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .object_saliency import DEFAULT_BLACKLIST, SaliencyConfig
from .view_geometry import FovConfig


class ConfigError(ValueError):
    """Bad config text."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class SamplerConfig:
    n: int = 100
    seed: int = 1
    min_hops: int = 4
    max_hops: int = 7
    min_geodesic: float = 5.0


@dataclass(frozen=True)
class AuxConfig:
    lam: float = 0.5
    beta: float = 0.3
    n_objects: int = 2

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be at least 1, got {self.n_objects}")


@dataclass(frozen=True)
class FileConfig:
    scene: str | None = None
    graph: str | None = None
    paths: str | None = None
    lexicon: str | None = None
    out: str | None = None


@dataclass(frozen=True)
class RunConfig:
    saliency: SaliencyConfig = field(default_factory=SaliencyConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    aux: AuxConfig = field(default_factory=AuxConfig)
    files: FileConfig = field(default_factory=FileConfig)


_INPUT_FILE_KEYS = ("scene", "graph", "paths", "lexicon")
_FILE_KEYS = _INPUT_FILE_KEYS + ("out",)
_FLOAT_KEYS = {
    "lambda", "beta", "max_distance", "min_area", "min_geodesic",
    "fov_half_width", "fov_elevation_lo", "fov_elevation_hi",
}
_INT_KEYS = {"n_objects", "n_paths", "seed", "min_hops", "max_hops"}
_BOOL_KEYS = {"require_unique"}
_KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | {"blacklist"} | set(_FILE_KEYS)


def _parse_value(key: str, raw: str, line_no: int):
    if key in _FLOAT_KEYS:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: invalid number {raw!r}", line_no) from None
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite", line_no)
        return value
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: invalid integer {raw!r}", line_no) from None
    if key in _BOOL_KEYS:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"{key}: expected 'true' or 'false', found {raw!r}", line_no)
    if key == "blacklist":
        return frozenset(t.strip() for t in raw.split(",") if t.strip())
    return raw  # file path


def load_config(text: str) -> RunConfig:
    """Parse and validate config text against the closed schema."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', found {raw.strip()!r}", line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        if not value:
            raise ConfigError(f"{key}: empty value", line_no)
        parsed = _parse_value(key, value, line_no)
        _validate_value(key, parsed, line_no)
        values[key] = parsed

    for key in _INPUT_FILE_KEYS:
        if key in values and not os.path.isfile(str(values[key])):
            raise ConfigError(f"{key}: input file does not exist: {values[key]!r}")

    fov_kwargs = {}
    for key, attr in (("fov_half_width", "half_width"), ("fov_elevation_lo", "elevation_lo"),
                      ("fov_elevation_hi", "elevation_hi")):
        if key in values:
            fov_kwargs[attr] = values[key]
    try:
        fov = FovConfig(**fov_kwargs)
        saliency = SaliencyConfig(
            max_distance=values.get("max_distance", 3.5),
            min_area=values.get("min_area", 0.2),
            blacklist=values.get("blacklist", DEFAULT_BLACKLIST),
            require_unique=values.get("require_unique", True),
            fov=fov,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sampler = SamplerConfig(
        n=values.get("n_paths", 100),
        seed=values.get("seed", 1),
        min_hops=values.get("min_hops", 4),
        max_hops=values.get("max_hops", 7),
        min_geodesic=values.get("min_geodesic", 5.0),
    )
    aux = AuxConfig(
        lam=values.get("lambda", 0.5),
        beta=values.get("beta", 0.3),
        n_objects=values.get("n_objects", 2),
    )
    files = FileConfig(**{key: values.get(key) for key in _FILE_KEYS})
    return RunConfig(saliency=saliency, sampler=sampler, aux=aux, files=files)


def _validate_value(key: str, value, line_no: int) -> None:
    if key in ("lambda", "beta", "min_area", "min_geodesic") and value < 0:
        raise ConfigError(f"{key}: must be non-negative, got {value}", line_no)
    if key in ("max_distance",) and value <= 0:
        raise ConfigError(f"{key}: must be positive, got {value}", line_no)
    if key == "n_objects":
        try:
            AuxConfig(n_objects=value)
        except ValueError as exc:
            raise ConfigError(str(exc), line_no) from None
    if key in ("n_paths", "min_hops", "max_hops") and value < 0:
        raise ConfigError(f"{key}: must be non-negative, got {value}", line_no)
