"""Run configuration: ``key = value`` lines with ``#`` comments.

The schema is closed: unknown keys are errors (so a typo like ``lamda``
cannot silently fall back to a default). Keys naming input files must point
at files that exist when the config is loaded.
"""
from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .object_saliency import SaliencyConfig
from .scene_metadata import LineError as ConfigError  # the config reader's name for it
from .scene_metadata import numbered_lines
from .view_geometry import FovConfig


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    n: int = 100
    seed: int = 1
    min_hops: int = 4
    max_hops: int = 7
    min_geodesic: float = 5.0


@dataclass(frozen=True, slots=True)
class AuxConfig:
    lam: float = 0.5
    beta: float = 0.3
    n_objects: int = 2

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be at least 1, got {self.n_objects}")


@dataclass(frozen=True, slots=True)
class FileConfig:
    scene: str | None = None
    graph: str | None = None
    paths: str | None = None
    lexicon: str | None = None
    out: str | None = None


@dataclass(frozen=True, slots=True)
class RunConfig:
    saliency: SaliencyConfig = field(default_factory=SaliencyConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    aux: AuxConfig = field(default_factory=AuxConfig)
    files: FileConfig = field(default_factory=FileConfig)


# Each key's (section, field) in RunConfig; "fov" is saliency.fov. A key's
# value is converted after the type of its field's default.
_KEYS = {
    "max_distance": ("saliency", "max_distance"), "min_area": ("saliency", "min_area"),
    "blacklist": ("saliency", "blacklist"), "require_unique": ("saliency", "require_unique"),
    "fov_half_width": ("fov", "half_width"), "fov_elevation_lo": ("fov", "elevation_lo"),
    "fov_elevation_hi": ("fov", "elevation_hi"),
    "n_paths": ("sampler", "n"), "seed": ("sampler", "seed"),
    "min_hops": ("sampler", "min_hops"), "max_hops": ("sampler", "max_hops"),
    "min_geodesic": ("sampler", "min_geodesic"),
    "lambda": ("aux", "lam"), "beta": ("aux", "beta"), "n_objects": ("aux", "n_objects"),
    "scene": ("files", "scene"), "graph": ("files", "graph"), "paths": ("files", "paths"),
    "lexicon": ("files", "lexicon"), "out": ("files", "out"),
}
_DEFAULTS = {"fov": FovConfig(), "saliency": SaliencyConfig(), "sampler": SamplerConfig(),
             "aux": AuxConfig(), "files": FileConfig()}
_INPUT_FILE_KEYS = ("scene", "graph", "paths", "lexicon")
_NON_NEGATIVE = {"lambda", "beta", "min_area", "min_geodesic", "n_paths", "min_hops", "max_hops"}


def _parse_value(key: str, raw: str, kind: type, line_no: int):
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: invalid number {raw!r}", line_no) from None
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite", line_no)
        return value
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: invalid integer {raw!r}", line_no) from None
    if kind is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"{key}: expected 'true' or 'false', found {raw!r}", line_no)
    if kind is frozenset:
        entries = [t.strip() for t in raw.split(",") if t.strip()]
        for entry in entries:  # ingest stores category names only in this form
            if entry != " ".join(entry.lower().split()):
                raise ConfigError(f"{key}: entry {entry!r} is not lowercase and "
                                  "single-spaced", line_no)
        return frozenset(entries)
    return raw  # file path


def _validate_value(key: str, value, line_no: int) -> None:
    if key in _NON_NEGATIVE and value < 0:
        raise ConfigError(f"{key}: must be non-negative, got {value}", line_no)
    if key == "max_distance" and value <= 0:
        raise ConfigError(f"{key}: must be positive, got {value}", line_no)
    if key == "n_objects":
        try:
            AuxConfig(n_objects=value)
        except ValueError as exc:
            raise ConfigError(str(exc), line_no) from None


def load_config(text: str) -> RunConfig:
    """Parse and validate config text against the closed schema."""
    given: dict[str, dict] = {section: {} for section in _DEFAULTS}
    for line_no, raw in numbered_lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', found {raw.strip()!r}", line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        section, name = _KEYS[key]
        if name in given[section]:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        if not value:
            raise ConfigError(f"{key}: empty value", line_no)
        parsed = _parse_value(key, value, type(getattr(_DEFAULTS[section], name)), line_no)
        _validate_value(key, parsed, line_no)
        given[section][name] = parsed

    for key in _INPUT_FILE_KEYS:  # each named after its FileConfig field
        if key in given["files"] and not os.path.isfile(given["files"][key]):
            raise ConfigError(f"{key}: input file does not exist: {given['files'][key]!r}")

    # Sections check rules that span fields (the FOV's elevation order), so
    # their errors name no line.
    try:
        given["saliency"]["fov"] = dataclasses.replace(_DEFAULTS["fov"], **given.pop("fov"))
        return RunConfig(**{section: dataclasses.replace(_DEFAULTS[section], **fields)
                            for section, fields in given.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
