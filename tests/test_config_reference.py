"""``load_config`` against the hand-written reader it replaced.

The reference below is the earlier ``load_config`` verbatim, apart from its
error class's name. The current reader builds each section from the config
dataclasses instead, and must give an equal ``RunConfig`` or the same error
text and line for every input, except for its two deliberate changes, each
pinned by its own test in ``test_config_cli.py``:

- lines end at ``\\n`` only, so generated text holds no other character that
  ``str.splitlines`` breaks at, and ``\\r`` only before ``\\n``;
- a blacklist entry that is not lowercase and single-spaced is rejected at
  its line, where the reference kept reading.
"""
from __future__ import annotations

import ast
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from navscribe.config import (AuxConfig, ConfigError, FileConfig, RunConfig,
                              SamplerConfig, load_config)
from navscribe.object_saliency import DEFAULT_BLACKLIST, SaliencyConfig
from navscribe.view_geometry import FovConfig


class RefConfigError(ValueError):
    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


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
            raise RefConfigError(f"{key}: invalid number {raw!r}", line_no) from None
        if not math.isfinite(value):
            raise RefConfigError(f"{key}: must be finite", line_no)
        return value
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise RefConfigError(f"{key}: invalid integer {raw!r}", line_no) from None
    if key in _BOOL_KEYS:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise RefConfigError(f"{key}: expected 'true' or 'false', found {raw!r}", line_no)
    if key == "blacklist":
        return frozenset(t.strip() for t in raw.split(",") if t.strip())
    return raw  # file path


def reference_load_config(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RefConfigError(f"expected 'key = value', found {raw.strip()!r}", line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise RefConfigError(f"unknown key {key!r}", line_no)
        if key in values:
            raise RefConfigError(f"duplicate key {key!r}", line_no)
        if not value:
            raise RefConfigError(f"{key}: empty value", line_no)
        parsed = _parse_value(key, value, line_no)
        _validate_value(key, parsed, line_no)
        values[key] = parsed

    for key in _INPUT_FILE_KEYS:
        if key in values and not os.path.isfile(str(values[key])):
            raise RefConfigError(f"{key}: input file does not exist: {values[key]!r}")

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
        raise RefConfigError(str(exc)) from None
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
        raise RefConfigError(f"{key}: must be non-negative, got {value}", line_no)
    if key in ("max_distance",) and value <= 0:
        raise RefConfigError(f"{key}: must be positive, got {value}", line_no)
    if key == "n_objects":
        try:
            AuxConfig(n_objects=value)
        except ValueError as exc:
            raise RefConfigError(str(exc), line_no) from None
    if key in ("n_paths", "min_hops", "max_hops") and value < 0:
        raise RefConfigError(f"{key}: must be non-negative, got {value}", line_no)


# ---------------------------------------------------------------------------
# Generated config text
# ---------------------------------------------------------------------------

# Characters other than "\n" that str.splitlines breaks at.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_FREE_TEXT = st.text(st.characters(exclude_characters="\n" + _OTHER_BREAKS), max_size=12)

_NUMBERS = st.sampled_from(["0.5", "1", "3.5", "0.25", "2", "1e-3", "1.0", "-0.4", "0.3"])
_BAD_NUMBERS = st.sampled_from(["0", "-1", "-0.5", "4", "1e400", "-inf", "nan", "fast",
                                "1,5", "0x10", "1_0", "-1e-300"])
_INTEGERS = st.one_of(st.integers(1, 12).map(str), st.just("0"))
_BAD_INTEGERS = st.sampled_from(["-1", "-3", "1.5", "x", "+4", "0x10", "1_000", "9" * 30])
_BLACKLIST = st.lists(st.sampled_from(["wall", "floor", "coffee table", "misc", "", " ",
                                       "chair\t", "Floor", "coffee  table", "WALL"]),
                      max_size=4).map(",".join)
_EXISTING = os.path.abspath(__file__)
_PATHS = st.sampled_from([_EXISTING, _EXISTING, os.path.dirname(_EXISTING),
                          "/no/such/file.house", "relative/missing"])


@st.composite
def _good_or_bad(draw, good, bad):
    return draw(draw(st.sampled_from([good] * 7 + [bad] * 2 + [_FREE_TEXT])))


_VALUES = {
    **{key: _good_or_bad(_NUMBERS, _BAD_NUMBERS) for key in _FLOAT_KEYS},
    **{key: _good_or_bad(_INTEGERS, _BAD_INTEGERS) for key in _INT_KEYS},
    "require_unique": _good_or_bad(st.sampled_from(["true", "false"]),
                                   st.sampled_from(["True", "FALSE", "yes", "1"])),
    "blacklist": _good_or_bad(_BLACKLIST, _BLACKLIST),
    **{key: _PATHS for key in _FILE_KEYS},
}
assert set(_VALUES) == _KNOWN_KEYS and len(_VALUES) == 20

_JUNK = st.one_of(
    st.sampled_from(["", "   ", "# comment", "  # seed = 2", "just words", "= 3",
                     "seed =", "seed = # nothing", "lambda = 0.5 = 1"]),
    _FREE_TEXT,
)


@st.composite
def _setting(draw, key: str) -> str:
    value = draw(_VALUES[key])
    key = draw(st.sampled_from([key] * 16 + ["lamda", "fov", "n", key.upper()]))
    gap = draw(st.sampled_from([" = ", "=", "  =  ", "\t= "]))
    tail = draw(st.sampled_from(["", "", "  # note", "#", " "]))
    return key + gap + value + tail


@st.composite
def _config_texts(draw) -> str:
    # Mostly distinct keys: a config fails at its first bad line.
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=8, unique=True))
    if keys and draw(st.sampled_from([False] * 9 + [True])):
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
    lines = [draw(_setting(key)) for key in keys]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(load, text):
    try:
        return load(text)
    except (ConfigError, RefConfigError) as exc:
        return str(exc), exc.line_number


@settings(max_examples=1500)
@given(_config_texts())
def test_load_config_matches_the_reference(text):
    got = _outcome(load_config, text)
    want = _outcome(reference_load_config, text)
    if isinstance(got, tuple) and ": blacklist: entry " in got[0]:
        # Rejected where the reference read on: it must have accepted that
        # line, and the entry must be one no category name can equal.
        line = got[1]
        assert isinstance(want, RunConfig) or want[1] is None or want[1] > line
        entry = ast.literal_eval(got[0].split(": blacklist: entry ", 1)[1]
                                 .rsplit(" is not", 1)[0])
        assert entry != " ".join(entry.lower().split())
        return
    assert got == want
