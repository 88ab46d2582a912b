"""Canonical JSON emission, and the schema-checked readers built on jsonio."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navscribe import jsonio
from navscribe.jsonio import JsonSchemaError
from navscribe.nav_graph import paths_from_json
from navscribe.scene_metadata import read_scene_json
from navscribe.supervision_export import read_r2r_json, read_supervision_json


def test_floats_take_six_decimals():
    assert jsonio.dumps(1.5) == "1.500000\n"
    assert jsonio.dumps(-0.0000004) == "-0.000000\n"


def test_ints_and_bools_keep_their_types():
    out = jsonio.dumps({"n": 3, "ok": True, "off": False, "none": None})
    assert '"n": 3' in out
    assert '"ok": true' in out
    assert '"off": false' in out
    assert '"none": null' in out


def test_layout_matches_stdlib_for_float_free_values():
    value = {"a": [1, 2, {"b": "x"}], "c": [], "d": {}}
    assert jsonio.dumps(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_key_order_is_insertion_order():
    out = jsonio.dumps({"z": 1, "a": 2})
    assert out.index('"z"') < out.index('"a"')


def test_custom_float_format():
    assert jsonio.dumps(0.0000012345, float_fmt=".3e") == "1.234e-06\n"


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": bad})


def test_write_read_write_is_byte_stable():
    value = {"name": "loop", "dist": [1.0 / 3.0, 2.5], "meta": {"n": 7, "f": 0.1}}
    first = jsonio.dumps(value)
    second = jsonio.dumps(json.loads(first))
    assert first == second


def test_string_escaping():
    out = jsonio.dumps({"s": 'a "quote" and\nnewline'})
    assert json.loads(out)["s"] == 'a "quote" and\nnewline'


def test_document_ends_with_single_newline():
    out = jsonio.dumps([1, 2])
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_dataclass_is_an_object_in_field_order():
    @dataclass(frozen=True)
    class Point:
        name: str
        xy: tuple[float, float]

    assert jsonio.dumps(Point("p", (1.0, 2.0))) == jsonio.dumps({"name": "p", "xy": [1.0, 2.0]})


_INT = st.integers(-1, 3)
_TEXT = st.text(max_size=2)
_NAMES = st.lists(_TEXT, max_size=3)
_VECTOR = st.lists(st.floats(-2, 2) | st.floats(), min_size=3, max_size=3)

# The shape of each reader's format: a dict is an object, a one-item list an
# array of that item, a strategy a value. Generated documents follow a shape
# with arbitrary JSON in place of any part of it, so that some records get
# past their field checks to the rules across fields.
SHAPES = {
    "paths": (paths_from_json, {
        "shortfall": _INT,
        "paths": [{"scan": _TEXT, "path": _NAMES, "heading": st.floats(),
                   "distance": st.floats()}],
    }),
    "dataset": (read_r2r_json, [{
        "path_id": _INT, "scan": _TEXT, "heading": st.floats(), "path": _NAMES,
        "instructions": _NAMES, "distance": st.floats(),
    }]),
    "supervision": (read_supervision_json, [{
        "path_id": _INT, "tokens": _NAMES, "node_of_token": st.lists(_INT, max_size=3),
        "objects_of_token": st.lists(_NAMES, max_size=3),
    }]),
    "scene": (read_scene_json, {
        "scan_id": _TEXT,
        "categories": [{"index": _INT, "mapping_index": _INT, "name": st.text(max_size=14),
                        "mpcat40_index": _INT, "mpcat40_name": _TEXT}],
        "regions": [{"index": _INT, "level_index": _INT, "label": _TEXT,
                     "position": _VECTOR, "bbox_lo": _VECTOR, "bbox_hi": _VECTOR}],
        "objects": [{"index": _INT, "region_index": _INT, "category_index": _INT,
                     "center": _VECTOR, "axis0": _VECTOR, "axis1": _VECTOR,
                     "radii": _VECTOR}],
        "panoramas": [{"name": _TEXT, "index": _INT, "region_index": _INT,
                       "position": _VECTOR}],
    }),
}


def _keys(shape):
    if isinstance(shape, dict):
        return set(shape).union(*(_keys(v) for v in shape.values()))
    return _keys(shape[0]) if isinstance(shape, list) else set()


def _documents(shape, anything):
    if isinstance(shape, dict):
        typed = st.fixed_dictionaries({k: _documents(v, anything) for k, v in shape.items()})
    elif isinstance(shape, list):
        typed = st.lists(_documents(shape[0], anything), max_size=3)
    else:
        typed = shape
    # Mostly the expected shape; now and then arbitrary JSON in its place.
    return st.integers(0, 4).flatmap(lambda i: anything if i == 4 else typed)


@pytest.mark.parametrize("reader,shape", SHAPES.values(), ids=SHAPES.keys())
def test_readers_raise_only_located_schema_errors(reader, shape):
    # Arbitrary JSON, in dicts whose keys mix in the format's own field names.
    anything = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.sampled_from(sorted(_keys(shape)))
                                            | st.text(max_size=3), children, max_size=4)),
        max_leaves=10)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_documents(shape, anything))
    def check(doc):
        try:
            reader(json.dumps(doc))
        except JsonSchemaError as exc:
            assert exc.json_path.startswith("$")

    check()
