"""Canonical JSON emission, the schema-checked readers built on jsonio, and
fuzzing of every JSON reader, the connectivity reader included."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navscribe import jsonio
from navscribe.jsonio import JsonSchemaError
from navscribe.nav_graph import (ConnectivityError, NavGraph, PathSpec, SampleResult,
                                 parse_connectivity, paths_from_json, paths_to_json)
from navscribe.scene_metadata import (Category, Panorama, Region, SceneModel, SceneObject,
                                      read_scene_json, write_scene_json)
from navscribe.supervision_export import (DatasetRecord, WordObjectSupervision, emit_r2r_json,
                                          emit_supervision_json, read_r2r_json,
                                          read_supervision_json)


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


# Quotes, backslashes, control characters and non-ASCII text, among any others.
_ANY_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600 a')
                    | st.characters(), max_size=6)
_FLOAT_FREE = st.recursive(
    st.none() | st.booleans() | st.integers() | _ANY_TEXT,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_ANY_TEXT, children, max_size=4)),
    max_leaves=25)


@settings(max_examples=300)
@given(_FLOAT_FREE)
def test_layout_matches_stdlib_for_any_float_free_value(value):
    assert jsonio.dumps(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_scalar_subclasses_render_as_their_base_type():
    class Count(int):
        pass

    class Name(str):
        def __str__(self):
            return "not used"

    class Metres(float):
        pass

    assert jsonio.dumps([Count(3), Name("x"), Metres(1.5), True, 1]) == (
        '[\n  3,\n  "x",\n  1.500000,\n  true,\n  1\n]\n')
    assert jsonio.dumps({"ok": False, "n": 0}) == '{\n  "ok": false,\n  "n": 0\n}\n'


def test_non_finite_inside_an_array_of_scalars_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps([1, "a", 2.0, bad])


def test_non_string_key_rejected():
    with pytest.raises(TypeError, match="non-string key: 2"):
        jsonio.dumps([{"a": 1, 2: 3}])


def test_unsupported_type_in_a_list_rejected():
    with pytest.raises(TypeError, match="unsupported type for canonical JSON: set"):
        jsonio.dumps({"a": [1, [set()]]})


def test_first_fault_in_document_order_raises():
    with pytest.raises(TypeError):
        jsonio.dumps([{1: 2}, math.nan])
    with pytest.raises(ValueError):
        jsonio.dumps([math.nan, {1: 2}])
    with pytest.raises(TypeError):
        jsonio.dumps({"a": {"b": set()}, "c": math.inf})


def test_dataclass_is_an_object_in_field_order():
    @dataclass(frozen=True)
    class Point:
        name: str
        xy: tuple[float, float]

    assert jsonio.dumps(Point("p", (1.0, 2.0))) == jsonio.dumps({"name": "p", "xy": [1.0, 2.0]})


def _item_by_item(value, float_fmt=".6f", nl="\n"):
    """The emitter before lists of records went field by field: every value
    rendered on its own, in document order. The reference for ``dumps``."""
    if isinstance(value, str):
        return json.encoder.encode_basestring(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number not serializable: {value}")
        return format(value, float_fmt)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if not isinstance(value, (dict, list, tuple)) and dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            items.append(f"{json.encoder.encode_basestring(key)}: "
                         f"{_item_by_item(item, float_fmt, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_item_by_item(item, float_fmt, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    raise TypeError(f"unsupported type for canonical JSON: {type(value).__name__}")


def _outcome(render):
    """The text ``render()`` returns, or the type and message of the error it
    raises, which tell the first fault in document order from a later one."""
    try:
        return render()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@dataclass
class _One:
    a: Any


@dataclass
class _Three:
    a: Any
    b: Any
    c: Any


@dataclass
class _Four(_Three):
    d: Any


@dataclass
class _Nothing:
    pass


class _Label(str):
    pass


class _Metres(float):
    pass


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Each field of a generated record list draws every record's value from one
# kind. Every kind renders field by field; the fast kinds, which map at C
# level, come first and are drawn more often.
_FAST_KINDS = [
    _ANY_TEXT,
    st.integers(),
    _FINITE,
    st.lists(_ANY_TEXT, min_size=1, max_size=3).map(tuple),
    *(st.lists(_FINITE, min_size=n, max_size=n).map(array)
      for n in (1, 2, 3) for array in (list, tuple)),
]
_OTHER_KINDS = [
    st.lists(_FINITE, min_size=1, max_size=3),
    st.booleans(),
    st.booleans() | st.integers(-2, 2),
    st.none(),
    _ANY_TEXT.map(_Label),
    _FINITE.map(_Metres),
    st.integers(-2, 2) | _FINITE,
    st.floats(),
    st.lists(_ANY_TEXT, max_size=2).map(tuple),
    st.lists(st.lists(_ANY_TEXT, max_size=2).map(tuple), max_size=2).map(tuple),
    st.lists(_FINITE | _ANY_TEXT, min_size=1, max_size=3),
    st.lists(st.integers() | st.booleans(), min_size=1, max_size=3).map(tuple),
    st.lists(st.lists(_FINITE, max_size=2).map(tuple), min_size=1, max_size=2).map(tuple),
    st.builds(_One, st.integers()),
    st.just(frozenset()),
]
# One label tuple that supervision records share by identity.
_LABELS = ("sofa", "lamp")
# Values that break a field's kind when one later record holds them.
_BREAKERS = [math.nan, -math.inf, True, 0, 0.5, None, "s", (), ("t",), (0.25,), [1],
             ((0.5,),), _Label("l"), _Metres(2.0), _One(1), frozenset(),
             (0.5, 0.5), (1.0, 2.0, math.inf), [1.0, 2], (_Metres(1.0), 0.0, 0.0)]


@st.composite
def _record_lists(draw):
    cls = draw(st.sampled_from([_One, _Three, _Three, _Nothing]))
    names = [f.name for f in dataclasses.fields(cls)]
    kinds = [draw(st.sampled_from(_FAST_KINDS * 3 + _OTHER_KINDS)) for _ in names]
    n = draw(st.integers(1, 4))
    records = [cls(*(draw(kind) for kind in kinds)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # a later record breaks a field's kind
        i = draw(st.integers(1, n - 1))
        if names and draw(st.integers(0, 3)):
            setattr(records[i], draw(st.sampled_from(names)), draw(st.sampled_from(_BREAKERS)))
        else:  # a record of another type, with record 0's values where it can
            other, shared = draw(st.sampled_from([_One, _Three, _Four])), vars(records[0])
            records[i] = other(*(shared.get(f.name, 0) for f in dataclasses.fields(other)))
    records = draw(st.sampled_from([list, tuple]))(records)
    # At the top level and nested, so that every indent is exercised.
    return draw(st.sampled_from([records, {"records": records, "n": n}, [[records], 1.5]]))


@settings(max_examples=1500)
@given(_record_lists(), st.sampled_from([".6f", ".3e"]))
@example([_Three(True, 1, "x"), _Three(False, 2, "y")], ".6f")
@example([_Three(1, "x", [1.0]), _Three(True, "y", [2.0])], ".6f")
@example([_Three(_Label("a"), _Metres(1.0), 2.0), _Three("b", 2.0, 3.0)], ".6f")
@example([_Three(1, 2.0, "a"), _Three(2.5, 3.0, "b")], ".6f")
@example([_Three(1.0, (0.5,), "a"), _Three(math.nan, (1.5,), "b")], ".6f")
@example([_Three((), ("a",), 1), _Three(("b",), (), 2)], ".6f")
@example([_Three(((1.0,),), ("a",), 1), _Three(((2.0,),), ("b",), 2)], ".6f")
@example([_Three(1, {2: 3}, "a"), _Three(math.nan, 1.0, "b")], ".6f")
@example([_Three((-0.0, 0.0), [-0.0], -0.0), _Three((0.0, -0.0), [0.0], 0.0)], ".6f")
@example([_Three((0.5, 0.5, 0.5), [1.0], "a"), _Three((1.0, 2.0, math.inf), [math.nan], "b")],
         ".6f")
@example([_One((1e-7, -0.0, 2.5e300)), _One((math.pi, -1e-300, 12345.678))], ".3e")
@example({"objects": [SceneObject(i, 0, i % 2, (0.5 * i, -1.25, 2.0), (1.0, 0.0, 0.0),
                                  (0.0, 1.0, 0.0), (0.25, 0.5, 1e-7)) for i in range(3)]},
         ".6f")
@example([WordObjectSupervision(i, ("go", "to", "the sofa"), (0, i, 1),
                                (("sofa", "lamp"), (), ("sofa",))) for i in range(3)], ".6f")
@example([_Three((1, -2), [3], "a"), _Three((4,), [5, 6], "b")], ".6f")
@example([_One((("a", "b"), ())), _One((("c",),))], ".6f")
@example([_One((1, True)), _One((2, 3))], ".6f")
@example([_Three(1, ((0.5,), (1.0,)), "a"), _Three(2, ((2.0,), (math.nan, 1.0)), "b")], ".6f")
@example([_Three(1, ((0.5,),), "a"), _Three({1: 2}, ((math.nan,),), "b")], ".6f")
@example([_Three(frozenset(), ((1.0,),), 1), _Three(2, ((2.0, math.nan),), 3)], ".6f")
@example([WordObjectSupervision(i, ("a", "b", "c"), (0, 0, 1), (_LABELS, _LABELS, ()))
          for i in range(2)], ".6f")
def test_record_lists_render_as_item_by_item(value, float_fmt):
    expected = _outcome(lambda: _item_by_item(value, float_fmt))
    got = _outcome(lambda: jsonio.dumps(value, float_fmt=float_fmt))
    if isinstance(expected, str):
        expected += "\n"
    assert got == expected


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


def _anything(shape):
    """Arbitrary JSON, in dicts whose keys mix in the format's own field names."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.sampled_from(sorted(_keys(shape)))
                                            | st.text(max_size=3), children, max_size=4)),
        max_leaves=10)


@pytest.mark.parametrize("reader,shape", SHAPES.values(), ids=SHAPES.keys())
def test_readers_raise_only_located_schema_errors(reader, shape):
    @settings(max_examples=150)
    @given(_documents(shape, _anything(shape)))
    def check(doc):
        try:
            reader(json.dumps(doc))
        except JsonSchemaError as exc:
            assert exc.json_path.startswith("$")

    check()


# Coordinates include integers beyond the float range, which JSON allows, and
# floats so far apart that their distance overflows.
_COORD = (st.floats(-3, 3) | st.floats() | st.integers()
          | st.sampled_from([10**400, -10**400, 1e308, -1e308]))
CONNECTIVITY = [{"image_id": _TEXT, "pose": st.lists(_COORD, min_size=16, max_size=16),
                 "included": st.booleans(), "unobstructed": st.lists(st.booleans(), max_size=3),
                 "height": _COORD}]


@settings(max_examples=300)
@given(_documents(CONNECTIVITY, _anything(CONNECTIVITY)))
def test_connectivity_reader_raises_only_connectivity_errors(doc):
    try:
        graph = parse_connectivity(json.dumps(doc))
    except ConnectivityError as exc:
        assert exc.json_path.startswith("$")
        return
    assert isinstance(graph, NavGraph)


def test_boolean_rejects_integers():
    assert jsonio.load("[true, false]", jsonio.array(jsonio.boolean)) == (True, False)
    with pytest.raises(JsonSchemaError) as err:
        jsonio.load("[true, 1]", jsonio.array(jsonio.boolean))
    assert str(err.value) == "$[1]: expected a boolean, found integer"


def test_open_record_ignores_extra_keys_but_not_missing_ones():
    fields = {"a": jsonio.integer, "b": jsonio.string}
    schema = jsonio.open_record(lambda a, b: (a, b), **fields)
    assert jsonio.load('{"z": [], "b": "x", "a": 1}', schema) == (1, "x")
    with pytest.raises(JsonSchemaError) as err:
        jsonio.load('{"a": 1, "z": 2}', schema)
    assert str(err.value) == "$: missing key 'b'"
    with pytest.raises(JsonSchemaError) as err:
        jsonio.load('{"a": 1, "b": "x", "z": 2}', jsonio.record(lambda a, b: (a, b), **fields))
    assert str(err.value) == "$: unexpected key 'z'"


def test_a_record_without_fields_builds_each_empty_object():
    schema = jsonio.array(jsonio.record(lambda: "built"))
    assert jsonio.load("[{}, {}]", schema) == ("built", "built")
    with pytest.raises(JsonSchemaError) as err:
        jsonio.load('[{}, {"a": 1}]', schema)
    assert str(err.value) == "$[1]: unexpected key 'a'"
    for check in (jsonio.record, jsonio.open_record):
        with pytest.raises(JsonSchemaError) as err:
            jsonio.load("[{}, 5]", jsonio.array(check(lambda: "built")))
        assert str(err.value) == "$[1]: expected an object, found integer"


@dataclass(frozen=True)
class _Untyped:
    count: int
    extra: dict


@dataclass(frozen=True)
class _Optional:
    name: str | None


@dataclass(frozen=True)
class _Outer:
    label: str
    inner: tuple[_Untyped, ...]


@pytest.mark.parametrize("check", [jsonio.record, jsonio.open_record])
@pytest.mark.parametrize("build,overrides,message", [
    (_Untyped, {}, "_Untyped.extra: no check derives from the annotation <class 'dict'>"),
    (_Optional, {}, "_Optional.name: no check derives from the annotation str | None"),
    (_Outer, {}, "_Untyped.extra: no check derives from the annotation <class 'dict'>"),
    (PathSpec, {"paht": jsonio.string}, "PathSpec: no field 'paht' to override"),
], ids=["dict", "optional", "nested", "unknown_override"])
def test_a_schema_that_cannot_be_derived_is_refused(check, build, overrides, message):
    with pytest.raises(TypeError) as err:
        check(build, **overrides)
    assert str(err.value) == message


def _scene(n):
    """A valid scene with ``n`` records of each kind."""
    return SceneModel(
        "scan",
        tuple(Category(i, i + 1, f"thing {i}", i + 2, "misc") for i in range(n)),
        tuple(Region(i, 0, "room", (i + 0.5, 0.25, 0.0), (i + 0.0, -1.5, 0.0),
                     (i + 1.0, 1.5, 3.0)) for i in range(n)),
        tuple(SceneObject(i, i - 1, i, (i + 0.5, 0.25, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          (0.5, 0.25, 0.125)) for i in range(n)),
        tuple(Panorama(f"p{i}", i, i, (i + 0.5, 0.5, 1.5)) for i in range(n)))


# Each JSON format: its writer, its reader, and a value of it whose lists
# hold ``n`` records.
ROUND_TRIPS = {
    "paths": (paths_to_json, paths_from_json, lambda n: SampleResult(n, tuple(
        PathSpec("scan", ("a", f"v{i}"), 0.5 * i, i + 0.25) for i in range(n)))),
    "dataset": (emit_r2r_json, read_r2r_json, lambda n: [
        DatasetRecord(i, "scan", 0.5, ("a", f"v{i}", "b"), ("Walk on.", "Go")[:i + 1], 1.75 * i)
        for i in range(n)]),
    "supervision": (emit_supervision_json, read_supervision_json, lambda n: [
        WordObjectSupervision(i, ("walk", "on")[:i + 1], (0, 2)[:i + 1],
                              (("door", "bed"), ())[:i + 1])
        for i in range(n)]),
    "scene": (write_scene_json, read_scene_json, _scene),
}


@pytest.mark.parametrize("n", [1, 3], ids=["one_record", "several_records"])
@pytest.mark.parametrize("fmt", ROUND_TRIPS)
def test_each_format_reads_back_what_its_writer_wrote(fmt, n):
    """One record renders item by item, several field by field through
    ``_record_texts``; both read back to equal objects."""
    write, read, build = ROUND_TRIPS[fmt]
    value = build(n)
    assert read(write(value)) == value
