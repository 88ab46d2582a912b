"""Check then locate: each reader equals an item-by-item oracle.

``parse_house``, ``read_scene_json``, ``parse_connectivity`` and the other
JSON readers check each list of values, lines or records as a whole in one
pass, and walk it one value at a time only when that check refuses, to
raise the first fault in document order. The oracles below are the readers
as they were before that pass: a JSON checker that takes one value at a
time, a ``.house`` reader that converts one line at a time, and scene
rules checked record by record. Each property runs a reader and its oracle
on the same valid or mutated document. Both runs must give the same model,
or the same error type, message and location. Connectivity edges are also
checked against an all-pairs enumeration.
"""
from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import math
import sys
from contextlib import ExitStack
from types import SimpleNamespace
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navscribe import fixtures, jsonio, nav_graph, scene_metadata, supervision_export
from navscribe.jsonio import JsonSchemaError
from navscribe.nav_graph import (PathSpec, SampleResult, parse_connectivity, paths_from_json,
                                 paths_to_json)
from navscribe.scene_metadata import (_KIND_OF, _LAYOUTS, _SECTION_OF, AXIS_TOL,
                                      HouseParseError, SceneModel, _dot, _index_sorted, _norm,
                                      numbered_lines, parse_house, read_scene_json,
                                      write_scene_json)
from navscribe.supervision_export import (DatasetRecord, WordObjectSupervision, emit_r2r_json,
                                          emit_supervision_json, read_r2r_json,
                                          read_supervision_json)

# ---------------------------------------------------------------------------
# Oracle: the JSON schema checks, one value at a time
# ---------------------------------------------------------------------------


def _expected(what: str, value: Any) -> JsonSchemaError:
    return JsonSchemaError(f"expected {what}, found {jsonio._KIND[type(value)]}", "")


def _exactly(kind: type, what: str):
    def check(value):
        if type(value) is not kind:
            raise _expected(what, value)
        return value

    return check


def _number(value):
    if type(value) is not float and type(value) is not int:
        raise _expected("a number", value)
    if not -sys.float_info.max <= value <= sys.float_info.max:
        found = value if type(value) is float else "an integer out of range"
        raise JsonSchemaError(f"expected a finite number, found {found}", "")
    return float(value)


def _array(item, min_len=0):
    def check(value):
        if type(value) is not list:
            raise _expected("an array", value)
        if len(value) < min_len:
            raise JsonSchemaError(f"expected at least {min_len} item(s), found {len(value)}", "")
        out = []
        try:
            out.extend(map(item, value))
        except JsonSchemaError as exc:
            exc.json_path = f"[{len(out)}]{exc.json_path}"
            raise
        return tuple(out)

    return check


_numbers = _array(_number)


def _vec3(value):
    if type(value) is not list or len(value) != 3:
        raise JsonSchemaError("expected an array of 3 numbers", "")
    return _numbers(value)


def _record(closed):
    def record(build, **fields):
        def check(value):
            if type(value) is not dict:
                raise _expected("an object", value)
            if value.keys() != fields.keys():
                missing = [key for key in fields if key not in value]
                if missing or closed:
                    problem = "missing" if missing else "unexpected"
                    key = (missing or [key for key in value if key not in fields])[0]
                    raise JsonSchemaError(f"{problem} key {key!r}", "")
            checked = []
            for name, field in fields.items():
                try:
                    checked.append(field(value[name]))
                except JsonSchemaError as exc:
                    exc.json_path = f".{name}{exc.json_path}"
                    raise
            try:
                return build(*checked)
            except ValueError as exc:
                raise JsonSchemaError(str(exc), "") from None

        return check

    return record


_ITEM_BY_ITEM = SimpleNamespace(
    integer=_exactly(int, "an integer"), string=_exactly(str, "a string"),
    boolean=_exactly(bool, "a boolean"), number=_number, vec3=_vec3, array=_array,
    record=_record(closed=True), open_record=_record(closed=False))


def _rebuilt_schemas(*modules):
    """Each module-level ``*_SCHEMA`` of ``modules``, mapped to its own
    expression evaluated with the item-by-item checks."""
    rebuilt = {}
    for module in modules:
        namespace = {**vars(module), "jsonio": _ITEM_BY_ITEM}
        for node in ast.parse(inspect.getsource(module)).body:
            if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.endswith("_SCHEMA")):
                code = compile(ast.Expression(node.value), module.__file__, "eval")
                rebuilt[getattr(module, node.targets[0].id)] = eval(code, namespace)
    return rebuilt


_SCHEMAS = _rebuilt_schemas(scene_metadata, nav_graph, supervision_export)


def _load_item_by_item(text, schema):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise JsonSchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise JsonSchemaError("invalid JSON: nested too deeply") from None
    try:
        return _SCHEMAS[schema](doc)
    except JsonSchemaError as exc:
        exc.json_path = "$" + exc.json_path
        raise


# ---------------------------------------------------------------------------
# Oracle: the scene rules, one record at a time
# ---------------------------------------------------------------------------


def _indexed(kind: str, records, err):
    """(position, record) in order, each checked first for an index in
    range and not seen before."""
    n, seen = len(records), set()
    for pos, rec in enumerate(records):
        if not 0 <= rec.index < n:
            raise err(kind, pos, f"index {rec.index} out of range ({n} {_SECTION_OF[kind]})")
        if rec.index in seen:
            raise err(kind, pos, f"duplicate index {rec.index}")
        seen.add(rec.index)
        yield pos, rec


def _validate_records_one_by_one(categories, regions, objects, panoramas, n_levels, err):
    n_categories, n_regions = len(categories), len(regions)

    for pos, cat in _indexed("category", categories, err):
        if not cat.name.strip():
            raise err("category", pos, "empty name")
        if ". " in cat.name or cat.name.startswith(("left of the ", "right of the ")):
            raise err("category", pos, f"name {cat.name!r} would not parse back from crafted text")

    for pos, region in _indexed("region", regions, err):
        if region.level_index < 0 or (n_levels is not None and region.level_index >= n_levels):
            raise err("region", pos, f"level index {region.level_index} does not resolve")
        for lo, hi in zip(region.bbox_lo, region.bbox_hi):
            if lo > hi:
                raise err("region", pos, "bbox low exceeds bbox high")

    names: set[str] = set()
    for pos, pano in _indexed("panorama", panoramas, err):
        if pano.name in names:
            raise err("panorama", pos, f"duplicate name {pano.name!r}")
        names.add(pano.name)
        if pano.region_index < -1 or pano.region_index >= n_regions:
            raise err("panorama", pos, f"region index {pano.region_index} does not resolve")

    for pos, obj in _indexed("object", objects, err):
        if obj.region_index < -1 or obj.region_index >= n_regions:
            raise err("object", pos, f"region index {obj.region_index} does not resolve")
        if not 0 <= obj.category_index < n_categories:
            raise err("object", pos, f"category index {obj.category_index} does not resolve")
        for axis_name, axis in (("axis0", obj.axis0), ("axis1", obj.axis1)):
            if abs(_norm(axis) - 1.0) > AXIS_TOL:
                raise err("object", pos, f"{axis_name} is not unit length (norm {_norm(axis):.6f})")
        if abs(_dot(obj.axis0, obj.axis1)) > AXIS_TOL:
            raise err("object", pos, "axis0 and axis1 are not orthogonal")
        if any(r < 0.0 for r in obj.radii):
            raise err("object", pos, f"negative radius in {obj.radii}")


# ---------------------------------------------------------------------------
# Oracle: the .house reader, one line at a time
# ---------------------------------------------------------------------------


def _records_line_by_line(text):
    records = {kind: [] for kind in _LAYOUTS}
    lines = {kind: [] for kind in _LAYOUTS}
    for line_no, raw in numbered_lines(text):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if not records["H"] and kind != "H":
            raise HouseParseError("expected the H header record first", line_no)
        if kind not in _LAYOUTS:
            raise HouseParseError(f"unknown record type {kind!r}", line_no)
        build, n_tokens, padding, fields = _LAYOUTS[kind]
        if len(tokens) != n_tokens:
            raise HouseParseError(
                f"{kind} record: expected {n_tokens} tokens, found {len(tokens)}", line_no)
        if kind == "H" and records["H"]:
            raise HouseParseError("duplicate H header record", line_no)
        try:
            for at in padding:
                if tokens[at] != "0":
                    raise ValueError(
                        f"expected literal '0' padding at token {at}, found {tokens[at]!r}")
            record = build(*[convert(tokens, at, what) for what, convert, at in fields])
        except ValueError as exc:
            raise HouseParseError(f"{kind} record: {exc}", line_no) from None
        records[kind].append(record)
        lines[kind].append(line_no)
    if not records["H"]:
        raise HouseParseError("empty document: missing H header record", 1)
    return records, lines


def _parse_house_line_by_line(text):
    records, lines = _records_line_by_line(text)
    [(scan_id, counts)] = records["H"]
    for what, declared in counts.items():
        found = len(records[_KIND_OF[what]])
        if declared != found:
            raise HouseParseError(
                f"{what} count mismatch: header declares {declared}, found {found}",
                lines["H"][0])
    sections = [records[kind] for kind in "CROP"]
    _validate_records_one_by_one(
        *sections, counts["level"],
        lambda kind, pos, msg: HouseParseError(f"{kind} record: {msg}", lines[_KIND_OF[kind]][pos]))
    return _index_sorted(SceneModel(scan_id, *sections))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _outcome(reader, text):
    try:
        return ("ok", reader(text))
    except ValueError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_number", None),
                getattr(exc, "json_path", None))


def _with_oracle(reader, text):
    """The outcomes of ``reader`` and of its oracle on ``text``."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(jsonio, "load", _load_item_by_item))
        stack.enter_context(mock.patch.object(scene_metadata, "_validate_records",
                                              _validate_records_one_by_one))
        oracle = _outcome(_parse_house_line_by_line if reader is parse_house else reader, text)
    return _outcome(reader, text), oracle


# ---------------------------------------------------------------------------
# .house text
# ---------------------------------------------------------------------------


def _many_objects(text: str, n_objects: int) -> str:
    """A valid house text whose O records repeat the first one's geometry
    under new indices, so that it spans several conversion batches."""
    lines = text.split("\n")
    header = lines[0].split()
    first_object = next(line for line in lines if line.startswith("O "))
    kept = [line for line in lines[1:] if line and not line.startswith("O ")]
    objects = []
    for index in range(n_objects):
        tokens = first_object.split()
        tokens[1] = str(index)
        objects.append(" ".join(tokens))
    header[8] = str(n_objects)
    return "\n".join([" ".join(header), *kept, *objects]) + "\n"


_HOUSES = ([fixtures.TINY_HOUSE, _many_objects(fixtures.TINY_HOUSE, 300)]
           + [fx.house_text for fx in fixtures.all_scenes()])
# Tokens that some converter or check refuses, or accepts only just: padding
# other than "0", non-finite and out-of-range numbers, indices beyond the
# lists, and axis components at the edge of the unit-length tolerance.
_HOUSE_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "00", "-0", "+0", "nan", "inf", "-inf", "1e400", "NaN",
                     "1_0", "0x1", "ab", "-1", "-2", "999", "0.9995", "1.0005", "0.999",
                     "1.001", "0.99900001", "1.00099999", "0.0005", "-0.0005", "__", "Ab",
                     "left_of_the_x", "a._b", "H", "O", "P"]),
    st.integers(-3, 12).map(str),
    st.floats(-2, 2).map(repr),
    st.text(max_size=4),
)


@st.composite
def _house_texts(draw):
    lines = draw(st.sampled_from(_HOUSES)).split("\n")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["token", "token", "token", "drop", "duplicate",
                                    "swap", "truncate", "crlf"]))
        if how == "token" and lines[at].split():
            tokens = lines[at].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_HOUSE_TOKENS)
            lines[at] = " ".join(tokens)
        elif how == "drop":
            del lines[at]
        elif how == "duplicate":
            lines.insert(at, lines[at])
        elif how == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif how == "truncate":
            lines[at] = lines[at][:draw(st.integers(0, max(0, len(lines[at]) - 1)))]
        elif how == "crlf":
            lines[at] += "\r"
    return "\n".join(lines)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_house_texts())
def test_parse_house_equals_its_locating_path(text):
    got, oracle = _with_oracle(parse_house, text)
    assert got == oracle


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


# Values that some check refuses or that only its per-item path accepts:
# booleans where integers go, integers where floats go, huge integers,
# non-finite floats (stdlib json reads and writes NaN and Infinity), and
# axis components at the edge of the unit-length tolerance.
_JSON_VALUES = st.one_of(
    st.sampled_from([True, False, None, 0, 1, -1, 2, 7, 10**400, -10**400, 0.0, 1.0, -1.0,
                     1.5, math.nan, math.inf, -math.inf, 0.9995, 1.0005, 0.999, 1.001,
                     "", "a", "0", [], [1.0, 2.0], [0.0, 0.0, 0.0], [1, 0, 0], {}]),
    st.integers(-2, 6),
    st.floats(-2, 2),
)


def _paths(doc):
    """The JSON path of every value in ``doc``, as a list of keys and indices."""
    yield []
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        for rest in _paths(value):
            yield [key, *rest]


@st.composite
def _mutated(draw, doc):
    """``doc`` with up to three values replaced, keys dropped or added, or
    array items dropped or repeated."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        how = draw(st.sampled_from(["value", "value", "value", "drop", "repeat", "extra"]))
        if how == "value":  # a copy: a later edit must not change the sampled value
            parent[key] = json.loads(json.dumps(draw(_JSON_VALUES)))
        elif how == "drop":
            del parent[key]
        elif how == "repeat" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        elif how == "extra" and isinstance(parent[key], dict):
            parent[key]["visible"] = json.loads(json.dumps(draw(_JSON_VALUES)))
    return json.dumps(doc)


_SCENE_DOCS = [json.loads(write_scene_json(parse_house(text))) for text in _HOUSES]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.sampled_from(_SCENE_DOCS).flatmap(_mutated))
def test_read_scene_json_equals_its_locating_path(text):
    got, oracle = _with_oracle(read_scene_json, text)
    assert got == oracle


def _all_pairs_edges(doc):
    """The edges of a schema-valid connectivity document in the order of a
    loop over all pairs (i, j), i < j, or, if an edge has zero or infinite
    length, the text of the error for the first such edge."""
    positions = [(float(e["pose"][3]), float(e["pose"][7]), float(e["pose"][11])) for e in doc]
    edges = []
    for i in range(len(doc)):
        for j in range(i + 1, len(doc)):
            if not (doc[i]["included"] and doc[j]["included"]):
                continue
            if not (doc[i]["unobstructed"][j] or doc[j]["unobstructed"][i]):
                continue
            length = math.dist(positions[i], positions[j])
            a, b = doc[i]["image_id"], doc[j]["image_id"]
            if not 0.0 < length < math.inf:
                return (f"$[{i}]: {'zero' if length <= 0.0 else 'infinite'}-length edge "
                        f"between {a!r} and {b!r}")
            edges.append(((a, b) if a <= b else (b, a), length))
    return edges


# Positions on a coarse grid, so that some viewpoints coincide and their
# edges have zero length; one far value makes edges of infinite length.
_COORDS = st.sampled_from([0.0, 1.0, 2.0, -1.5, 1e308])


@st.composite
def _connectivity_docs(draw):
    n = draw(st.integers(0, 7))
    ids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=n, max_size=n, unique=True))
    doc = []
    for image_id in ids:
        pose = [0.0] * 16
        pose[3], pose[7], pose[11] = (draw(_COORDS), draw(_COORDS), draw(_COORDS))
        doc.append({"image_id": image_id, "pose": pose, "included": draw(st.booleans()),
                    "unobstructed": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    "height": 1.5, "visible": [False] * n})
    return doc


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_connectivity_docs().flatmap(_mutated))
def test_parse_connectivity_equals_its_locating_path(text):
    got, oracle = _with_oracle(parse_connectivity, text)
    if got[0] == "ok":
        assert oracle[0] == "ok"
        graph, reference = got[1], oracle[1]
        assert graph.viewpoints == reference.viewpoints
        assert list(graph.edges.items()) == list(reference.edges.items())
        assert list(graph.edges.items()) == _all_pairs_edges(json.loads(text))
    else:
        assert got == oracle
        if "-length edge" in got[2]:
            assert got[2] == _all_pairs_edges(json.loads(text))


# The other readers on the same schema checker, from small valid documents.
_OTHER_READERS = {
    "dataset": (read_r2r_json, emit_r2r_json([
        DatasetRecord(i, "s", 0.5 * i, ("a", "b", "c")[:i + 1],
                      ("go left", "stop")[:i + 1], 1.5) for i in range(3)])),
    "supervision": (read_supervision_json, emit_supervision_json([
        WordObjectSupervision(i, ("go", "left")[:i], (0, 1)[:i], (("chair", "sofa"), ())[:i])
        for i in range(3)])),
    "paths": (paths_from_json, paths_to_json(SampleResult(tuple(
        PathSpec("s", ("a", "b", "a")[:i + 1], 0.5, float(i)) for i in range(3)), 0))),
}


@pytest.mark.parametrize("reader,text", _OTHER_READERS.values(), ids=_OTHER_READERS.keys())
def test_json_readers_equal_their_locating_path(reader, text):
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_mutated(json.loads(text)))
    def check(mutated):
        got, oracle = _with_oracle(reader, mutated)
        assert got == oracle

    check()


# axis0 of TINY_HOUSE's line 11 is (1, 0, 0), so its norm is its first
# token. 1.001 and 0.9990000001 are inside AXIS_TOL but within the hypot
# sweep's margin of it, so only the exact norm accepts them.
@pytest.mark.parametrize("token,accepted", [("1.0009", True), ("1.001", True),
                                            ("0.9990000001", True), ("0.999", False),
                                            ("1.0010001", False), ("0.9989999", False)])
def test_axis_norms_at_the_tolerance(token, accepted):
    line = fixtures.TINY_HOUSE.split("\n")[10]
    assert line.split()[7:10] == ["1.000000", "0.000000", "0.000000"]
    text = fixtures.TINY_HOUSE.replace(line, line.replace(" 1.000000 ", f" {token} ", 1))
    got, oracle = _with_oracle(parse_house, text)
    assert got == oracle
    assert (got[0] == "ok") == accepted


# ---------------------------------------------------------------------------
# Scene rules: several faults at once, in every kind
# ---------------------------------------------------------------------------


_SCENES = [parse_house(text) for text in _HOUSES]
_KIND_ORDER = ["category", "region", "panorama", "object"]  # the order faults are raised in
# Field values that break a rule, meet it only just, or keep it, per field.
_AXES = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.001, 0.0, 0.0),
                         (0.9990000001, 0.0, 0.0), (0.999, 0.0, 0.0), (1.0010001, 0.0, 0.0),
                         (2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1e308, 1e308, 0.0),
                         (0.002, 1.0, 0.0), (0.0011, 1.0, 0.0), (0.707107, 0.707107, 0.0)])
_FIELD_VALUES = {
    "index": st.integers(-2, 6),
    "name": st.sampled_from(["", "  ", "a. b", "a.b", "left of the x", "right of the y",
                             "left of them", "bed", "p000", "p001"]),
    "level_index": st.integers(-2, 4),
    "bbox_lo": st.sampled_from([(9.0, -5.0, 0.0), (-5.0, 9.0, 0.0), (-5.0, -5.0, 9.0),
                                (-9.0, -9.0, -9.0)]),
    "bbox_hi": st.sampled_from([(-9.0, 5.0, 3.0), (5.0, 5.0, -9.0), (9.0, 9.0, 9.0)]),
    "region_index": st.integers(-3, 4),
    "category_index": st.integers(-2, 4),
    "axis0": _AXES,
    "axis1": _AXES,
    "radii": st.sampled_from([(1.0, 1.0, 1.0), (-0.0, 1.0, 1.0), (1.0, -1e-9, 1.0),
                              (0.0, 0.0, 0.0), (-1.0, 2.0, -3.0)]),
}
_FAULTY_FIELDS = {
    "category": ["index", "name"],
    "region": ["index", "level_index", "bbox_lo", "bbox_hi"],
    "panorama": ["index", "name", "region_index"],
    "object": ["index", "region_index", "category_index", "axis0", "axis1", "radii"],
}


@st.composite
def _faulty_scenes(draw):
    """The record lists of a valid scene with 1 to 5 records changed in 1
    to 3 fields each, and the level count to check against. The faults fall
    in the kinds from a drawn one on, so that each kind is often the first
    with a fault, and mostly in the first few records, so that they share
    records."""
    scene = draw(st.sampled_from(_SCENES))
    sections = {kind: list(getattr(scene, _SECTION_OF[kind])) for kind in _KIND_ORDER}
    kinds = _KIND_ORDER[draw(st.integers(0, 3)):]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        records = sections[kind]
        pos = draw(st.integers(0, min(3, len(records) - 1)) | st.just(len(records) - 1))
        fields = draw(st.lists(st.sampled_from(_FAULTY_FIELDS[kind]), min_size=1, max_size=3))
        records[pos] = dataclasses.replace(
            records[pos], **{field: draw(_FIELD_VALUES[field]) for field in fields})
    return [sections[kind] for kind in ("category", "region", "object", "panorama")], draw(
        st.sampled_from([None, 1, 3]))


class _Fault(Exception):
    pass


def _first_fault(validate, sections, n_levels):
    try:
        validate(*sections, n_levels, lambda kind, pos, message: _Fault(kind, pos, message))
    except _Fault as fault:
        return fault.args
    return None


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_faulty_scenes())
def test_validate_records_raises_the_first_fault_of_its_oracle(scene):
    sections, n_levels = scene
    assert (_first_fault(scene_metadata._validate_records, sections, n_levels)
            == _first_fault(_validate_records_one_by_one, sections, n_levels))


# ---------------------------------------------------------------------------
# Document order: with several faults, the first one in the text is raised
# ---------------------------------------------------------------------------


def _json_error(reader, doc) -> str:
    with pytest.raises(JsonSchemaError) as info:
        reader(json.dumps(doc))
    return str(info.value)


def _dataset_doc(n: int) -> list:
    return json.loads(emit_r2r_json([DatasetRecord(i, "s", 0.5, ("a", "b", "c"), ("go",), 1.5)
                                     for i in range(n)]))


def test_a_fault_in_an_earlier_item_wins():
    doc = _dataset_doc(4)
    doc[3]["path"] = []
    assert _json_error(read_r2r_json, doc) == "$[3].path: expected at least 1 item(s), found 0"
    doc[1]["path"][2] = 5
    assert _json_error(read_r2r_json, doc) == "$[1].path[2]: expected a string, found integer"


def test_an_object_fault_and_a_field_fault_in_item_order():
    doc = _dataset_doc(4)
    del doc[2]["scan"]
    doc[3]["distance"] = "far"
    assert _json_error(read_r2r_json, doc) == "$[2]: missing key 'scan'"
    doc[1]["distance"] = "far"
    assert _json_error(read_r2r_json, doc) == "$[1].distance: expected a number, found string"


def test_the_earlier_field_in_the_schema_wins_inside_one_object():
    doc = _dataset_doc(2)
    fields = {key: value for key, value in doc[0].items() if key not in ("distance", "path_id")}
    doc[0] = {"distance": "far", **fields, "path_id": True}
    assert _json_error(read_r2r_json, doc) == "$[0].path_id: expected an integer, found boolean"


def test_a_builder_error_in_an_earlier_item_wins():
    doc = _dataset_doc(2)
    doc[1]["path_id"] = "one"
    doc[0]["heading"] = 7.0
    assert _json_error(read_r2r_json, doc) == "$[0]: heading must be in [0, 2*pi), got 7.0"


def test_nested_arrays_report_their_first_fault():
    doc = json.loads(emit_supervision_json([
        WordObjectSupervision(i, ("go", "left"), (0, 1), (("chair",), ("sofa", "lamp")))
        for i in range(3)]))
    doc[2]["path_id"] = "two"
    doc[1]["objects_of_token"][1][0] = 3
    assert (_json_error(read_supervision_json, doc)
            == "$[1].objects_of_token[1][0]: expected a string, found integer")
    doc[1]["objects_of_token"][0] = "chair"
    assert (_json_error(read_supervision_json, doc)
            == "$[1].objects_of_token[0]: expected an array, found string")


def _house_error(lines: list[str]) -> tuple[int, str]:
    with pytest.raises(HouseParseError) as info:
        parse_house("\n".join(lines))
    return info.value.line_number, str(info.value)


def test_the_first_faulty_house_line_wins():
    lines = _many_objects(fixtures.TINY_HOUSE, 300).split("\n")
    at = [n for n, line in enumerate(lines) if line.startswith("O ")][5]  # in the first batch
    later = at + 6
    unknown = lines[:later] + ["X 0"] + lines[later:]
    bad_category = lines[:later] + ["C 2 2 lamp zz lamp 0 0 0 0 0"] + lines[later:]
    assert _house_error(unknown) == (later + 1, f"line {later + 1}: unknown record type 'X'")
    assert _house_error(bad_category) == (
        later + 1, f"line {later + 1}: C record: invalid integer 'zz' for mpcat40 index")
    tokens = lines[at].split()
    tokens[4] = "nan"  # the x of the center
    bad_object = " ".join(tokens)
    expected = (at + 1, f"line {at + 1}: O record: non-finite number for center")
    for text in (unknown, bad_category):
        text[at] = bad_object
        assert _house_error(text) == expected
