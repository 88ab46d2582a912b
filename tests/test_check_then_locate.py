"""Check then locate: each reader equals its locating path.

``parse_house``, ``read_scene_json``, ``parse_connectivity`` and the other
JSON readers first check a whole document in bulk and walk it record by
record, cell by cell or token by token only when the bulk check refuses.
Each property here runs a reader twice on the same valid or mutated
document: as it is, and with every bulk check made to refuse, so that only
the locating path runs. Both runs must give the same model, or the same
error type, message and location. Connectivity edges are also checked
against an all-pairs enumeration.
"""
from __future__ import annotations

import json
import math
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navscribe import fixtures, jsonio, scene_metadata
from navscribe.nav_graph import (PathSpec, SampleResult, parse_connectivity, paths_from_json,
                                 paths_to_json)
from navscribe.scene_metadata import parse_house, read_scene_json, write_scene_json
from navscribe.supervision_export import (DatasetRecord, WordObjectSupervision, emit_r2r_json,
                                          emit_supervision_json, read_r2r_json,
                                          read_supervision_json)


def _located_only():
    """Patches that make every bulk check refuse."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(jsonio, "_bulk", lambda form, values: None))
    stack.enter_context(mock.patch.object(scene_metadata, "_records_in_bulk", lambda text: None))
    stack.enter_context(mock.patch.object(scene_metadata, "_all_valid", lambda *records: False))
    return stack


def _outcome(reader, text):
    try:
        return ("ok", reader(text))
    except ValueError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_number", None),
                getattr(exc, "json_path", None))


def _both_ways(reader, text):
    with _located_only():
        located = _outcome(reader, text)
    return _outcome(reader, text), located


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
    got, located = _both_ways(parse_house, text)
    assert got == located


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
    got, located = _both_ways(read_scene_json, text)
    assert got == located


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
    got, located = _both_ways(parse_connectivity, text)
    if got[0] == "ok":
        assert located[0] == "ok"
        graph, reference = got[1], located[1]
        assert graph.viewpoints == reference.viewpoints
        assert list(graph.edges.items()) == list(reference.edges.items())
        assert list(graph.edges.items()) == _all_pairs_edges(json.loads(text))
    else:
        assert got == located
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
        got, located = _both_ways(reader, mutated)
        assert got == located

    check()


# axis0 of TINY_HOUSE's line 11 is (1, 0, 0), so its norm is its first
# token. 1.001 and 0.9990000001 are inside AXIS_TOL but within the bulk
# check's margin of it, so only the exact loop accepts them.
@pytest.mark.parametrize("token,accepted", [("1.0009", True), ("1.001", True),
                                            ("0.9990000001", True), ("0.999", False),
                                            ("1.0010001", False), ("0.9989999", False)])
def test_axis_norms_at_the_tolerance(token, accepted):
    line = fixtures.TINY_HOUSE.split("\n")[10]
    assert line.split()[7:10] == ["1.000000", "0.000000", "0.000000"]
    text = fixtures.TINY_HOUSE.replace(line, line.replace(" 1.000000 ", f" {token} ", 1))
    got, located = _both_ways(parse_house, text)
    assert got == located
    assert (got[0] == "ok") == accepted
