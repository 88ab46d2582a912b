"""The clause parser is read off the crafting templates.

``parse_crafted`` builds its clause table from ``render_atom``. The oracle
below is the parser as it was before that: a hand-written inverse of the
template table that restates the stop markers and the capitalisation rule.
One property feeds both parsers clauses assembled from the grammar's own
fragments and junk, and asserts the same atoms or the same error. Another
renders every category name that the scene readers accept under every
clause head and parses it back.
"""
from __future__ import annotations

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import scenes as fixtures
from navscribe.instruction_crafter import (MOTION_CORE, RELATION_SUFFIX, STOP_AT,
                                           STOP_PLAIN, TURN_PREFIX, Motion, ObjectRef,
                                           Turn, make_atom, render_atom)
from navscribe.instruction_executor import InstructionParseError, parse_crafted
from navscribe.object_saliency import Relation
from navscribe.scene_metadata import parse_house, read_scene_json, write_scene_json

# ---------------------------------------------------------------------------
# The hand-written parser, kept as the oracle
# ---------------------------------------------------------------------------


def _oracle_parse_crafted(text: str) -> list:
    if not text or not text.endswith("."):
        raise InstructionParseError("instruction must end with a period", 0, text)
    clauses = text[:-1].split(". ")
    return [_parse_clause(clause, i) for i, clause in enumerate(clauses)]


def _parse_clause(clause: str, index: int):
    if clause == STOP_PLAIN:
        return make_atom(Turn.NONE, Motion.STOP)
    if clause.startswith(STOP_AT):
        rest = clause[len(STOP_AT):]
        for relation in (Relation.LEFT, Relation.RIGHT):
            marker = f"{relation.value} of the "
            if rest.startswith(marker):
                return _stop_with(rest[len(marker):], relation, index, clause)
        return _stop_with(rest, Relation.TOWARD, index, clause)

    turn = Turn.NONE
    rest = clause
    for candidate, prefix in TURN_PREFIX.items():
        if prefix and clause.startswith(prefix):
            turn = candidate
            rest = clause[len(prefix):]
            break
    if turn is Turn.NONE:
        # No prefix, so the motion core itself was capitalized.
        if not rest or not rest[0].isupper():
            raise InstructionParseError("unrecognized clause", index, clause)
        rest = rest[0].lower() + rest[1:]

    for motion, core in MOTION_CORE.items():
        if rest == core:
            return make_atom(turn, motion)
        if not rest.startswith(core):
            continue
        tail = rest[len(core):]
        for relation, suffix in RELATION_SUFFIX.items():
            if tail.startswith(suffix):
                category = tail[len(suffix):]
                if _valid_category(category):
                    return make_atom(turn, motion, ObjectRef(category, relation))
        raise InstructionParseError("unrecognized object phrase", index, clause)
    raise InstructionParseError("unrecognized clause", index, clause)


def _stop_with(category: str, relation: Relation, index: int, clause: str):
    if not _valid_category(category):
        raise InstructionParseError("invalid stop object", index, clause)
    return make_atom(Turn.NONE, Motion.STOP, ObjectRef(category, relation))


def _valid_category(category: str) -> bool:
    return bool(category) and category == category.strip()


def _outcome(parse, text: str):
    try:
        return parse(text)
    except InstructionParseError as exc:
        return str(exc), exc.clause_index, exc.fragment


# ---------------------------------------------------------------------------
# Clauses from the grammar's fragments
# ---------------------------------------------------------------------------

# The 13 (turn, motion) pairs, each bare and with an object on each side:
# the 52 clause heads.
_PAIRS = [(turn, motion) for turn in Turn for motion in Motion
          if motion is not Motion.STOP or turn is Turn.NONE]
_RELATIONS = [None, *Relation]

_TURNS = [prefix for prefix in TURN_PREFIX.values() if prefix]
_CORES = list(MOTION_CORE.values())
_CATEGORIES = ["sofa", "chest of drawers", " sofa", "sofa ", " ", "a\tb", "\xa0x",
               "left of the sofa", "right of the ", "the", "sofa.", "Stop there"]
_FRAGMENTS = st.sampled_from(
    _TURNS + [prefix.lower() for prefix in _TURNS]
    + _CORES + [core.capitalize() for core in _CORES] + [core.upper() for core in _CORES]
    + list(RELATION_SUFFIX.values())
    + [STOP_PLAIN, STOP_AT, "left of the ", "right of the ", "Stop right at the left of the"]
    + _CATEGORIES
    + ["", ".", ". ", ",", " ", "Turn", "Walk", "Stop", "the ", "İ", "K"])
_JUNK = st.text(max_size=3)

_shaped = st.tuples(
    st.sampled_from([""] + _TURNS + [prefix.lower() for prefix in _TURNS]),
    st.sampled_from(_CORES + [core.capitalize() for core in _CORES]),
    st.sampled_from([""] + list(RELATION_SUFFIX.values())),
    st.sampled_from([""] + _CATEGORIES),
).map("".join)
_stop_shaped = st.tuples(
    st.sampled_from([STOP_PLAIN, STOP_AT, STOP_AT.lower(), STOP_AT.rstrip()]),
    st.sampled_from(["", "left of the ", "right of the ", "left of the", "toward the "]),
    st.sampled_from([""] + _CATEGORIES),
).map("".join)
_loose = st.lists(st.one_of(_FRAGMENTS, _JUNK), max_size=5).map("".join)
# Rendered clauses, so that later clauses of a text are reached too. They
# come from the templates alone: make_atom refuses a stop toward "left of the
# sofa", whose text reads as a stop at the left of the sofa.
_rendered = st.builds(
    lambda pair, relation, category: render_atom(
        *pair, None if relation is None else ObjectRef(category, relation)),
    st.sampled_from(_PAIRS), st.sampled_from(_RELATIONS),
    st.sampled_from(["sofa", "chest of drawers", "left of the sofa", "sofa."]))
_clauses = st.one_of(_rendered, _shaped, _stop_shaped, _loose)
_texts = st.tuples(st.lists(_clauses, min_size=1, max_size=4).map(". ".join),
                   st.sampled_from([".", ".", ".", ".", "", ". ", ".."])).map("".join)


@settings(max_examples=1500)
@given(_texts)
def test_parser_equals_the_hand_written_oracle(text):
    assert _outcome(parse_crafted, text) == _outcome(_oracle_parse_crafted, text)


def test_the_three_clause_errors_keep_their_messages():
    cases = {
        "Stop right at the  sofa": "invalid stop object",
        "Stop right at the left of the ": "invalid stop object",
        "Walk straight toward the sofa ": "unrecognized object phrase",
        "Turn left, go up the stairsx": "unrecognized object phrase",
        "Stop therex": "unrecognized clause",
        "walk straight": "unrecognized clause",
        "Turn left, Walk straight": "unrecognized clause",
    }
    for clause, message in cases.items():
        text = f"Walk straight. {clause}."
        assert _outcome(parse_crafted, text) == (f"clause 1: {message}: {clause!r}", 1, clause)
        assert _outcome(_oracle_parse_crafted, text) == _outcome(parse_crafted, text)


# ---------------------------------------------------------------------------
# Every name the scene readers accept, under every clause head
# ---------------------------------------------------------------------------

_TINY_SCENE_JSON = write_scene_json(parse_house(fixtures.TINY_HOUSE))


def _ingested(raw: str) -> list[str]:
    """The category names that the .house and scene JSON readers make of
    ``raw``, where they accept it, as the crafter names them."""
    names = []
    token = raw.replace(" ", "_")
    try:
        scene = parse_house(fixtures.TINY_HOUSE.replace("C 1 1 coffee_table", f"C 1 1 {token}"))
    except ValueError:
        pass
    else:
        names.append(scene.categories[1].name)
    doc = json.loads(_TINY_SCENE_JSON)
    doc["categories"][1]["name"] = raw
    try:
        scene = read_scene_json(json.dumps(doc))
    except ValueError:
        pass
    else:
        names.append(scene.categories[1].name)
    return [" ".join(name.split()) for name in names]


_NAME_PARTS = st.one_of(
    st.text(max_size=4),
    st.text(alphabet="ab_. ", max_size=6),
    st.sampled_from(["sofa", "chest of drawers", " ", "_", ".", ". ", "..", "left of the ",
                     "right of the ", "left of the", "stop there", " toward the ", "the",
                     "Sofa", "\t", "\xa0", "İ", "ß", "K", "down the left of the "]),
)
_raw_names = st.lists(_NAME_PARTS, min_size=1, max_size=4).map("".join)


@settings(max_examples=500)
@given(_raw_names)
def test_every_ingestable_category_parses_back_under_every_head(raw):
    for name in _ingested(raw):
        for i, ((turn, motion), relation) in enumerate(itertools.product(_PAIRS, _RELATIONS)):
            ref = None if relation is None else ObjectRef(name, relation)
            stop_ref = ObjectRef(name, list(Relation)[i % 3])
            atoms = [make_atom(turn, motion, ref), make_atom(Turn.NONE, Motion.STOP, stop_ref)]
            assert parse_crafted(". ".join(atom.text for atom in atoms) + ".") == atoms


def test_bundled_and_odd_names_are_ingested():
    assert _ingested("coffee table") == ["coffee table", "coffee table"]
    assert _ingested("sofa.") == ["sofa.", "sofa."]
    assert _ingested("a_b") == ["a b", "a_b"]  # underscores are spaces in .house only
    assert _ingested("left of the sofa") == []
    assert _ingested("a. b") == []
