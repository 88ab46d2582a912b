"""House text parsing, validation errors, and canonical scene JSON."""
from __future__ import annotations

import importlib.util
import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenes as fixtures
from navscribe.scene_metadata import (_SECTION_OF, HouseParseError, SceneJsonError,
                                      SceneModel, category_name, head_noun, parse_house,
                                      read_scene_json, write_scene_json)


class TestTinyHouse:
    def test_counts(self, tiny_scene):
        assert tiny_scene.scan_id == "tiny"
        assert len(tiny_scene.categories) == 2
        assert len(tiny_scene.regions) == 2
        assert len(tiny_scene.objects) == 3
        assert len(tiny_scene.panoramas) == 4

    def test_category_names_cleaned(self, tiny_scene):
        assert tiny_scene.categories[0].name == "king bed"
        assert tiny_scene.categories[1].name == "coffee table"
        assert tiny_scene.categories[0].mpcat40_name == "bed"

    def test_panorama_fields(self, tiny_scene):
        p = tiny_scene.panoramas[0]
        assert p.name == "p000"
        assert p.region_index == 0
        assert p.position == (-1.0, 0.0, 1.5)

    def test_negative_region_index_allowed(self, tiny_scene):
        assert tiny_scene.panoramas[3].region_index == -1
        assert tiny_scene.objects[2].region_index == -1

    def test_object_geometry(self, tiny_scene):
        obj = tiny_scene.objects[1]
        assert obj.category_index == 1
        assert obj.radii == (0.6, 0.5, 0.3)
        assert obj.axis0 == (0.707107, 0.707107, 0.0)
        assert obj.axis1 == (-0.707107, 0.707107, 0.0)


def test_category_name_lookup(tiny_scene):
    assert category_name(tiny_scene, 0) == "king bed"
    assert category_name(tiny_scene, 1) == "coffee table"
    with pytest.raises(ValueError):
        category_name(tiny_scene, 99)


def test_head_noun():
    assert head_noun("chest of drawers") == "drawers"
    assert head_noun("bed") == "bed"
    with pytest.raises(ValueError):
        head_noun("   ")


@pytest.mark.parametrize(
    "label,text,line", fixtures.malformed_house_cases(),
    ids=[case[0] for case in fixtures.malformed_house_cases()],
)
def test_malformed_inputs_name_the_line(label, text, line):
    with pytest.raises(HouseParseError) as err:
        parse_house(text)
    assert err.value.line_number == line
    assert f"line {line}:" in str(err.value)


def test_header_must_come_first():
    lines = fixtures.TINY_HOUSE.splitlines()
    swapped = "\n".join([lines[1], lines[0]] + lines[2:]) + "\n"
    with pytest.raises(HouseParseError) as err:
        parse_house(swapped)
    assert err.value.line_number == 1


def test_second_header_rejected():
    lines = fixtures.TINY_HOUSE.splitlines()
    doubled = "\n".join([lines[0], lines[0]] + lines[1:]) + "\n"
    with pytest.raises(HouseParseError) as err:
        parse_house(doubled)
    assert err.value.line_number == 2


def _insert_tiny(after: int, line_no: int) -> str:
    """TINY_HOUSE with a copy of its line ``line_no`` inserted after line ``after``."""
    lines = fixtures.TINY_HOUSE.split("\n")
    return "\n".join(lines[:after] + [lines[line_no - 1]] + lines[after:])


# Where the header stands among the lines. TINY_HOUSE lines: H 1, C 5-6.
@pytest.mark.parametrize("text,line,message", [
    (_insert_tiny(1, 1), 2, "duplicate H header record"),
    (_insert_tiny(6, 1), 7, "duplicate H header record"),
    (_insert_tiny(0, 5), 1, "expected the H header record first"),
    ("\n \n\t\n\r\n", 1, "empty document: missing H header record"),
], ids=["H-after-H", "H-after-C", "C-before-H", "blank-only"])
def test_header_placement_error_is_pinned(text, line, message):
    with pytest.raises(HouseParseError) as err:
        parse_house(text)
    assert err.value.line_number == line
    assert str(err.value) == f"line {line}: {message}"


def test_nonzero_padding_token_rejected():
    # Token 3 of the header is reserved and must be the literal "0".
    lines = fixtures.TINY_HOUSE.splitlines()
    tokens = lines[0].split()
    tokens[3] = "1"
    bad = "\n".join([" ".join(tokens)] + lines[1:]) + "\n"
    with pytest.raises(HouseParseError) as err:
        parse_house(bad)
    assert err.value.line_number == 1


def test_declared_count_mismatch():
    lines = fixtures.TINY_HOUSE.splitlines()
    tokens = lines[0].split()
    tokens[8] = "4"  # object count
    bad = "\n".join([" ".join(tokens)] + lines[1:]) + "\n"
    with pytest.raises(HouseParseError, match="count mismatch"):
        parse_house(bad)


def test_region_level_out_of_range():
    text = fixtures.TINY_HOUSE.replace(
        "R 0 0 0 0 b", "R 0 3 0 0 b"
    )
    with pytest.raises(HouseParseError, match="level"):
        parse_house(text)


# Crafted text splits clauses at ". " and reads a stop clause's relation
# from its start, so these names would not parse back to the same atoms.
@pytest.mark.parametrize("token", ["x._ytable", "left_of_the_z", "right_of_the_z"])
def test_unparseable_category_name_rejected_at_c_line(token):
    text = fixtures.TINY_HOUSE.replace("C 1 1 coffee_table", f"C 1 1 {token}")
    line = next(i for i, ln in enumerate(text.splitlines(), start=1) if token in ln)
    with pytest.raises(HouseParseError, match="would not parse back") as err:
        parse_house(text)
    assert err.value.line_number == line


class TestSceneJson:
    def test_round_trip_preserves_model(self, tiny_scene):
        again = read_scene_json(write_scene_json(tiny_scene))
        assert again == tiny_scene

    def test_emission_is_a_byte_fixed_point(self, tiny_scene):
        first = write_scene_json(tiny_scene)
        second = write_scene_json(read_scene_json(first))
        assert first == second

    def test_key_order(self, tiny_scene):
        text = write_scene_json(tiny_scene)
        root = list(json.loads(text).keys())
        assert root == ["scan_id", "categories", "regions", "objects", "panoramas"]
        cat = list(json.loads(text)["categories"][0].keys())
        assert cat == ["index", "mapping_index", "name", "mpcat40_index", "mpcat40_name"]

    def test_unknown_root_key_rejected(self, tiny_scene):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["extra"] = 1
        with pytest.raises(SceneJsonError):
            read_scene_json(json.dumps(doc))

    def test_missing_record_key_rejected(self, tiny_scene):
        doc = json.loads(write_scene_json(tiny_scene))
        del doc["objects"][0]["radii"]
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert "objects[0]" in str(err.value)

    def test_bool_is_not_an_int(self, tiny_scene):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["objects"][0]["index"] = True
        with pytest.raises(SceneJsonError):
            read_scene_json(json.dumps(doc))

    def test_shared_validation_applies_to_json(self, tiny_scene):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["objects"][1]["category_index"] = 9
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert "objects[1]" in str(err.value)

    @pytest.mark.parametrize("name", ["Floor", "king  bed", " bed", "bed ", "coffee\ttable"])
    def test_non_canonical_category_name_rejected(self, tiny_scene, name):
        # The .house path lowercases names, so "Floor" would dodge the
        # case-sensitive blacklist only when read from scene JSON.
        doc = json.loads(write_scene_json(tiny_scene))
        doc["categories"][1]["name"] = name
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert err.value.json_path == "$.categories[1].name"

    @pytest.mark.parametrize("name", ["x. ytable", "left of the z", "right of the z"])
    def test_unparseable_category_name_rejected(self, tiny_scene, name):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["categories"][1]["name"] = name
        with pytest.raises(SceneJsonError, match="would not parse back") as err:
            read_scene_json(json.dumps(doc))
        assert err.value.json_path == "$.categories[1]"

    def test_short_vector_located(self, tiny_scene):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["panoramas"][2]["position"] = [1.0, 2.0]
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert err.value.json_path == "$.panoramas[2].position"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("section,field", [("objects", "center"), ("objects", "axis0"),
                                               ("objects", "axis1"), ("objects", "radii"),
                                               ("panoramas", "position"),
                                               ("regions", "bbox_hi")])
    def test_non_finite_number_rejected(self, tiny_scene, section, field, value):
        # parse_house rejects these through _float_token; both paths must agree.
        doc = json.loads(write_scene_json(tiny_scene))
        doc[section][0][field][0] = value
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert err.value.json_path == f"$.{section}[0].{field}[0]"

    def test_not_an_object_document(self):
        with pytest.raises(SceneJsonError):
            read_scene_json("[1, 2]")

    def test_integer_vector_entries_read_as_floats(self, tiny_scene):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["objects"][0]["center"] = [1, -2, 3]
        center = read_scene_json(json.dumps(doc)).objects[0].center
        assert center == (1.0, -2.0, 3.0)
        assert [type(x) for x in center] == [float, float, float]

    # The JSON text of one vector entry, and the error it must give.
    @pytest.mark.parametrize("token,message", [
        ("NaN", "expected a finite number, found nan"),
        ("Infinity", "expected a finite number, found inf"),
        ("-Infinity", "expected a finite number, found -inf"),
        ("1e400", "expected a finite number, found inf"),
        (str(10**400), "expected a finite number, found an integer out of range"),
        ("true", "expected a number, found boolean"),
        ('"1"', "expected a number, found string"),
        ("null", "expected a number, found null"),
    ])
    def test_bad_vector_entry_is_pinned(self, tiny_scene, token, message):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["objects"][0]["center"][1] = "@entry@"
        text = json.dumps(doc).replace('"@entry@"', token)
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(text)
        assert (err.value.json_path, err.value.args[0]) == ("$.objects[0].center[1]", message)

    @pytest.mark.parametrize("vector", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [], "1,2,3"])
    def test_wrong_length_vector_is_pinned(self, tiny_scene, vector):
        doc = json.loads(write_scene_json(tiny_scene))
        doc["objects"][0]["center"] = vector
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert (err.value.json_path, err.value.args[0]) == (
            "$.objects[0].center", "expected an array of 3 numbers")


def test_bundled_fixture_scenes_parse():
    for fix in fixtures.all_scenes():
        scene = parse_house(fix.house_text)
        assert scene.scan_id == fix.name
        assert scene.objects and scene.panoramas


def _edit_tiny(line: int, edit) -> str:
    return fixtures._mutate_line(fixtures.TINY_HOUSE, line, edit)


def _token_set(position: int, value: str):
    return lambda line: fixtures._set_token(line, position, value)


# One single-fault line per (record kind, converter) pair, plus bad padding
# and a wrong token count for every kind; the raw-token fields (H and P
# names, H and L labels) accept any token and have no fault to pin.
# TINY_HOUSE lines: H 1, L 2, R 3-4, C 5-6, P 7-10, O 11-13.
_SINGLE_FAULTS = [
    ("H-integer", 1, _token_set(4, "x"), "H record: invalid integer 'x' for panorama count"),
    ("H-integer-level", 1, _token_set(12, "1.5"), "H record: invalid integer '1.5' for level count"),
    ("H-negative-count", 1, _token_set(8, "-1"), "H record: negative count"),
    ("H-padding", 1, _token_set(3, "1"), "H record: expected literal '0' padding at token 3, found '1'"),
    ("H-token-count", 1, lambda s: s + " 0", "H record: expected 18 tokens, found 19"),
    ("L-integer", 2, _token_set(2, "two"), "L record: invalid integer 'two' for region count"),
    ("L-number", 2, _token_set(7, "q"), "L record: invalid number 'q' for bbox low"),
    ("L-non-finite", 2, _token_set(12, "inf"), "L record: non-finite number for bbox high"),
    ("L-padding", 2, _token_set(13, "00"), "L record: expected literal '0' padding at token 13, found '00'"),
    ("L-token-count", 2, lambda s: s.rsplit(" ", 1)[0], "L record: expected 18 tokens, found 17"),
    ("R-integer", 3, _token_set(2, "-"), "R record: invalid integer '-' for level index"),
    ("R-char", 3, _token_set(5, "bb"), "R record: label must be a single character, found 'bb'"),
    ("R-non-finite", 3, _token_set(6, "1e400"), "R record: non-finite number for position"),
    ("R-number", 4, _token_set(12, "5,0"), "R record: invalid number '5,0' for bbox high"),
    ("R-padding", 4, _token_set(4, "0.0"), "R record: expected literal '0' padding at token 4, found '0.0'"),
    ("R-token-count", 4, lambda s: s + " 0", "R record: expected 20 tokens, found 21"),
    ("C-integer", 5, _token_set(4, "seven"), "C record: invalid integer 'seven' for mpcat40 index"),
    ("C-lower-name", 5, _token_set(3, "__"), "C record: empty name '__'"),
    ("C-name", 6, _token_set(5, "_"), "C record: empty name '_'"),
    ("C-padding", 6, _token_set(10, "x"), "C record: expected literal '0' padding at token 10, found 'x'"),
    ("C-token-count", 6, lambda s: s.rsplit(" ", 1)[0], "C record: expected 11 tokens, found 10"),
    ("P-integer", 8, _token_set(3, "r"), "P record: invalid integer 'r' for region index"),
    ("P-non-finite", 9, _token_set(7, "nan"), "P record: non-finite number for position"),
    ("P-padding", 7, _token_set(4, "-0"), "P record: expected literal '0' padding at token 4, found '-0'"),
    ("P-token-count", 10, lambda s: s + " 0", "P record: expected 13 tokens, found 14"),
    ("O-integer", 11, _token_set(3, "c"), "O record: invalid integer 'c' for category index"),
    ("O-number", 12, _token_set(9, "x"), "O record: invalid number 'x' for axis0"),
    ("O-non-finite", 12, _token_set(12, "-inf"), "O record: non-finite number for axis1"),
    ("O-non-finite-radii", 13, _token_set(15, "NaN"), "O record: non-finite number for radii"),
    ("O-padding", 13, _token_set(23, "1"), "O record: expected literal '0' padding at token 23, found '1'"),
    ("O-token-count", 13, lambda s: s.rsplit(" ", 1)[0], "O record: expected 24 tokens, found 23"),
]


@pytest.mark.parametrize("line,edit,message", [case[1:] for case in _SINGLE_FAULTS],
                         ids=[case[0] for case in _SINGLE_FAULTS])
def test_single_fault_line_error_is_pinned(line, edit, message):
    with pytest.raises(HouseParseError) as err:
        parse_house(_edit_tiny(line, edit))
    assert err.value.line_number == line
    assert str(err.value) == f"line {line}: {message}"


def test_lines_end_at_newline_only():
    # str.splitlines would also break at the trailing U+0085 of line 2 and
    # number every later line one too high.
    lines = _edit_tiny(12, _token_set(9, "x")).split("\n")
    lines[1] += "\x85"
    with pytest.raises(HouseParseError) as err:
        parse_house("\n".join(lines))
    assert str(err.value) == "line 12: O record: invalid number 'x' for axis0"
    lines = fixtures.TINY_HOUSE.split("\n")
    lines[1] += "\x85"
    assert parse_house("\n".join(lines)) == parse_house(fixtures.TINY_HOUSE)


@pytest.mark.parametrize("position,what,found", [(4, "panorama", 4), (8, "object", 3),
                                                 (9, "category", 2), (10, "region", 2),
                                                 (12, "level", 1)])
@pytest.mark.parametrize("blank_lines", [0, 2])
def test_count_mismatch_names_the_header_line(position, what, found, blank_lines):
    text = "\n" * blank_lines + _edit_tiny(1, _token_set(position, "7"))
    line = blank_lines + 1
    with pytest.raises(HouseParseError) as err:
        parse_house(text)
    assert err.value.line_number == line
    assert str(err.value) == (f"line {line}: {what} count mismatch: "
                              f"header declares 7, found {found}")


# One single-fault case per scene rule: the record kind and position, the
# token to set in that record's TINY_HOUSE line, the field to set in the
# scene JSON, and the message. A record has the same position in both.
# Only the JSON reader reaches "empty name" (the .house name converter
# refuses an empty name first), and only the .house reader knows the level
# count, so the level rule has one case per bound.
_FIRST_LINE = {"region": 3, "category": 5, "panorama": 7, "object": 11}
_RULE_FAULTS = [
    ("category-index", "category", 1, (1, "2"), ("index", 2),
     "index 2 out of range (2 categories)"),
    ("category-duplicate-index", "category", 1, (1, "0"), ("index", 0), "duplicate index 0"),
    ("category-empty-name", "category", 0, None, ("name", ""), "empty name"),
    ("category-unparseable-name", "category", 1, (3, "x._ytable"), ("name", "x. ytable"),
     "name 'x. ytable' would not parse back from crafted text"),
    ("region-index", "region", 1, (1, "-1"), ("index", -1),
     "index -1 out of range (2 regions)"),
    ("region-duplicate-index", "region", 1, (1, "0"), ("index", 0), "duplicate index 0"),
    ("region-level-below", "region", 0, (2, "-1"), ("level_index", -1),
     "level index -1 does not resolve"),
    ("region-level-above", "region", 1, (2, "1"), None, "level index 1 does not resolve"),
    ("region-bbox", "region", 0, (9, "1"), ("bbox_lo", [1.0, -5.0, 0.0]),
     "bbox low exceeds bbox high"),
    ("panorama-index", "panorama", 1, (2, "4"), ("index", 4),
     "index 4 out of range (4 panoramas)"),
    ("panorama-duplicate-index", "panorama", 2, (2, "1"), ("index", 1), "duplicate index 1"),
    ("panorama-duplicate-name", "panorama", 1, (1, "p000"), ("name", "p000"),
     "duplicate name 'p000'"),
    ("panorama-region", "panorama", 0, (3, "-2"), ("region_index", -2),
     "region index -2 does not resolve"),
    ("object-index", "object", 1, (1, "3"), ("index", 3), "index 3 out of range (3 objects)"),
    ("object-duplicate-index", "object", 2, (1, "0"), ("index", 0), "duplicate index 0"),
    ("object-region", "object", 0, (2, "2"), ("region_index", 2),
     "region index 2 does not resolve"),
    ("object-category", "object", 0, (3, "2"), ("category_index", 2),
     "category index 2 does not resolve"),
    ("object-axis0", "object", 0, (7, "1.1"), ("axis0", [1.1, 0.0, 0.0]),
     "axis0 is not unit length (norm 1.100000)"),
    ("object-axis1", "object", 0, (11, "0.9"), ("axis1", [0.0, 0.9, 0.0]),
     "axis1 is not unit length (norm 0.900000)"),
    ("object-orthogonal", "object", 0, (10, "0.002"), ("axis1", [0.002, 1.0, 0.0]),
     "axis0 and axis1 are not orthogonal"),
    ("object-radius", "object", 0, (14, "-0.8"), ("radii", [1.0, -0.8, 0.5]),
     "negative radius in (1.0, -0.8, 0.5)"),
]


@pytest.mark.parametrize("kind,pos,token,field,message", [case[1:] for case in _RULE_FAULTS],
                         ids=[case[0] for case in _RULE_FAULTS])
def test_each_scene_rule_is_pinned_in_both_readers(tiny_scene, kind, pos, token, field,
                                                   message):
    if token is not None:
        line = _FIRST_LINE[kind] + pos
        with pytest.raises(HouseParseError) as err:
            parse_house(_edit_tiny(line, _token_set(*token)))
        assert (err.value.line_number, str(err.value)) == (
            line, f"line {line}: {kind} record: {message}")
    if field is not None:
        doc = json.loads(write_scene_json(tiny_scene))
        doc[_SECTION_OF[kind]][pos][field[0]] = field[1]
        with pytest.raises(SceneJsonError) as err:
            read_scene_json(json.dumps(doc))
        assert (err.value.json_path, err.value.args[0]) == (f"$.{_SECTION_OF[kind]}[{pos}]",
                                                            message)


_FUZZ_HOUSES = [fixtures.TINY_HOUSE] + [fx.house_text for fx in fixtures.all_scenes()]
_FUZZ_TOKENS = st.one_of(
    st.sampled_from(["1e400", "nan", "-inf", "__", "ab", "-1", "0", "00", "", "1.5"]),
    st.integers(-3, 999).map(str),
    st.text(max_size=6),
)


@st.composite
def _mutated_houses(draw):
    lines = draw(st.sampled_from(_FUZZ_HOUSES)).splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["token", "drop", "duplicate", "truncate"]))
    if how == "token":
        tokens = lines[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_FUZZ_TOKENS)
        lines[at] = " ".join(tokens)
    elif how == "drop":
        del lines[at]
    elif how == "duplicate":
        lines.insert(at, lines[at])
    else:
        lines[at] = lines[at][:draw(st.integers(0, len(lines[at]) - 1))]
    return "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(_mutated_houses())
def test_mutated_house_parses_or_names_its_line(text):
    try:
        scene = parse_house(text)
    except HouseParseError as exc:
        assert isinstance(exc.line_number, int)
        assert 1 <= exc.line_number <= max(1, len(text.splitlines()))
    else:
        assert isinstance(scene, SceneModel)


def _load_scangen():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "scangen.py"
    spec = importlib.util.spec_from_file_location("scangen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scangen = _load_scangen()


@settings(max_examples=240)
@given(st.integers(0, 2 ** 32), st.integers(5, 80), st.integers(0, 600), st.integers(1, 3),
       st.integers(1, len(scangen.CATEGORIES)))
def test_house_and_scene_json_ingest_agree_on_generated_scans(seed, viewpoints, objects,
                                                             levels, categories):
    house = scangen.make_scan("gen", str(seed), viewpoints, objects, categories, levels)["house"]
    scene = parse_house(house)
    assert read_scene_json(write_scene_json(scene)) == scene
