"""Tokenization, word-to-node alignment, and supervision serialization."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_graph, build_scene
from navscribe.jsonio import JsonSchemaError
from navscribe.nav_graph import PathSpec, shortest_path
from navscribe.object_saliency import SaliencyConfig, Scan
from navscribe.supervision_export import (DatasetRecord, WordObjectSupervision,
                                          align_words_to_nodes, build_supervision,
                                          emit_r2r_json, emit_supervision_json,
                                          read_r2r_json, read_supervision_json,
                                          tokenize, top_n_objects)

# The tokenizer as first written: one str.translate over the lowercased text.
_REFERENCE_STRIP = str.maketrans("", "", ".,;:!?\"'")


def _reference_tokenize(text):
    return text.lower().translate(_REFERENCE_STRIP).split()


# Every punctuation character, the separators only str.split knows
# (\x1c-\x1f), the Kelvin sign (lowercases to ASCII "k") and dotted capital I
# (lowercases to two characters, one not ASCII), among arbitrary characters.
_TOKENIZER_TEXT = st.text(
    st.sampled_from(list(".,;:!?\"'") + list("\x1c\x1d\x1e\x1f\x85\xa0\u2028 \t\nAz-2")
                    + ["\u212a", "\u0130", "\u00e9", "\u00c9", "\U0001f600"])
    | st.characters(),
    max_size=12)


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Turn left, walk straight.") == ["turn", "left", "walk", "straight"]

    def test_collapses_whitespace(self):
        assert tokenize("  Stop   there.  ") == ["stop", "there"]

    def test_keeps_hyphens_and_digits(self):
        assert tokenize("room-2 ahead") == ["room-2", "ahead"]

    @settings(max_examples=1000)
    @given(_TOKENIZER_TEXT)
    @example("Turn LEFT,\x1cwalk\x1fstraight.")
    @example("\u212aitchen, Sofa!")
    @example("\u0130stanbul? r\u00c9d.")
    @example(".,;:!?\"' ")
    def test_equals_the_str_translate_reference(self, text):
        assert tokenize(text) == _reference_tokenize(text)


class TestAlignment:
    def test_five_tokens_three_nodes(self):
        assert align_words_to_nodes(5, 3) == [0, 1, 1, 2, 2]

    def test_four_tokens_three_nodes(self):
        assert align_words_to_nodes(4, 3) == [0, 1, 1, 2]

    def test_seven_tokens_three_nodes(self):
        assert align_words_to_nodes(7, 3) == [0, 0, 1, 1, 1, 2, 2]

    def test_single_token_maps_to_first_node(self):
        assert align_words_to_nodes(1, 4) == [0]

    def test_single_node_absorbs_everything(self):
        assert align_words_to_nodes(6, 1) == [0] * 6

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            align_words_to_nodes(0, 3)
        with pytest.raises(ValueError):
            align_words_to_nodes(3, 0)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_alignment_properties(self, tokens, nodes):
        out = align_words_to_nodes(tokens, nodes)
        assert len(out) == tokens
        assert out[0] == 0
        if tokens > 1:
            assert out[-1] == nodes - 1
        assert all(0 <= v < nodes for v in out)
        assert all(a <= b for a, b in zip(out, out[1:]))


EYE = (0.0, 0.0, 1.5)


class TestTopN:
    def _bundle(self):
        scene = build_scene(
            objects=[
                ("king bed", (0.0, 2.0, 1.4), (0.9, 0.8, 0.4)),     # area 2.88
                ("closet", (1.5, 0.0, 1.5), (0.7, 0.6, 0.5)),       # area 1.68
                ("small bed", (-1.5, 0.0, 1.4), (0.6, 0.5, 0.3)),   # area 1.2, repeat noun
                ("lamp", (0.0, -1.5, 1.6), (0.3, 0.25, 0.2)),       # area 0.3
            ],
            panoramas=[("p0", 0, EYE)],
        )
        graph = build_graph({"p0": EYE}, [])
        return scene, graph

    def test_ranked_by_area_with_head_noun_dedupe(self):
        scene, graph = self._bundle()
        scan = Scan(scene, graph, SaliencyConfig())
        assert top_n_objects(scan, "p0", 2) == ["bed", "closet"]
        assert top_n_objects(scan, "p0", 4) == ["bed", "closet", "lamp"]

    def test_n_must_be_positive(self):
        scene, graph = self._bundle()
        with pytest.raises(ValueError):
            top_n_objects(Scan(scene, graph, SaliencyConfig()), "p0", 0)


class TestBuildSupervision:
    def test_shapes_and_coverage(self, loop_bundle, saliency):
        scene, graph = loop_bundle
        path = shortest_path(graph, "loop0_vp00", "loop0_vp05")
        sup = build_supervision(Scan(scene, graph, saliency), path,
                                "Walk straight. Stop there.", n=2, path_id=9)
        assert sup.path_id == 9
        assert sup.tokens == ("walk", "straight", "stop", "there")
        assert len(sup.node_of_token) == 4
        assert len(sup.objects_of_token) == 4
        assert max(sup.node_of_token) == len(path.path) - 1
        for labels in sup.objects_of_token:
            assert 1 <= len(labels) <= 2

    def test_untokenizable_instruction_rejected(self, loop_bundle, saliency):
        scene, graph = loop_bundle
        path = shortest_path(graph, "loop0_vp00", "loop0_vp05")
        with pytest.raises(ValueError, match="tokens"):
            build_supervision(Scan(scene, graph, saliency), path, "...", n=2)


def _record(path_id=0, **kw):
    defaults = dict(path_id=path_id, scan="s", heading=0.5, path=("a", "b"),
                    instructions=("Walk straight. Stop there.",), distance=2.0)
    defaults.update(kw)
    return DatasetRecord(**defaults)


class TestDatasetJson:
    def test_round_trip(self):
        records = [_record(1), _record(0, heading=1.25)]
        text = emit_r2r_json(records)
        again = read_r2r_json(text)
        assert again == sorted(records, key=lambda r: r.path_id)
        assert emit_r2r_json(again) == text

    def test_key_order_in_bytes(self):
        text = emit_r2r_json([_record()])
        entry = json.loads(text)[0]
        assert list(entry) == ["path_id", "scan", "heading", "path",
                               "instructions", "distance"]

    def test_duplicate_path_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate path_id"):
            emit_r2r_json([_record(3), _record(3)])

    def test_read_rejects_missing_keys(self):
        doc = json.loads(emit_r2r_json([_record()]))
        del doc[0]["scan"]
        with pytest.raises(JsonSchemaError) as err:
            read_r2r_json(json.dumps(doc))
        assert err.value.json_path == "$[0]"

    @pytest.mark.parametrize("field,value,where", [
        ("heading", math.inf, "$[1].heading"),
        ("distance", math.nan, "$[1].distance"),
        ("path", [], "$[1].path"),
        ("instructions", [], "$[1].instructions"),
        ("instructions", ["ok", None], "$[1].instructions[1]"),
        ("path_id", 1.0, "$[1].path_id"),
        pytest.param("distance", 10 ** 400, "$[1].distance", id="distance-huge-integer"),
    ])
    def test_read_names_the_bad_value(self, field, value, where):
        doc = json.loads(emit_r2r_json([_record(0), _record(1)]))
        doc[1][field] = value
        with pytest.raises(JsonSchemaError) as err:
            read_r2r_json(json.dumps(doc))
        assert err.value.json_path == where

    def test_read_rejects_integer_too_long_to_decode(self):
        with pytest.raises(JsonSchemaError) as err:
            read_r2r_json("[" + "1" * 5000 + "]")
        assert err.value.json_path == "$"

    def test_read_rejects_bool_path_id(self):
        doc = json.loads(emit_r2r_json([_record()]))
        doc[0]["path_id"] = True
        with pytest.raises(ValueError):
            read_r2r_json(json.dumps(doc))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            DatasetRecord(0, "s", 0.0, (), ("x.",), 1.0)
        with pytest.raises(ValueError):
            DatasetRecord(0, "s", 0.0, ("a",), (), 1.0)
        for heading, path, distance in ((7.0, ("a",), 1.0), (0.0, ("a",), -1.0),
                                        (0.0, ("a", "a"), 1.0), (0.0, ("a",), math.inf),
                                        (0.0, ("a",), math.nan)):
            with pytest.raises(ValueError):
                DatasetRecord(0, "s", heading, path, ("x.",), distance)


class TestSupervisionJson:
    def _sup(self, path_id=0):
        return WordObjectSupervision(
            path_id=path_id,
            tokens=("walk", "straight"),
            node_of_token=(0, 1),
            objects_of_token=(("bed", "closet"), ("lamp",)),
        )

    def test_round_trip(self):
        text = emit_supervision_json([self._sup(2), self._sup(0)])
        again = read_supervision_json(text)
        assert [s.path_id for s in again] == [0, 2]
        assert emit_supervision_json(again) == text

    def test_misaligned_lists_rejected(self):
        doc = json.loads(emit_supervision_json([self._sup()]))
        doc[0]["node_of_token"] = [0]
        with pytest.raises(ValueError, match="align"):
            read_supervision_json(json.dumps(doc))

    def test_read_names_the_bad_value(self):
        doc = json.loads(emit_supervision_json([self._sup()]))
        doc[0]["objects_of_token"][1] = ["lamp", False]
        with pytest.raises(JsonSchemaError) as err:
            read_supervision_json(json.dumps(doc))
        assert err.value.json_path == "$[0].objects_of_token[1][1]"

    def test_duplicate_path_id_rejected(self):
        with pytest.raises(ValueError):
            emit_supervision_json([self._sup(1), self._sup(1)])

    def test_read_rejects_a_repeated_path_id_at_its_first_recurrence(self):
        # A file the reader accepts must be one the emitter can write back.
        doc = json.loads(emit_supervision_json([self._sup(0), self._sup(1), self._sup(2)]))
        doc[1]["path_id"] = doc[2]["path_id"] = 0
        with pytest.raises(JsonSchemaError, match="duplicate path_id 0") as err:
            read_supervision_json(json.dumps(doc))
        assert err.value.json_path == "$[1].path_id"
