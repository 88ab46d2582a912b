"""Turn classification, clause templates, and whole-path crafting."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, build_scene
from navscribe.instruction_crafter import (MOTION_CORE, RELATION_SUFFIX, STOP_AT,
                                           STOP_PLAIN, TURN_PREFIX, Motion, ObjectRef, Turn,
                                           atomic_for_edge, classify_turn, classify_vertical,
                                           craft_instruction, make_atom, render_atom)
from navscribe.instruction_executor import parse_crafted
from navscribe.nav_graph import PathSpec, shortest_path
from navscribe.object_saliency import Relation, Scan

EIGHTH = math.pi / 8


class TestClassifyTurn:
    def test_straight_band_is_open(self):
        assert classify_turn(0.0) is Turn.NONE
        assert classify_turn(EIGHTH - 1e-9) is Turn.NONE
        assert classify_turn(-EIGHTH + 1e-9) is Turn.NONE

    def test_right_band_includes_lower_bound(self):
        assert classify_turn(EIGHTH) is Turn.RIGHT
        assert classify_turn(math.pi / 2) is Turn.RIGHT
        assert classify_turn(5 * EIGHTH - 1e-9) is Turn.RIGHT

    def test_left_band_mirrors_right(self):
        assert classify_turn(-EIGHTH) is Turn.LEFT
        assert classify_turn(-math.pi / 2) is Turn.LEFT
        assert classify_turn(-5 * EIGHTH + 1e-9) is Turn.LEFT

    def test_around_band(self):
        assert classify_turn(5 * EIGHTH) is Turn.AROUND
        assert classify_turn(-5 * EIGHTH) is Turn.AROUND
        assert classify_turn(math.pi) is Turn.AROUND


class TestClassifyVertical:
    def test_needs_both_height_and_region_change(self):
        assert classify_vertical(1.1, True) is Motion.GO_UP
        assert classify_vertical(1.1, False) is Motion.WALK_STRAIGHT
        assert classify_vertical(-0.9, True) is Motion.GO_DOWN

    def test_threshold_is_strict(self):
        assert classify_vertical(0.5, True) is Motion.WALK_STRAIGHT
        assert classify_vertical(-0.5, True) is Motion.WALK_STRAIGHT


class TestTemplates:
    def test_plain_walk(self):
        assert render_atom(Turn.NONE, Motion.WALK_STRAIGHT, None) == "Walk straight"

    def test_turn_with_side_object(self):
        ref = ObjectRef("painting", Relation.LEFT)
        assert (render_atom(Turn.LEFT, Motion.WALK_STRAIGHT, ref)
                == "Turn left, walk straight down the left of the painting")

    def test_around_and_stairs(self):
        ref = ObjectRef("sofa", Relation.TOWARD)
        assert (render_atom(Turn.AROUND, Motion.GO_UP, ref)
                == "Turn around, go up the stairs toward the sofa")
        assert render_atom(Turn.RIGHT, Motion.GO_DOWN, None) == "Turn right, go down the stairs"

    def test_stop_variants(self):
        assert render_atom(Turn.NONE, Motion.STOP, None) == "Stop there"
        assert (render_atom(Turn.NONE, Motion.STOP, ObjectRef("sofa", Relation.TOWARD))
                == "Stop right at the sofa")
        assert (render_atom(Turn.NONE, Motion.STOP, ObjectRef("sofa", Relation.RIGHT))
                == "Stop right at the right of the sofa")

    def test_make_atom_rejects_turning_stop(self):
        with pytest.raises(ValueError, match="no turn"):
            make_atom(Turn.LEFT, Motion.STOP)

    def test_make_atom_rejects_blank_category(self):
        with pytest.raises(ValueError):
            make_atom(Turn.NONE, Motion.WALK_STRAIGHT, ObjectRef(" ", Relation.TOWARD))

    @pytest.mark.parametrize("motion,category,relation", [
        (Motion.STOP, "left of the sofa", Relation.TOWARD),
        (Motion.STOP, "right of the sofa", Relation.TOWARD),
        (Motion.WALK_STRAIGHT, "a. b", Relation.TOWARD),
        (Motion.STOP, "a. b", Relation.LEFT),
        (Motion.WALK_STRAIGHT, "sofa ", Relation.RIGHT),
        (Motion.GO_UP, " sofa", Relation.TOWARD),
    ])
    def test_make_atom_rejects_category_that_would_not_parse_back(self, motion, category,
                                                                   relation):
        with pytest.raises(ValueError, match="would not parse back"):
            make_atom(Turn.NONE, motion, ObjectRef(category, relation))

    @pytest.mark.parametrize("motion,relation", [
        (Motion.STOP, Relation.LEFT), (Motion.STOP, Relation.RIGHT),
        (Motion.WALK_STRAIGHT, Relation.TOWARD), (Motion.GO_DOWN, Relation.LEFT),
    ])
    def test_side_phrase_category_parses_back_outside_a_stop_toward(self, motion, relation):
        atom = make_atom(Turn.NONE, motion, ObjectRef("left of the sofa", relation))
        assert parse_crafted(atom.text + ".") == [atom]


# Categories assembled from the grammar's own text, where a bijection break
# would hide: clause heads, side phrases, the ". " separator and spaces.
_FRAGMENTS = st.sampled_from(
    [prefix for prefix in TURN_PREFIX.values() if prefix] + list(MOTION_CORE.values())
    + list(RELATION_SUFFIX.values())
    + [STOP_PLAIN, STOP_AT, "left of the ", "right of the ", "left of the", "sofa", "the",
       ". ", ".", " ", "a"])
_CATEGORIES = st.tuples(st.sampled_from(["", "left of the ", "right of the "]),
                        st.lists(_FRAGMENTS, min_size=1, max_size=3)).map(
    lambda parts: parts[0] + "".join(parts[1]))
# Stops take no turn, so a drawn stop is always a bare one.
_PAIRS = st.builds(lambda turn, motion: (Turn.NONE if motion is Motion.STOP else turn, motion),
                   st.sampled_from(Turn), st.sampled_from(Motion))


@settings(max_examples=1500)
@given(_PAIRS, st.sampled_from(Relation), _CATEGORIES)
def test_make_atom_text_parses_back_or_is_refused(pair, relation, category):
    turn, motion = pair
    try:
        atom = make_atom(turn, motion, ObjectRef(category, relation))
    except ValueError:
        return
    stop = make_atom(Turn.NONE, Motion.STOP)
    assert parse_crafted(atom.text + ".") == [atom]
    assert parse_crafted(f"{atom.text}. {stop.text}.") == [atom, stop]


class TestCrafting:
    def test_single_edge_exact_text(self, saliency):
        positions = {"n0": (0.0, 0.0, 1.5), "n1": (-2.0, 0.0, 1.5)}
        graph = build_graph(positions, [("n0", "n1")])
        angle = 3 * math.pi / 2 + 0.3
        painting = (2 * math.sin(angle), 2 * math.cos(angle), 1.5)
        scene = build_scene(
            objects=[("painting", painting, (0.6, 0.5, 0.1))],
            panoramas=[("n0", 0, positions["n0"]), ("n1", 0, positions["n1"])],
        )
        path = PathSpec("mini", ("n0", "n1"), 0.0, 2.0)
        crafted = craft_instruction(Scan(scene, graph, saliency), path)
        assert crafted.text == ("Turn left, walk straight down the left of the painting. "
                                "Stop there.")

    def test_atom_per_edge_plus_stop(self, loop_bundle, saliency):
        scene, graph = loop_bundle
        path = shortest_path(graph, "loop0_vp00", "loop0_vp05")
        crafted = craft_instruction(Scan(scene, graph, saliency), path)
        assert len(crafted.atoms) == len(path.path)
        assert crafted.atoms[-1].motion is Motion.STOP
        assert crafted.text.endswith(".")

    def test_hub_edges_anchor_on_unique_objects(self, hub_bundle, saliency):
        scene, graph = hub_bundle
        path = shortest_path(graph, "hub0_vp00", "hub0_vp04")
        crafted = craft_instruction(Scan(scene, graph, saliency), path)
        first = crafted.atoms[0]
        assert first.object_ref is not None
        assert first.object_ref.category == "piano"

    def test_stair_edges_become_vertical_clauses(self, stairs_bundle, saliency):
        scene, graph = stairs_bundle
        scan = Scan(scene, graph, saliency)
        up = craft_instruction(scan, shortest_path(graph, "stairs0_vp05", "stairs0_vp09"))
        motions = [a.motion for a in up.atoms]
        assert motions.count(Motion.GO_UP) == 2
        assert "up the stairs" in up.text

        down = craft_instruction(scan, shortest_path(graph, "stairs0_vp14", "stairs0_vp17"))
        assert Motion.GO_DOWN in [a.motion for a in down.atoms]

    def test_headings_follow_edge_directions(self, square_graph, saliency):
        scene = build_scene(objects=[], panoramas=[])
        path = PathSpec("square", ("va", "vb", "vc"), 0.0, 2.0)
        crafted = craft_instruction(Scan(scene, square_graph, saliency), path)
        # North to east, then east to north: each turn is taken from the
        # heading of the edge before it.
        assert [a.turn for a in crafted.atoms] == [Turn.RIGHT, Turn.LEFT, Turn.NONE]

    def test_crafting_is_deterministic(self, loop_bundle, saliency):
        scene, graph = loop_bundle
        path = shortest_path(graph, "loop0_vp02", "loop0_vp08")
        a = craft_instruction(Scan(scene, graph, saliency), path)
        b = craft_instruction(Scan(scene, graph, saliency), path)
        assert a == b

    def test_non_edge_rejected(self, square_graph, saliency):
        scene = build_scene(objects=[], panoramas=[])
        with pytest.raises(ValueError, match="not an edge"):
            atomic_for_edge(Scan(scene, square_graph, saliency), "va", "vc", 0.0)
