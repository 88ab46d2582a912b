"""Parsing crafted text back to atoms and re-walking the graph."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, build_scene
from navscribe.instruction_crafter import Motion, ObjectRef, Turn, make_atom
from navscribe.instruction_executor import (ExecutionResult, InstructionParseError,
                                            NavMetrics, evaluate, evaluate_batch,
                                            execute, parse_crafted)
from navscribe.nav_graph import PathSpec, shortest_path
from navscribe.object_saliency import Relation, Scan

EMPTY_SCENE = build_scene(objects=[], panoramas=[])


def _text(atoms) -> str:
    return ". ".join(a.text for a in atoms) + "."


class TestParse:
    def test_walk_and_stop(self):
        atoms = parse_crafted("Walk straight. Stop there.")
        assert [a.motion for a in atoms] == [Motion.WALK_STRAIGHT, Motion.STOP]
        assert atoms[0].turn is Turn.NONE

    def test_turn_object_clause(self):
        atoms = parse_crafted("Turn left, walk straight down the left of the painting. "
                              "Stop there.")
        assert atoms[0].turn is Turn.LEFT
        assert atoms[0].object_ref == ObjectRef("painting", Relation.LEFT)

    def test_stop_variants(self):
        assert parse_crafted("Stop right at the sofa.")[0].object_ref == ObjectRef(
            "sofa", Relation.TOWARD)
        assert parse_crafted("Stop right at the right of the sofa.")[0].object_ref == ObjectRef(
            "sofa", Relation.RIGHT)

    def test_multiword_category(self):
        atoms = parse_crafted("Walk straight toward the chest of drawers. Stop there.")
        assert atoms[0].object_ref == ObjectRef("chest of drawers", Relation.TOWARD)

    def test_missing_terminal_period(self):
        with pytest.raises(InstructionParseError) as err:
            parse_crafted("Walk straight")
        assert err.value.clause_index == 0

    def test_unknown_clause_reports_index_and_fragment(self):
        with pytest.raises(InstructionParseError) as err:
            parse_crafted("Walk straight. Fly up. Stop there.")
        assert err.value.clause_index == 1
        assert err.value.fragment == "Fly up"

    def test_lowercase_clause_rejected(self):
        with pytest.raises(InstructionParseError):
            parse_crafted("walk straight. Stop there.")

    def test_malformed_object_phrase(self):
        with pytest.raises(InstructionParseError, match="object phrase"):
            parse_crafted("Walk straight down the left of the  sofa. Stop there.")

    def test_unknown_turn_word(self):
        with pytest.raises(InstructionParseError):
            parse_crafted("Turn sideways, walk straight. Stop there.")

    def test_empty_text(self):
        with pytest.raises(InstructionParseError):
            parse_crafted("")


_WORDS = ("sofa", "piano", "chest", "of", "drawers", "toward", "the", "down", "stairs")
_categories = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join).filter(
    lambda c: not c.startswith("left of the ") and not c.startswith("right of the "))
_refs = st.one_of(st.none(), st.builds(ObjectRef, _categories, st.sampled_from(Relation)))
_move_atoms = st.builds(
    make_atom,
    st.sampled_from(Turn),
    st.sampled_from((Motion.WALK_STRAIGHT, Motion.GO_UP, Motion.GO_DOWN)),
    _refs,
)
_stop_atoms = st.builds(make_atom, st.just(Turn.NONE), st.just(Motion.STOP), _refs)


@given(st.lists(_move_atoms, min_size=0, max_size=5), _stop_atoms)
def test_render_parse_round_trip(moves, stop):
    atoms = list(moves) + [stop]
    assert parse_crafted(_text(atoms)) == atoms


class TestExecute:
    def test_follows_multi_edge_instruction(self, loop_bundle, saliency):
        from navscribe.instruction_crafter import craft_instruction
        scene, graph = loop_bundle
        path = shortest_path(graph, "loop0_vp01", "loop0_vp07")
        scan = Scan(scene, graph, saliency)
        crafted = craft_instruction(scan, path)
        result = execute(scan, path.path[0], path.heading, list(crafted.atoms))
        assert result.stopped
        assert result.path == path.path
        assert result.failure_reason is None

    def test_only_neighbor_behind_still_moves(self, saliency):
        graph = build_graph({"a": (0.0, 0.0, 1.5), "b": (0.0, -2.0, 1.5)}, [("a", "b")])
        atoms = [make_atom(Turn.RIGHT, Motion.WALK_STRAIGHT),
                 make_atom(Turn.NONE, Motion.STOP)]
        result = execute(Scan(EMPTY_SCENE, graph, saliency), "a", 0.0, atoms)
        assert result.path == ("a", "b")
        assert result.stopped

    def test_object_reference_overrides_geometry(self, saliency):
        positions = {
            "s": (0.0, 0.0, 1.5),
            "u": (2 * math.sin(0.6), 2 * math.cos(0.6), 1.5),
            "v": (0.0, 2.0, 1.5),
        }
        graph = build_graph(positions, [("s", "u"), ("s", "v")])
        piano = (2 * math.sin(-1.0), 2 * math.cos(-1.0), 1.5)
        scene = build_scene(objects=[("piano", piano, (0.5, 0.4, 0.3))],
                            panoramas=[("s", 0, positions["s"])])
        bare = [make_atom(Turn.NONE, Motion.WALK_STRAIGHT),
                make_atom(Turn.NONE, Motion.STOP)]
        anchored = [make_atom(Turn.NONE, Motion.WALK_STRAIGHT,
                              ObjectRef("piano", Relation.TOWARD)),
                    make_atom(Turn.NONE, Motion.STOP)]
        scan = Scan(scene, graph, saliency)
        assert execute(scan, "s", 0.5, bare).path == ("s", "u")
        assert execute(scan, "s", 0.5, anchored).path == ("s", "v")

    def test_exact_tie_goes_to_smaller_id(self, saliency):
        positions = {"s": (0.0, 0.0, 1.5), "a_west": (-2.0, 0.0, 1.5),
                     "b_east": (2.0, 0.0, 1.5)}
        graph = build_graph(positions, [("s", "a_west"), ("s", "b_east")])
        atoms = [make_atom(Turn.NONE, Motion.WALK_STRAIGHT),
                 make_atom(Turn.NONE, Motion.STOP)]
        result = execute(Scan(EMPTY_SCENE, graph, saliency), "s", 0.0, atoms)
        assert result.path == ("s", "a_west")

    def test_stop_atom_halts_immediately(self, saliency):
        graph = build_graph({"a": (0.0, 0.0, 1.5), "b": (2.0, 0.0, 1.5)}, [("a", "b")])
        atoms = [make_atom(Turn.NONE, Motion.STOP),
                 make_atom(Turn.NONE, Motion.WALK_STRAIGHT)]
        result = execute(Scan(EMPTY_SCENE, graph, saliency), "a", 0.0, atoms)
        assert result.stopped and result.path == ("a",)

    def test_isolated_node_reports_failure(self, saliency):
        graph = build_graph({"a": (0.0, 0.0, 1.5)}, [])
        atoms = [make_atom(Turn.NONE, Motion.WALK_STRAIGHT)]
        result = execute(Scan(EMPTY_SCENE, graph, saliency), "a", 0.0, atoms)
        assert not result.stopped
        assert result.failure_reason is not None
        assert result.path == ("a",)

    def test_heading_updates_to_traversed_edge(self, saliency):
        graph = build_graph({"a": (0.0, 0.0, 1.5), "b": (2.0, 0.0, 1.5)}, [("a", "b")])
        atoms = [make_atom(Turn.RIGHT, Motion.WALK_STRAIGHT),
                 make_atom(Turn.NONE, Motion.STOP)]
        result = execute(Scan(EMPTY_SCENE, graph, saliency), "a", 0.0, atoms)
        assert result.final_heading == pytest.approx(math.pi / 2)


class TestMetrics:
    LINE = {"a": (0.0, 0.0, 0.0), "b": (2.0, 0.0, 0.0), "c": (4.0, 0.0, 0.0)}

    def _gold(self):
        return PathSpec("line", ("a", "b", "c"), 0.0, 4.0)

    def test_perfect_execution(self):
        graph = build_graph(self.LINE, [("a", "b"), ("b", "c")])
        result = ExecutionResult(("a", "b", "c"), 0.0, True)
        m = evaluate(graph, self._gold(), result)
        assert m == NavMetrics(pl=pytest.approx(4.0), ne=pytest.approx(0.0),
                               sr=1.0, spl=pytest.approx(1.0))

    def test_detour_halves_spl(self):
        graph = build_graph(self.LINE, [("a", "b"), ("b", "c")])
        result = ExecutionResult(("a", "b", "c", "b", "c"), 0.0, True)
        m = evaluate(graph, self._gold(), result)
        assert m.sr == 1.0
        assert m.spl == pytest.approx(0.5)

    def test_success_radius(self):
        graph = build_graph(self.LINE, [("a", "b"), ("b", "c")])
        stopped_short = ExecutionResult(("a", "b"), 0.0, True)
        assert evaluate(graph, self._gold(), stopped_short).sr == 1.0  # ne=2 <= 3
        assert evaluate(graph, self._gold(), stopped_short, success_radius=1.5).sr == 0.0

    def test_not_stopping_fails_even_at_goal(self):
        graph = build_graph(self.LINE, [("a", "b"), ("b", "c")])
        ran_past = ExecutionResult(("a", "b", "c"), 0.0, False)
        m = evaluate(graph, self._gold(), ran_past)
        assert m.ne == pytest.approx(0.0)
        assert m.sr == 0.0 and m.spl == 0.0

    def test_batch_means(self):
        batch = [NavMetrics(2.0, 1.0, 1.0, 0.5), NavMetrics(4.0, 3.0, 0.0, 0.0)]
        agg = evaluate_batch(batch)
        assert agg == NavMetrics(pl=3.0, ne=2.0, sr=0.5, spl=0.25)

    def test_batch_mean_survives_an_overflowing_sum(self):
        batch = [NavMetrics(1e308, 0.0, 1.0, 1.0), NavMetrics(1e308, 0.0, 1.0, 1.0)]
        assert evaluate_batch(batch) == NavMetrics(pl=1e308, ne=0.0, sr=1.0, spl=1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_batch([])
