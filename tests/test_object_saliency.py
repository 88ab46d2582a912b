"""Observation, mention filtering, and object-direction relations."""
from __future__ import annotations

import dataclasses
import itertools
import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_scene
from scenes import all_scenes
from navscribe.instruction_crafter import (Motion, Turn, classify_turn, craft_instruction,
                                           make_atom)
from navscribe.instruction_executor import execute, parse_crafted
from navscribe.nav_graph import NavGraph, parse_connectivity, sample_paths
from navscribe.object_saliency import (DEFAULT_BLACKLIST, ObjectRef, Relation,
                                       SaliencyConfig, Scan, best_object, filter_candidates,
                                       observe, side_of_travel)
from navscribe.scene_metadata import Category, SceneModel, SceneObject, parse_house
from navscribe.supervision_export import build_supervision
from navscribe.view_geometry import FovConfig, heading_to, relative_bearing

EYE = (0.0, 0.0, 1.5)


def _scene():
    return build_scene(
        objects=[
            ("sofa", (0.0, 2.0, 1.4), (0.6, 0.5, 0.4)),
            ("floor", (0.5, 1.0, 0.1), (3.0, 3.0, 0.05)),
            ("vase", (1.0, 1.0, 1.5), (0.15, 0.1, 0.1)),       # area 0.06
            ("plant", (2.0, 0.0, 1.5), (0.4, 0.3, 0.3)),
            ("plant", (-2.0, 0.0, 1.5), (0.4, 0.3, 0.3)),
            ("mirror", (0.0, 30.0, 1.5), (0.5, 0.5, 0.1)),     # out of range
        ],
        panoramas=[("p0", 0, EYE)],
    )


class TestObserve:
    def test_distance_bound_is_closed(self):
        scene = build_scene(objects=[("sofa", (0.0, 3.5, 1.5), (0.5, 0.5, 0.5))],
                            panoramas=[("p0", 0, EYE)])
        assert len(observe(scene, EYE, 3.5)) == 1
        assert observe(scene, EYE, 3.4999) == []

    def test_sorted_by_distance_then_index(self):
        scene = _scene()
        seen = observe(scene, EYE, 3.5)
        dists = [o.distance for o in seen]
        assert dists == sorted(dists)
        assert [o.object_index for o in seen if o.category == "plant"] == [3, 4]

    def test_unique_flag_counts_this_view_only(self):
        seen = observe(_scene(), EYE, 3.5)
        by_index = {o.object_index: o for o in seen}
        assert by_index[0].unique          # one sofa
        assert not by_index[3].unique      # two plants in range
        assert not by_index[4].unique

    def test_far_object_excluded(self):
        assert all(o.category != "mirror" for o in observe(_scene(), EYE, 3.5))

    def test_positive_distance_required(self):
        with pytest.raises(ValueError):
            observe(_scene(), EYE, 0.0)

    def test_nan_distance_rejected(self):
        # NaN compares false with every distance, so no object would be out of range.
        with pytest.raises(ValueError):
            observe(_scene(), EYE, math.nan)


class TestFilter:
    def test_default_gates(self):
        cfg = SaliencyConfig()
        kept = filter_candidates(observe(_scene(), EYE, cfg.max_distance), cfg)
        names = [o.category for o in kept]
        assert names == ["sofa"]  # floor blacklisted, vase too small, plants repeat

    def test_unique_gate_can_be_disabled(self):
        cfg = SaliencyConfig(require_unique=False)
        kept = filter_candidates(observe(_scene(), EYE, cfg.max_distance), cfg)
        assert [o.category for o in kept] == ["plant", "plant", "sofa"]

    def test_blacklist_is_configurable(self):
        cfg = SaliencyConfig(blacklist=frozenset({"sofa"}))
        kept = filter_candidates(observe(_scene(), EYE, cfg.max_distance), cfg)
        assert "sofa" not in [o.category for o in kept]

    def test_default_blacklist_contents(self):
        assert {"floor", "ceiling", "wall", "column", "beam"} <= DEFAULT_BLACKLIST


class TestBestObject:
    def test_picks_smallest_bearing_within_fov(self):
        scene = build_scene(
            objects=[("lamp", (0.3, 2.0, 1.5), (0.4, 0.4, 0.4)),
                     ("desk", (2.0, 2.0, 1.5), (0.5, 0.5, 0.5))],
            panoramas=[("p0", 0, EYE)],
        )
        cfg = SaliencyConfig()
        cands = filter_candidates(observe(scene, EYE, cfg.max_distance), cfg)
        pick = best_object(cands, 0.0, cfg.fov)
        assert pick is not None and pick.category == "lamp"

    def test_fov_gate(self):
        scene = build_scene(objects=[("lamp", (0.0, -2.0, 1.5), (0.4, 0.4, 0.4))],
                            panoramas=[("p0", 0, EYE)])
        cfg = SaliencyConfig()
        cands = filter_candidates(observe(scene, EYE, cfg.max_distance), cfg)
        assert best_object(cands, 0.0, cfg.fov) is None
        assert best_object(cands, math.pi, cfg.fov) is not None

    def test_elevation_gate(self):
        overhead = build_scene(objects=[("lamp", (0.0, 0.6, 3.0), (0.4, 0.4, 0.4))],
                               panoramas=[("p0", 0, EYE)])
        cfg = SaliencyConfig()
        cands = filter_candidates(observe(overhead, EYE, cfg.max_distance), cfg)
        assert cands  # visible in range
        assert best_object(cands, 0.0, cfg.fov) is None

    def test_area_breaks_bearing_ties(self):
        scene = build_scene(
            objects=[("lamp", (-0.5, 2.0, 1.5), (0.3, 0.3, 0.2)),
                     ("desk", (0.5, 2.0, 1.5), (0.8, 0.6, 0.5))],
            panoramas=[("p0", 0, EYE)],
        )
        cfg = SaliencyConfig()
        cands = filter_candidates(observe(scene, EYE, cfg.max_distance), cfg)
        pick = best_object(cands, 0.0, cfg.fov)
        assert pick is not None and pick.category == "desk"

    def test_empty_candidates(self):
        assert best_object([], 0.0, FovConfig()) is None


class TestSideOfTravel:
    def test_head_on_band_is_toward(self):
        assert side_of_travel(0.0, 0.0) is Relation.TOWARD
        assert side_of_travel(0.0, math.pi / 12) is Relation.TOWARD
        assert side_of_travel(0.0, -math.pi / 12) is Relation.TOWARD

    def test_object_right_of_track_is_passed_on_its_left(self):
        assert side_of_travel(0.0, math.pi / 12 + 1e-6) is Relation.LEFT

    def test_object_left_of_track_is_passed_on_its_right(self):
        assert side_of_travel(0.0, -math.pi / 12 - 1e-6) is Relation.RIGHT

    def test_wraps_across_zero(self):
        assert side_of_travel(2 * math.pi - 0.2, 0.2) is Relation.LEFT


def test_config_validation():
    with pytest.raises(ValueError):
        SaliencyConfig(max_distance=0.0)
    with pytest.raises(ValueError):
        SaliencyConfig(min_area=-0.1)


@pytest.mark.parametrize("field", ["max_distance", "min_area"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        SaliencyConfig(**{field: math.nan})


def _fixture_scans():
    for fx in all_scenes():
        scene = parse_house(fx.house_text)
        graph = parse_connectivity(fx.connectivity_text, scan_id=scene.scan_id)
        yield Scan(scene, graph, SaliencyConfig())


class TestScan:
    def test_candidates_match_uncached_reference(self):
        for scan in _fixture_scans():
            positions = [v.position for v in scan.graph.viewpoints]
            positions += [p.position for p in scan.scene.panoramas]
            for p in positions:
                reference = tuple(filter_candidates(
                    observe(scan.scene, p, scan.cfg.max_distance), scan.cfg))
                assert scan.candidates(p) == reference
                assert scan.candidates(p) == reference  # served from the table

    def test_pipeline_observes_each_position_once(self, monkeypatch):
        seen: list[tuple[float, ...]] = []
        kernel = Scan._mentionable_near

        def counting_kernel(scan, position):
            seen.append(tuple(position))
            return kernel(scan, position)

        monkeypatch.setattr(Scan, "_mentionable_near", counting_kernel)
        scan = next(_fixture_scans())
        for path in sample_paths(scan.graph, n=20, seed=7).paths:
            crafted = craft_instruction(scan, path)
            build_supervision(scan, path, crafted.text, n=2)
            execute(scan, path.path[0], path.heading, parse_crafted(crafted.text))
        assert seen
        assert len(seen) == len(set(seen))

    def test_entries_are_immutable_tuples(self):
        scan = next(_fixture_scans())
        entry = scan.candidates(scan.graph.viewpoints[0].position)
        assert isinstance(entry, tuple)


class TestOneViewQuery:
    """``Scan.anchor`` is the only place a clause's object is chosen or checked."""

    def test_crafter_names_what_the_view_query_answers(self, monkeypatch):
        stub = ObjectRef("stub lamp", Relation.LEFT)
        for scan in _fixture_scans():
            paths = sample_paths(scan.graph, n=10, seed=7).paths
            assert all(path.path[-1] in scan.panoramas for path in paths)
            monkeypatch.setattr(Scan, "anchor", lambda self, position, heading: stub)
            for path in paths:
                atoms = craft_instruction(scan, path).atoms
                assert [atom.object_ref for atom in atoms] == [stub] * len(atoms)
            monkeypatch.setattr(Scan, "anchor", lambda self, position, heading: None)
            for path in paths:
                assert all(atom.object_ref is None
                           for atom in craft_instruction(scan, path).atoms)

    def test_executor_moves_where_the_view_query_names_the_category(self, monkeypatch):
        """The neighbour straight ahead wins on bearing alone; the one whose
        heading the stub answers with the atom's category wins instead, though
        it lies outside the atom's turn class."""
        atom = make_atom(Turn.NONE, Motion.WALK_STRAIGHT, ObjectRef("stub lamp", Relation.TOWARD))
        moves = 0
        for scan in _fixture_scans():
            graph = scan.graph
            for viewpoint in graph.viewpoints:
                p_cur = viewpoint.position
                nbrs = [nbr for nbr, _ in graph.adjacency(viewpoint.id)]
                if len(nbrs) < 2:
                    continue
                facing = heading_to(p_cur, graph.position(nbrs[0]))
                for target in nbrs[1:]:
                    target_heading = heading_to(p_cur, graph.position(target))
                    bearing = relative_bearing(facing, target_heading)
                    if classify_turn(bearing) is Turn.NONE or abs(bearing) >= math.pi - 1e-9:
                        continue

                    def stub(self, position, heading, target_heading=target_heading):
                        named = abs(relative_bearing(heading, target_heading)) < 1e-9
                        return ObjectRef("stub lamp" if named else "other", Relation.TOWARD)

                    monkeypatch.setattr(Scan, "anchor", stub)
                    result = execute(scan, viewpoint.id, facing, [atom])
                    assert result.path == (viewpoint.id, target)
                    moves += 1
        assert moves > 10


def test_no_objects_is_text_blind():
    """Vision enters the executor only through ``Scan.anchor``: on a scan with
    no objects every crafted path executes as it does on the original scan
    with every atom's object reference removed."""
    for scan in _fixture_scans():
        no_objects = Scan(dataclasses.replace(scan.scene, objects=()), scan.graph, scan.cfg)
        for path in sample_paths(scan.graph, n=50, seed=7).paths:
            atoms = craft_instruction(scan, path).atoms
            blind = [dataclasses.replace(atom, object_ref=None) for atom in atoms]
            start = (path.path[0], path.heading)
            assert execute(no_objects, *start, list(atoms)) == execute(scan, *start, blind)


# Categories 0 and 1 share a name: uniqueness is decided by name, not index.
_GRID_NAMES = ("chair", "chair", "lamp", "floor", "sofa")
_GRID_RADII = ((0.1, 0.1, 0.1), (0.3, 0.3, 0.3), (0.5, 0.25, 0.1))
_GRID_STEPS = [s for s in itertools.product((-1, 0, 1), repeat=3) if any(s)]
# "floor" is blacklisted by default; "chair" names two category records.
_GRID_BLACKLISTS = (DEFAULT_BLACKLIST, frozenset(), frozenset({"chair"}))


@st.composite
def _grid_cases(draw):
    """Scenes whose coordinates sit on and next to multiples of max_distance."""
    d = draw(st.sampled_from([0.1, 1 / 3, 3.5]))
    offset = draw(st.sampled_from([0, -3, 10**10]))  # in cells; far ones stress the margin

    def coord():
        x = (offset + draw(st.integers(-3, 3))) * d
        for _ in range(draw(st.integers(0, 2))):
            x = math.nextafter(x, draw(st.sampled_from([math.inf, -math.inf])))
        return x

    def point():
        return (coord(), coord(), coord())

    queries = [point() for _ in range(draw(st.integers(1, 3)))]
    centers = [point() for _ in range(draw(st.integers(0, 8)))]
    for q in queries:
        # Several objects on the query's own x: ties in the index's x order.
        centers += [(q[0], coord(), coord()) for _ in range(draw(st.integers(0, 3)))]
        # Each neighbour may be present or not: exactly max_distance away
        # along an axis, and closer in each of the 26 directions.
        for axis, sign in itertools.product(range(3), (1.0, -1.0)):
            if draw(st.booleans()):
                c = list(q)
                c[axis] += sign * d
                centers.append(tuple(c))
        reach = draw(st.sampled_from([d / 2, d * 1e-6]))
        for step in _GRID_STEPS:
            if draw(st.booleans()):
                centers.append(tuple(x + s * reach for x, s in zip(q, step)))
    objects = tuple(
        SceneObject(i, -1, draw(st.integers(0, len(_GRID_NAMES) - 1)), c,
                    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), draw(st.sampled_from(_GRID_RADII)))
        for i, c in enumerate(centers))
    categories = tuple(Category(i, i, name, i, name) for i, name in enumerate(_GRID_NAMES))
    scene = SceneModel("grid", categories, (), objects, ())
    cfg = SaliencyConfig(max_distance=d, min_area=draw(st.sampled_from([0.0, 0.2, 0.36])),
                         blacklist=draw(st.sampled_from(_GRID_BLACKLISTS)),
                         require_unique=draw(st.booleans()))
    return Scan(scene, NavGraph("grid", [], {}), cfg), queries + centers


_TWELVE_HEADINGS = tuple(k * math.pi / 6 for k in range(12))


def _reference_anchor(reference, heading, fov):
    best = best_object(reference, heading, fov)
    return None if best is None else ObjectRef(best.category, side_of_travel(heading, best.heading))


@settings(max_examples=200)
@given(_grid_cases())
def test_grid_candidates_equal_filtered_observe(case):
    """Both ``Scan.candidates`` and ``Scan.anchor`` equal their oracles; the
    anchor at 12 headings around and at each candidate's field-of-view edges."""
    scan, positions = case
    fov = scan.cfg.fov
    for p in positions:
        reference = tuple(filter_candidates(observe(scan.scene, p, scan.cfg.max_distance),
                                            scan.cfg))
        assert scan.candidates(p) == reference
        edges = [o.heading + side * fov.half_width for o in reference for side in (1.0, -1.0)]
        for heading in (*_TWELVE_HEADINGS, *edges):
            assert scan.anchor(p, heading) == _reference_anchor(reference, heading, fov)


def test_a_query_measures_only_indexed_objects_in_its_columns_and_slab(monkeypatch):
    """Work count, free of timing. On a unit lattice with max_distance 2.5
    the cell edge is a hair over 2.5, so a query at (5, 5, 5) reads the 3x3
    (y, z) columns of 0 <= y, z <= 7 and bisects them to the x slab
    2.5..7.5. Only objects whose name is not blacklisted are indexed."""
    names = ("chair", "wall", "lamp")  # a lattice point's name follows z % 3
    lattice = [tuple(map(float, c)) for c in itertools.product(range(12), repeat=3)]
    scene = build_scene(objects=[(names[int(z) % 3], (x, y, z), (0.3, 0.3, 0.3))
                                 for x, y, z in lattice], panoramas=[])
    scan = Scan(scene, NavGraph("lattice", [], {}), SaliencyConfig(max_distance=2.5))
    measured = []
    dist = math.dist
    monkeypatch.setattr(math, "dist", lambda p, q: measured.append(q) or dist(p, q))
    scan.candidates((5.0, 5.0, 5.0))
    columns = [c for c in lattice if c[1] <= 7 and c[2] <= 7]
    assert sorted(measured) == [c for c in columns
                                if 3 <= c[0] <= 7 and names[int(c[2]) % 3] != "wall"]
    assert len(measured) == 5 * 8 * 5 == 200
    # A search of the 3x3x3 cells around the query, blacklisted objects
    # included, would measure all 8 * 8 * 8 lattice points of 0..7.
    assert len(measured) < sum(c[0] <= 7 for c in columns) == 512


def test_far_position_sees_nothing():
    # A coordinate / cell edge overflows to inf here; the index must not take
    # the floor of y or z, which key its columns, nor bisect on a far x.
    scan = Scan(_scene(), NavGraph("mini", [], {}), SaliencyConfig(max_distance=0.1))
    for far in ((1e308, 0.0, 1.5), (0.0, 1e308, 1.5), (0.0, 0.0, -1e308)):
        assert scan.candidates(far) == ()
