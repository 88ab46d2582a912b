"""Connectivity parsing, shortest paths, and reproducible sampling.

The square-with-split-diagonal graph pins down the two behaviors that are
easy to get subtly wrong: lexicographic tie-breaking between equal-cost
routes and strictly shorter diagonals through an intermediate node.
"""
from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SQUARE_EDGES, SQUARE_POSITIONS, build_graph
from navscribe import nav_graph
from navscribe.jsonio import JsonSchemaError
from navscribe.nav_graph import (HEADING_CHOICES, ConnectivityError, NavGraph, PathSpec,
                                 SampleResult, Viewpoint, _dijkstra_all, _within_hops,
                                 geodesic_distance, parse_connectivity,
                                 paths_from_json, paths_to_json, sample_paths, shortest_path)
from navscribe.rng import SplitMix64


def _entry(image_id, x, y, z, included, unobstructed):
    return {
        "image_id": image_id,
        "pose": [1, 0, 0, x, 0, 1, 0, y, 0, 0, 1, z, 0, 0, 0, 1],
        "included": included,
        "unobstructed": unobstructed,
        "height": 1.5,
    }


class TestParseConnectivity:
    def test_positions_come_from_pose_columns(self):
        text = json.dumps([
            _entry("a", 1.0, 2.0, 3.0, True, [False, True]),
            _entry("b", 4.0, 6.0, 3.0, True, [True, False]),
        ])
        graph = parse_connectivity(text, scan_id="s")
        assert graph.scan_id == "s"
        assert graph.position("a") == (1.0, 2.0, 3.0)
        assert graph.edge_length("a", "b") == pytest.approx(5.0)

    def test_one_way_flag_still_makes_an_edge(self):
        text = json.dumps([
            _entry("a", 0.0, 0.0, 0.0, True, [False, True]),
            _entry("b", 1.0, 0.0, 0.0, True, [False, False]),
        ])
        graph = parse_connectivity(text)
        assert graph.has_edge("a", "b")

    def test_excluded_node_keeps_vertex_drops_edges(self):
        text = json.dumps([
            _entry("a", 0.0, 0.0, 0.0, True, [False, True, True]),
            _entry("b", 1.0, 0.0, 0.0, True, [True, False, True]),
            _entry("c", 2.0, 0.0, 0.0, False, [True, True, False]),
        ])
        graph = parse_connectivity(text)
        assert not graph.viewpoint("c").included
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "c")
        assert graph.adjacency("c") == ()

    def test_extra_keys_ignored_and_integers_read_as_floats(self):
        a = _entry("a", 0, 0, 0, True, [False, True])
        b = _entry("b", 3, 4, 0, True, [True, False])
        a["visible"], b["visible"] = [False, True], [True, False]
        b["height"] = 2
        graph = parse_connectivity(json.dumps([a, b]))
        assert graph.edge_length("a", "b") == 5.0
        assert graph.viewpoint("b").height == 2.0
        assert all(type(c) is float for v in graph.viewpoints
                   for c in (*v.position, v.height))

    def test_duplicate_id_rejected(self):
        text = json.dumps([
            _entry("a", 0.0, 0.0, 0.0, True, [False, False]),
            _entry("a", 1.0, 0.0, 0.0, True, [False, False]),
        ])
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(text)
        assert str(err.value) == "$[1].image_id: duplicate image_id 'a'"

    def test_zero_length_edge_rejected(self):
        text = json.dumps([
            _entry("c", 0.0, 0.0, 0.0, True, [False, False, False]),
            _entry("a", 1.0, 1.0, 1.0, True, [False, False, True]),
            _entry("b", 1.0, 1.0, 1.0, True, [False, True, False]),
        ])
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(text)
        assert str(err.value) == "$[1]: zero-length edge between 'a' and 'b'"

    def test_infinite_edge_rejected(self):
        text = json.dumps([
            _entry("a", 1e308, 0.0, 0.0, True, [False, True]),
            _entry("b", -1e308, 0.0, 0.0, True, [True, False]),
        ])
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(text)
        assert str(err.value) == "$[0]: infinite-length edge between 'a' and 'b'"

    def test_unobstructed_row_length_checked(self):
        text = json.dumps([
            _entry("a", 0.0, 0.0, 0.0, True, [False, False]),
            _entry("b", 1.0, 0.0, 0.0, True, [False]),
        ])
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(text)
        assert str(err.value) == "$[1].unobstructed: expected 2 entries, found 1"

    @pytest.mark.parametrize("field,value,message", [
        ("included", 1, "$[0].included: expected a boolean, found integer"),
        ("unobstructed", [False, 1], "$[0].unobstructed[1]: expected a boolean, found integer"),
        ("pose", [0.0] * 15, "$[0]: pose must have 16 entries, found 15"),
        ("pose", [0.0] * 17, "$[0]: pose must have 16 entries, found 17"),
        ("pose", "identity", "$[0].pose: expected an array, found string"),
        ("image_id", 7, "$[0].image_id: expected a string, found integer"),
        ("height", None, "$[0]: missing key 'height'"),
    ])
    def test_bad_entry_is_located(self, field, value, message):
        entry = _entry("a", 0.0, 0.0, 0.0, True, [False, True])
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        text = json.dumps([entry, _entry("b", 1.0, 0.0, 0.0, True, [True, False])])
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                             ids=["nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("field", ["pose[3]", "height"])
    def test_non_finite_number_rejected(self, field, value):
        entry = _entry("a", 0.0, 0.0, 0.0, True, [False, True])
        if field == "height":
            entry["height"] = value
        else:
            entry["pose"][3] = value
        text = json.dumps([entry, _entry("b", 1.0, 0.0, 0.0, True, [True, False])])
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(text)
        assert err.value.json_path == f"$[0].{field}"

    def test_non_list_document_rejected(self):
        with pytest.raises(ConnectivityError) as err:
            parse_connectivity(json.dumps({"image_id": "a"}))
        assert str(err.value) == "$: expected an array, found object"

    def test_connectivity_error_is_the_schema_error(self):
        assert ConnectivityError is JsonSchemaError

    def test_deep_nesting_is_a_connectivity_error(self):
        with pytest.raises(ConnectivityError, match="nested too deeply"):
            parse_connectivity("[" * 200_000)

    def test_integer_too_long_to_decode_is_a_connectivity_error(self):
        with pytest.raises(ConnectivityError, match="invalid JSON"):
            parse_connectivity("[" + "1" * 5000 + "]")

    def test_neighbors_sorted(self):
        graph = build_graph(SQUARE_POSITIONS, SQUARE_EDGES)
        assert [nbr for nbr, _ in graph.adjacency("va")] == ["vb", "vd", "vm"]


class TestShortestPath:
    def test_equal_cost_tie_breaks_lexicographically(self, square_graph):
        p = shortest_path(square_graph, "vb", "vd")
        assert p.path == ("vb", "va", "vd")
        assert p.distance == pytest.approx(2.0)

    def test_split_diagonal_beats_perimeter(self, square_graph):
        p = shortest_path(square_graph, "va", "vc")
        assert p.path == ("va", "vm", "vc")
        assert p.distance == pytest.approx(math.sqrt(2.0))

    def test_initial_heading_faces_second_node(self, square_graph):
        p = shortest_path(square_graph, "vb", "vd")
        # vb -> va points along -x.
        assert p.heading == pytest.approx(3 * math.pi / 2)

    def test_same_node_is_a_trivial_path(self, square_graph):
        p = shortest_path(square_graph, "vm", "vm")
        assert p.path == ("vm",)
        assert p.distance == 0.0
        assert p.heading == 0.0

    def test_unreachable_returns_none(self):
        positions = {"a": (0.0, 0.0, 0.0), "b": (1.0, 0.0, 0.0), "c": (5.0, 0.0, 0.0)}
        graph = build_graph(positions, [("a", "b")])
        assert shortest_path(graph, "a", "c") is None
        assert geodesic_distance(graph, "a", "c") == math.inf

    def test_excluded_endpoint_rejected(self):
        text = json.dumps([
            _entry("a", 0.0, 0.0, 0.0, True, [False, True]),
            _entry("b", 1.0, 0.0, 0.0, False, [True, False]),
        ])
        graph = parse_connectivity(text)
        with pytest.raises(ValueError, match="included"):
            shortest_path(graph, "a", "b")

    def test_distance_is_symmetric(self, square_graph):
        ids = sorted(SQUARE_POSITIONS)
        for a, b in itertools.combinations(ids, 2):
            assert geodesic_distance(square_graph, a, b) == pytest.approx(
                geodesic_distance(square_graph, b, a))


class TestPathSpec:
    def test_heading_range_enforced(self):
        with pytest.raises(ValueError):
            PathSpec("s", ("a", "b"), 2 * math.pi, 1.0)
        with pytest.raises(ValueError):
            PathSpec("s", ("a", "b"), -0.1, 1.0)

    def test_immediate_repeat_rejected(self):
        with pytest.raises(ValueError):
            PathSpec("s", ("a", "a"), 0.0, 0.0)

    @pytest.mark.parametrize("distance,message", [
        (-math.inf, "distance must be non-negative, got -inf"),
        (math.inf, "distance must be finite, got inf"),
        (math.nan, "distance must be finite, got nan"),
    ])
    def test_distance_must_be_finite_and_non_negative(self, distance, message):
        with pytest.raises(ValueError) as err:
            PathSpec("s", ("a", "b"), 0.0, distance)
        assert str(err.value) == message


class TestSamplePaths:
    # Frozen by stepping splitmix64(7) through the documented draw order.
    EXPECTED = [
        (("vb", "va"), 1.0, 10),
        (("vb", "vc"), 1.0, 3),
        (("va", "vm", "vc"), 1.414214, 1),
        (("vc", "vm"), 0.707107, 3),
    ]

    def test_frozen_trace_seed_7(self, square_graph):
        result = sample_paths(square_graph, n=4, seed=7, min_hops=1, max_hops=4,
                              min_geodesic=0.0)
        assert result.shortfall == 0
        got = [(p.path, p.distance, p.heading) for p in result.paths]
        for (path, dist, k), (gpath, gdist, ghead) in zip(self.EXPECTED, got):
            assert gpath == path
            assert gdist == pytest.approx(dist, abs=1e-6)
            assert ghead == pytest.approx(k * math.pi / 6)

    def test_same_seed_reproduces(self, square_graph):
        a = sample_paths(square_graph, n=6, seed=3, min_hops=1, max_hops=4,
                         min_geodesic=0.0)
        b = sample_paths(square_graph, n=6, seed=3, min_hops=1, max_hops=4,
                         min_geodesic=0.0)
        assert a == b

    def test_headings_are_clock_positions(self, square_graph):
        result = sample_paths(square_graph, n=8, seed=11, min_hops=1, max_hops=4,
                              min_geodesic=0.0)
        for p in result.paths:
            k = p.heading / (math.pi / 6)
            assert k == pytest.approx(round(k), abs=1e-9)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, square_graph, seed):
        # SplitMix64 keeps a seed mod 2**64, so -1 would alias 2**64 - 1.
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            sample_paths(square_graph, n=1, seed=seed, min_hops=1, max_hops=4, min_geodesic=0.0)

    def test_shortfall_when_constraints_unsatisfiable(self, square_graph):
        result = sample_paths(square_graph, n=5, seed=1, min_hops=9, max_hops=12,
                              min_geodesic=0.0)
        assert result.paths == ()
        assert result.shortfall == 5

    def test_no_duplicate_ordered_pairs(self, square_graph):
        result = sample_paths(square_graph, n=20, seed=5, min_hops=1, max_hops=4,
                              min_geodesic=0.0)
        endpoints = [(p.path[0], p.path[-1]) for p in result.paths]
        assert len(endpoints) == len(set(endpoints))
        assert result.shortfall == 0  # the square offers exactly 20 ordered pairs

    def test_excluded_nodes_never_sampled(self):
        text = json.dumps([
            _entry("a", 0.0, 0.0, 0.0, True, [False, True, False]),
            _entry("b", 1.0, 0.0, 0.0, True, [True, False, True]),
            _entry("c", 2.0, 0.0, 0.0, False, [False, True, False]),
        ])
        graph = parse_connectivity(text)
        result = sample_paths(graph, n=4, seed=2, min_hops=1, max_hops=3,
                              min_geodesic=0.0)
        for p in result.paths:
            assert "c" not in p.path


def eager_sample_paths(graph, n, seed, min_hops, max_hops, min_geodesic):
    """The documented sampling procedure with every source's eligible row
    built before the first draw by an unbounded search: the reference for
    ``sample_paths``, whose searches stop at ``max_hops``."""
    ids = sorted(v.id for v in graph.viewpoints if v.included)
    eligible = {}
    for a in ids:
        for b, (cost, path) in _dijkstra_all(graph, a).items():
            if b == a:
                continue
            if min_hops <= len(path) - 1 <= max_hops and cost >= min_geodesic:
                eligible[(a, b)] = (path, cost)
    target = min(n, len(eligible))
    rng = SplitMix64(seed)
    used = set()
    out = []
    while len(out) < target:
        a = ids[rng.below(len(ids))]
        b = ids[rng.below(len(ids))]
        if a == b or (a, b) in used or (a, b) not in eligible:
            continue
        k = rng.below(HEADING_CHOICES)
        path, cost = eligible[(a, b)]
        out.append(PathSpec(graph.scan_id, path, k * math.pi / 6.0, cost))
        used.add((a, b))
    return SampleResult(n - len(out), tuple(out))


def _unit_pairs(points):
    return [(i, j) for i, p in enumerate(points) for j, q in enumerate(points)
            if i < j and math.dist(p, q) == 1.0]


def _graph_on(draw, points, pairs):
    """A graph over ``points`` with the edges ``pairs`` whose endpoints are
    both included; names shuffled, some viewpoints excluded."""
    names = draw(st.permutations([f"v{i}" for i in range(len(points))]))
    excluded = draw(st.sets(st.integers(0, max(len(points) - 1, 0)),
                            max_size=len(points) // 3 + 1))
    included = [i not in excluded for i in range(len(points))]
    viewpoints = [Viewpoint(name, p, 1.5, inc) for name, p, inc in zip(names, points, included)]
    edges = {}
    for i, j in pairs:
        if included[i] and included[j]:
            a, b = sorted((names[i], names[j]))
            edges[(a, b)] = math.dist(points[i], points[j])
    return NavGraph("gen", viewpoints, edges)


@st.composite
def _sampling_graphs(draw):
    """Small graphs on integer points: random edge sets, which may split into
    components, or full grids, whose unit edges tie many routes exactly; some
    viewpoints excluded, and as few as none included."""
    if draw(st.booleans()):
        w, h = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        points = [(float(x), float(y), 0.0) for x in range(w) for y in range(h)]
        pairs = _unit_pairs(points)
    else:
        cells = [(float(x), float(y), 0.0) for x in range(4) for y in range(4)]
        points = draw(st.permutations(cells))[:draw(st.integers(0, 12))]
        every = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
        pairs = draw(st.lists(st.sampled_from(every), min_size=min(len(every), len(points)),
                              unique=True)) if every else []
    return _graph_on(draw, points, pairs)


@st.composite
def _long_graphs(draw):
    """Graphs with many viewpoints more than three edges apart: unit grids up
    to 8x8, or chains whose steps are 1, 2 or 3 long; some viewpoints
    excluded, which can cut them into pieces."""
    if draw(st.booleans()):
        w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        points = [(float(x), float(y), 0.0) for x in range(w) for y in range(h)]
        pairs = _unit_pairs(points)
    else:
        steps = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=15))
        points = [(0.0, 0.0, 0.0)]
        for step in steps:
            points.append((points[-1][0] + step, 0.0, 0.0))
        pairs = [(i, i + 1) for i in range(len(steps))]
    return _graph_on(draw, points, pairs)


@settings(max_examples=500)
@given(graph=_sampling_graphs(), n=st.sampled_from([0, 1, 2, 3, 5, 200]),
       seed=st.integers(0, 2**64 - 1), min_hops=st.integers(0, 3),
       extra_hops=st.integers(0, 4), min_geodesic=st.sampled_from([0.0, 1.0, 1.5, 2.5]))
def test_sample_paths_equals_the_eager_reference(graph, n, seed, min_hops, extra_hops,
                                                 min_geodesic):
    args = (graph, n, seed, min_hops, min_hops + extra_hops, min_geodesic)
    assert sample_paths(*args) == eager_sample_paths(*args)


@settings(max_examples=300)
@given(graph=_long_graphs(), n=st.sampled_from([1, 3, 10, 500]),
       seed=st.integers(0, 2**64 - 1), max_hops=st.integers(1, 3), data=st.data(),
       min_geodesic=st.sampled_from([0.0, 1.0, 2.5]))
def test_sample_paths_equals_the_eager_reference_where_max_hops_cuts(
        graph, n, seed, max_hops, data, min_geodesic):
    min_hops = data.draw(st.integers(0, max_hops))
    args = (graph, n, seed, min_hops, max_hops, min_geodesic)
    assert sample_paths(*args) == eager_sample_paths(*args)


@settings(max_examples=400)
@given(graph=st.one_of(_sampling_graphs(), _long_graphs()), data=st.data())
def test_bounded_search_settles_until_with_the_full_search_entries(graph, data):
    ids = [v.id for v in graph.viewpoints]
    assume(ids)
    source = data.draw(st.sampled_from(ids))
    until = data.draw(st.sets(st.sampled_from(ids)))
    full = _dijkstra_all(graph, source)
    bounded = _dijkstra_all(graph, source, until)
    assert {node: full[node] for node in bounded} == bounded
    assert until & full.keys() <= bounded.keys()


@settings(max_examples=300)
@given(graph=st.one_of(_sampling_graphs(), _long_graphs()), data=st.data())
def test_single_pair_searches_equal_the_full_search(graph, data):
    ids = [v.id for v in graph.viewpoints]
    assume(ids)
    a = data.draw(st.sampled_from(ids))
    full = _dijkstra_all(graph, a)
    for b in ids:
        expected = full[b][0] if b in full else math.inf
        assert geodesic_distance(graph, a, b) == (0.0 if a == b else expected)
        if not (graph.viewpoint(a).included and graph.viewpoint(b).included):
            continue
        found = shortest_path(graph, a, b)
        if a == b:
            assert found.path == (a,) and found.distance == 0.0
        elif b not in full:
            assert found is None
        else:
            assert (found.distance, found.path) == full[b]


def _grid(size):
    positions = {f"g{x:02d}_{y:02d}": (float(x), float(y), 0.0)
                 for x in range(size) for y in range(size)}
    names = list(positions)
    pairs = [(names[i], names[j]) for i, j in _unit_pairs(list(positions.values()))]
    return build_graph(positions, pairs)


class TestHopBound:
    """Deterministic work counts: on a unit grid every route cost is a whole
    number of edges, so the bounded search settles exactly the viewpoints
    within ``max_hops`` and no more."""

    def test_a_central_row_settles_the_seven_hop_diamond(self):
        graph = _grid(20)
        source = "g10_10"  # 9 or more edges from every border
        reach = _within_hops(graph, source, 7)
        assert len(reach) == 1 + 4 * sum(range(1, 8)) == 113
        assert len(_dijkstra_all(graph, source, reach)) == 113
        assert len(_dijkstra_all(graph, source)) == 400

    def test_sample_paths_settles_only_what_max_hops_reaches(self, monkeypatch):
        graph = _grid(20)
        settled = {}

        def counting(graph, source, until=None):
            best = _dijkstra_all(graph, source, until)
            settled[source] = len(best)
            return best

        monkeypatch.setattr(nav_graph, "_dijkstra_all", counting)
        result = sample_paths(graph, n=40, seed=3)
        assert len(result.paths) == 40 and len(settled) > 40
        points = [v.position for v in graph.viewpoints]
        for source, count in settled.items():
            x, y, _ = graph.position(source)
            assert count == sum(abs(x - u) + abs(y - v) <= 7 for u, v, _ in points)


class TestPathsJson:
    def test_round_trip(self, square_graph):
        result = sample_paths(square_graph, n=4, seed=7, min_hops=1, max_hops=4,
                              min_geodesic=0.0)
        text = paths_to_json(result)
        again = paths_from_json(text)
        assert [p.path for p in again.paths] == [p.path for p in result.paths]
        assert paths_to_json(again) == text

    # The lists of one or no path render item by item, not field by field
    # as every bench workload's 15 or more paths do, so their bytes are pinned.
    @pytest.mark.parametrize("ends,text", [
        ((), '{\n  "shortfall": 3,\n  "paths": []\n}\n'),
        (("va", "vc"),
         '{\n  "shortfall": 3,\n  "paths": [\n    {\n      "scan": "square",\n'
         '      "path": [\n        "va",\n        "vm",\n        "vc"\n      ],\n'
         '      "heading": 0.785398,\n      "distance": 1.414214\n    }\n  ]\n}\n'),
        (("va", "va"),
         '{\n  "shortfall": 3,\n  "paths": [\n    {\n      "scan": "square",\n'
         '      "path": [\n        "va"\n      ],\n'
         '      "heading": 0.000000,\n      "distance": 0.000000\n    }\n  ]\n}\n'),
    ], ids=["no-path", "one-path", "one-node-path"])
    def test_short_lists_are_pinned(self, square_graph, ends, text):
        paths = (shortest_path(square_graph, *ends),) if ends else ()
        assert paths_to_json(SampleResult(3, paths)) == text
        assert paths_to_json(paths_from_json(text)) == text

    def test_shape(self, square_graph):
        result = sample_paths(square_graph, n=2, seed=7, min_hops=1, max_hops=4,
                              min_geodesic=0.0)
        doc = json.loads(paths_to_json(result))
        assert set(doc) == {"shortfall", "paths"}
        assert set(doc["paths"][0]) == {"scan", "path", "heading", "distance"}

    @pytest.mark.parametrize("field,value,where", [
        ("heading", math.nan, "$.paths[1].heading"),
        ("distance", math.inf, "$.paths[1].distance"),
        ("distance", -math.inf, "$.paths[1].distance"),
        ("path", [], "$.paths[1].path"),
        ("path", ["a", 3], "$.paths[1].path[1]"),
        ("heading", 7.0, "$.paths[1]"),
    ])
    def test_read_names_the_bad_value(self, square_graph, field, value, where):
        result = sample_paths(square_graph, n=2, seed=7, min_hops=1, max_hops=4,
                              min_geodesic=0.0)
        doc = json.loads(paths_to_json(result))
        doc["paths"][1][field] = value
        with pytest.raises(JsonSchemaError) as err:
            paths_from_json(json.dumps(doc))
        assert err.value.json_path == where

    def test_negative_shortfall_located(self):
        with pytest.raises(JsonSchemaError) as err:
            paths_from_json(json.dumps({"shortfall": -1, "paths": []}))
        assert err.value.json_path == "$.shortfall"
