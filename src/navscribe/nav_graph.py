"""Navigation graphs: connectivity parsing, shortest paths, path sampling.

A graph is built from the simulator connectivity format: a JSON array with
one entry per viewpoint carrying an ``image_id``, a 4x4 row-major ``pose``
(translation at flat indices 3, 7 and 11), a ``height``, an ``included``
flag and an ``unobstructed`` boolean row over all viewpoints; other keys,
such as ``visible``, are ignored. An edge exists when both endpoints are
included and either direction is unobstructed. Excluded viewpoints keep
their identity but lose all edges. Every connectivity error is a
``JsonSchemaError`` (``ConnectivityError`` here) located by its
``json_path``, such as ``$[0].pose[3]``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress

from . import jsonio
from .rng import SplitMix64
from .view_geometry import TWO_PI, Vec3, heading_to

HEADING_CHOICES = 12  # discrete initial headings, k * pi/6

ConnectivityError = jsonio.JsonSchemaError  # the connectivity reader's name for it


@dataclass(frozen=True, slots=True)
class Viewpoint:
    id: str
    position: Vec3
    height: float
    included: bool


class NavGraph:
    """Undirected weighted graph over viewpoints."""

    def __init__(self, scan_id: str, viewpoints: list[Viewpoint],
                 edges: dict[tuple[str, str], float]) -> None:
        self.scan_id = scan_id
        self.viewpoints = tuple(viewpoints)
        self._by_id = {v.id: v for v in viewpoints}
        self.edges = dict(edges)
        adj: dict[str, list[tuple[str, float]]] = {v.id: [] for v in viewpoints}
        for (a, b), length in edges.items():
            adj[a].append((b, length))
            adj[b].append((a, length))
        self._adj = {vid: tuple(sorted(nbrs)) for vid, nbrs in adj.items()}

    def viewpoint(self, vid: str) -> Viewpoint:
        try:
            return self._by_id[vid]
        except KeyError:
            raise ValueError(f"unknown viewpoint id {vid!r}") from None

    def position(self, vid: str) -> Vec3:
        return self.viewpoint(vid).position

    def adjacency(self, vid: str) -> tuple[tuple[str, float], ...]:
        """(neighbor id, edge length) pairs of a viewpoint, sorted by id."""
        self.viewpoint(vid)
        return self._adj[vid]

    def edge_length(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        try:
            return self.edges[key]
        except KeyError:
            raise ValueError(f"no edge between {a!r} and {b!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self.edges


def check_route(path: tuple[str, ...], heading: float, distance: float) -> None:
    """The rules a path with a start heading keeps, as a PathSpec or as a
    dataset record: named after the fields of the paths and dataset files."""
    if not path:
        raise ValueError("path must contain at least one viewpoint")
    for prev, cur in zip(path, path[1:]):
        if prev == cur:
            raise ValueError(f"immediate repetition of viewpoint {cur!r}")
    if not 0.0 <= heading < TWO_PI:
        raise ValueError(f"heading must be in [0, 2*pi), got {heading}")
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if not distance < math.inf:  # NaN too
        raise ValueError(f"distance must be finite, got {distance}")


def check_paths_on(graph: NavGraph, records, where: str) -> None:
    """Raise a JsonSchemaError at the first fault in ``records`` (paths or
    dataset records) on ``graph``, record by record: a ``scan`` that is not
    the graph's, then the first viewpoint of the ``path`` that the graph does
    not hold or reaches by no edge from the one before; record ``i`` is
    ``{where}[i]``."""
    for i, record in enumerate(records):
        if record.scan != graph.scan_id:
            raise jsonio.JsonSchemaError(
                f"scan {record.scan!r} is not the scene's {graph.scan_id!r}", f"{where}[{i}].scan")
        path = record.path
        for k, vid in enumerate(path):
            try:
                graph.viewpoint(vid)
                if k:
                    graph.edge_length(path[k - 1], vid)
            except ValueError as exc:
                raise jsonio.JsonSchemaError(str(exc), f"{where}[{i}].path[{k}]") from None


@dataclass(frozen=True, slots=True)
class PathSpec:
    """A concrete path with its initial agent heading: a paths file entry."""

    scan: str
    path: tuple[str, ...]
    heading: float
    distance: float

    def __post_init__(self) -> None:
        check_route(self.path, self.heading, self.distance)


@dataclass(frozen=True, slots=True)
class SampleResult:
    """Unsatisfied requests plus the sampled paths: a whole paths file."""

    shortfall: int
    paths: tuple[PathSpec, ...]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _viewpoint_entry(image_id: str, pose: tuple[float, ...], included: bool,
                     unobstructed: tuple[bool, ...], height: float
                     ) -> tuple[Viewpoint, tuple[bool, ...]]:
    """One connectivity entry: its viewpoint and its unobstructed row."""
    if len(pose) != 16:
        raise ValueError(f"pose must have 16 entries, found {len(pose)}")
    return Viewpoint(image_id, (pose[3], pose[7], pose[11]), height, included), unobstructed


_CONNECTIVITY_SCHEMA = jsonio.array(jsonio.open_record(_viewpoint_entry))


def parse_connectivity(text: str, scan_id: str = "") -> NavGraph:
    """Build a NavGraph from connectivity JSON text; any error is a
    JsonSchemaError naming its place."""
    entries = jsonio.load(text, _CONNECTIVITY_SCHEMA)
    n = len(entries)
    viewpoints = [viewpoint for viewpoint, _ in entries]
    unobstructed = [row for _, row in entries]
    ids: set[str] = set()
    for i, (viewpoint, row) in enumerate(entries):
        if viewpoint.id in ids:
            raise ConnectivityError(f"duplicate image_id {viewpoint.id!r}", f"$[{i}].image_id")
        ids.add(viewpoint.id)
        if len(row) != n:
            raise ConnectivityError(f"expected {n} entries, found {len(row)}",
                                    f"$[{i}].unobstructed")

    # Each pair (i, j), i < j, of included viewpoints with a true cell either
    # way, found from the true cells alone; taken in (i, j) order, which sets
    # the edge order and which bad edge is reported first.
    included = [viewpoint.included for viewpoint in viewpoints]
    pairs = set()
    for i in compress(range(n), included):
        for j in compress(range(n), unobstructed[i]):
            if included[j] and i != j:
                pairs.add((i, j) if i < j else (j, i))
    edges: dict[tuple[str, str], float] = {}
    for i, j in sorted(pairs):
        pa, pb = viewpoints[i].position, viewpoints[j].position
        length = math.dist(pa, pb)  # finite points can still be infinitely far apart
        if not 0.0 < length < math.inf:
            raise ConnectivityError(
                f"{'zero' if length <= 0.0 else 'infinite'}-length edge between "
                f"{viewpoints[i].id!r} and {viewpoints[j].id!r}", f"$[{i}]"
            )
        a, b = viewpoints[i].id, viewpoints[j].id
        key = (a, b) if a <= b else (b, a)
        edges[key] = length
    return NavGraph(scan_id, viewpoints, edges)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def _dijkstra_all(graph: NavGraph, source: str, until: set[str] | None = None
                  ) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Cheapest (cost, path) per settled node; cost ties break on the
    lexicographically smaller path, which the heap order provides for free.

    With no ``until`` every reachable node is settled. With a set ``until``
    the search stops as soon as every node of it is settled. Up to that point
    it pops and pushes exactly what the full search does, so each node it
    settles has the full search's entry, ties included; nodes of ``until``
    that are unreachable leave the search running to the end.
    """
    best: dict[str, tuple[float, tuple[str, ...]]] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    left = None if until is None else set(until)
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = (cost, path)
        if left is not None:
            left.discard(node)
            if not left:
                break
        for nbr, weight in graph._adj[node]:
            if nbr not in best:
                heapq.heappush(heap, (cost + weight, path + (nbr,)))
    return best


def _within_hops(graph: NavGraph, source: str, hops: int) -> set[str]:
    """The viewpoints at most ``hops`` edges from ``source``, by a
    breadth-first search that also stops once its frontier is empty."""
    reached = {source}
    frontier = [source]
    while frontier and hops > 0:
        hops -= 1
        nxt = []
        for node in frontier:
            for nbr, _ in graph._adj[node]:
                if nbr not in reached:
                    reached.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
    return reached


def shortest_path(graph: NavGraph, a: str, b: str) -> PathSpec | None:
    """Minimum-cost path from a to b, or None when b is unreachable.

    Equal-cost alternatives resolve to the path whose first differing
    viewpoint id sorts lower. The initial heading faces the second node
    (0.0 for the trivial single-node path). The search stops once b is
    settled, with the entry the full search would give it.
    """
    for vid in (a, b):
        if not graph.viewpoint(vid).included:
            raise ValueError(f"viewpoint {vid!r} is not included")
    if a == b:
        return PathSpec(graph.scan_id, (a,), 0.0, 0.0)
    best = _dijkstra_all(graph, a, until={b})
    if b not in best:
        return None
    cost, path = best[b]
    heading = heading_to(graph.position(path[0]), graph.position(path[1]))
    return PathSpec(graph.scan_id, path, heading, cost)


def geodesic_distance(graph: NavGraph, a: str, b: str) -> float:
    """Length of the cheapest route between two viewpoints, inf if none; the
    search stops once b is settled, at the full search's cost."""
    graph.viewpoint(a)
    graph.viewpoint(b)
    best = _dijkstra_all(graph, a, until={b})
    return best[b][0] if b in best else math.inf


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def check_sampler_bounds(n: int, seed: int, min_hops: int, max_hops: int,
                         min_geodesic: float) -> None:
    """Raise ValueError for the first of ``sample_paths``' bounds out of range."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 <= seed < 2**64:  # SplitMix64 would alias it to seed mod 2**64
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if min_hops < 0:
        raise ValueError(f"min_hops must be non-negative, got {min_hops}")
    if min_hops > max_hops:
        raise ValueError(f"min_hops {min_hops} exceeds max_hops {max_hops}")
    if not 0.0 <= min_geodesic < math.inf:
        raise ValueError(f"min_geodesic must be finite and non-negative, got {min_geodesic}")


def sample_paths(graph: NavGraph, n: int, seed: int, min_hops: int = 4,
                 max_hops: int = 7, min_geodesic: float = 5.0) -> SampleResult:
    """Sample distinct shortest paths, fully reproducible from the seed.

    Procedure, in stream order on one splitmix64 generator:

    1. ``ids`` is the sorted list of included viewpoint ids.
    2. Draw ``i = below(len(ids))`` then ``j = below(len(ids))``.
    3. Reject (draw again) when ``ids[i] == ids[j]``, when the ordered pair
       was already accepted, or when the shortest path fails the hop or
       geodesic constraints.
    4. On acceptance only, draw ``k = below(12)`` and use heading ``k*pi/6``.

    The loop ends once ``n`` paths are collected or every eligible ordered
    pair has been used; the shortfall is reported in the result.

    A source's eligible targets are found by one Dijkstra run, made the
    first time that source is drawn as ``i``; sources never drawn cost
    nothing. The run stops once it has settled every viewpoint within
    ``max_hops`` edges of the source. That is exact: a target whose shortest
    path has at most ``max_hops`` edges is among them, so it gets the full
    search's path and cost, and a viewpoint outside them has no path that
    short, so it is never eligible. Draws after the last acceptance change
    no output, so the result equals that of building every source's row
    before the first draw with full searches.
    """
    check_sampler_bounds(n, seed, min_hops, max_hops, min_geodesic)
    ids = sorted(v.id for v in graph.viewpoints if v.included)

    # rows[a] maps each eligible target of a not yet accepted to (path, cost);
    # ``left`` counts those pairs over the rows built so far.
    rows: dict[str, dict[str, tuple[tuple[str, ...], float]]] = {}
    left = 0
    rng = SplitMix64(seed)
    out: list[PathSpec] = []
    while len(out) < n and (left or len(rows) < len(ids)):
        a = ids[rng.below(len(ids))]
        b = ids[rng.below(len(ids))]
        row = rows.get(a)
        if row is None:
            row = rows[a] = {
                target: (path, cost)
                for target, (cost, path)
                in _dijkstra_all(graph, a, _within_hops(graph, a, max_hops)).items()
                if target != a and min_hops <= len(path) - 1 <= max_hops
                and cost >= min_geodesic
            }
            left += len(row)
        if b not in row:  # also when a == b, which no row holds
            continue
        k = rng.below(HEADING_CHOICES)
        path, cost = row.pop(b)
        left -= 1
        out.append(PathSpec(graph.scan_id, path, k * math.pi / 6.0, cost))
    return SampleResult(n - len(out), tuple(out))


# ---------------------------------------------------------------------------
# Path file round trip
# ---------------------------------------------------------------------------


def paths_to_json(result: SampleResult) -> str:
    """Serialize sampled paths canonically (6-decimal numbers)."""
    return jsonio.dumps(result)


_PATHS_SCHEMA = jsonio.record(SampleResult, paths=jsonio.array(
    jsonio.record(PathSpec, path=jsonio.array(jsonio.string, 1))))


def paths_from_json(text: str) -> SampleResult:
    """Read a paths file; any error is a JsonSchemaError naming its place."""
    result = jsonio.load(text, _PATHS_SCHEMA)
    if result.shortfall < 0:
        raise jsonio.JsonSchemaError("expected a non-negative integer", "$.shortfall")
    return result
