"""Pick out the objects worth mentioning from a viewpoint.

Candidates are filtered by distance, projected area, a category blacklist
of structural surfaces, and per-view category uniqueness: a category seen
twice from one position is ambiguous to talk about, so both copies drop out.
"""
from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .nav_graph import NavGraph
from .scene_metadata import Panorama, SceneModel, category_name
from .view_geometry import (
    FovConfig,
    ObservedObject,
    Vec3,
    elevation_to,
    heading_to,
    in_fov,
    projected_area,
    relative_bearing,
    wrap_angle,
)

DEFAULT_BLACKLIST = frozenset(
    {"floor", "ceiling", "wall", "column", "beam", "misc", "void", "unlabeled"}
)

# Bearing window (radians) around straight ahead treated as "toward".
TOWARD_HALF_WIDTH = math.pi / 12

_NEIGHBOUR_COLUMNS = tuple(itertools.product((-1, 0, 1), repeat=2))
# center, object index, category name, projected area, mentionable
_Entry = tuple[Vec3, int, str, float, bool]
# What Scan.anchor's table holds for a question not yet asked; None is an answer.
_UNASKED = object()


class Relation(Enum):
    """Side of an object the agent passes on, or head-on approach."""

    LEFT = "left"
    RIGHT = "right"
    TOWARD = "toward"


@dataclass(frozen=True, slots=True)
class ObjectRef:
    category: str
    relation: Relation


@dataclass(frozen=True, slots=True)
class SaliencyConfig:
    max_distance: float = 3.5
    min_area: float = 0.2
    blacklist: frozenset[str] = DEFAULT_BLACKLIST
    require_unique: bool = True
    fov: FovConfig = field(default_factory=FovConfig)

    def __post_init__(self) -> None:
        if not self.max_distance > 0.0:  # NaN too: observe would keep every object
            raise ValueError(f"max_distance must be positive, got {self.max_distance}")
        if not self.min_area >= 0.0:
            raise ValueError(f"min_area must be non-negative, got {self.min_area}")


def observe(scene: SceneModel, position: Vec3, max_distance: float) -> list[ObservedObject]:
    """All objects within max_distance of a position, nearest first.

    Distance is 3D Euclidean to the object center, closed at the bound.
    The unique flag marks categories appearing exactly once in this list.
    """
    if not max_distance > 0.0:
        raise ValueError(f"max_distance must be positive, got {max_distance}")
    picked: list[ObservedObject] = []
    counts: dict[str, int] = {}
    for obj in scene.objects:
        distance = math.dist(position, obj.center)
        if distance > max_distance:
            continue
        category = category_name(scene, obj.index)
        counts[category] = counts.get(category, 0) + 1
        picked.append(
            ObservedObject(
                object_index=obj.index,
                category=category,
                heading=heading_to(position, obj.center),
                elevation=elevation_to(position, obj.center),
                distance=distance,
                area=projected_area(obj.radii),
                unique=False,
            )
        )
    observed = [
        ObservedObject(
            o.object_index, o.category, o.heading, o.elevation, o.distance, o.area,
            counts[o.category] == 1,
        )
        for o in picked
    ]
    observed.sort(key=lambda o: (o.distance, o.object_index))
    return observed


def filter_candidates(observed: list[ObservedObject], cfg: SaliencyConfig) -> list[ObservedObject]:
    """Keep mentionable objects, preserving the input order."""
    return [
        o
        for o in observed
        if o.distance <= cfg.max_distance
        and o.area >= cfg.min_area
        and o.category not in cfg.blacklist
        and (o.unique or not cfg.require_unique)
    ]


class Scan:
    """One scan's viewpoint facts, built once per command.

    Holds the scene, graph and saliency settings, panoramas by name, and two
    lazily filled tables, so that a command computes each answer once however
    often it asks: the mentionable objects seen from each position, and the
    ``anchor`` of each ``(position, heading)``. They grow with the distinct
    questions asked, so a long-lived ``Scan`` keeps every answer it gave.
    ``anchor`` is the one view query that crafter and executor make of it. A
    heading of -0.0 shares the entry of 0.0, whose anchor is the same; a
    heading that ``wrap_angle`` refuses raises, even where nothing is in view,
    and makes no entry. The tables are keyed by position, not viewpoint id,
    because a viewpoint has two: edge clauses, the executor and supervision
    observe from the connectivity pose, stop clauses from the scene's panorama
    record. Merging them changes output bytes (the ROADMAP.md open item "one
    position per viewpoint"). Only filtered candidates are stored, to keep the
    table small.

    A candidate entry equals ``tuple(filter_candidates(observe(...), cfg))`` but
    is computed from an index built on the first query: columns keyed by the
    (y, z) cell of the object centers, each holding its entries sorted by x
    and the parallel list of their x values. A query bisects the slab
    ``[x - edge, x + edge]`` out of the 3x3 columns around it. The cell edge
    is ``max_distance`` plus a margin of 1e-9 of it and a few ulps of the
    scene's extent, so float rounding in a cell key or a slab bound cannot
    leave an in-range object out; ``math.dist(position, center) <=
    max_distance`` stays the one in-range decision, as in ``observe``.
    Uniqueness counts in-range objects by category name, since two category
    records may share a name. Objects of a blacklisted name are not indexed:
    they could only change the count of a name that is never returned.
    Positions must be finite, as every reader guarantees, to have a cell key.
    The index is pure Python: importing numpy would add its code pages to the
    peak RSS of every command process, for no speed gain at these sizes.
    """

    def __init__(self, scene: SceneModel, graph: NavGraph, cfg: SaliencyConfig) -> None:
        self.scene = scene
        self.graph = graph
        self.cfg = cfg
        self.panoramas: dict[str, Panorama] = {p.name: p for p in scene.panoramas}
        self._candidates: dict[Vec3, tuple[ObservedObject, ...]] = {}
        self._anchors: dict[tuple[Vec3, float], ObjectRef | None] = {}
        self._columns: dict[tuple[int, int], tuple[list[float], list[_Entry]]] | None = None
        self._edge = self._reach = 0.0

    def candidates(self, position: Vec3) -> tuple[ObservedObject, ...]:
        """Mentionable objects seen from a position, nearest first."""
        found = self._candidates.get(position)
        if found is None:
            found = self._candidates[position] = self._mentionable_near(position)
        return found

    def anchor(self, position: Vec3, heading: float) -> ObjectRef | None:
        """What a clause facing heading names: best_object in view, with its side of travel."""
        key = (position, heading)
        found = self._anchors.get(key, _UNASKED)
        if found is _UNASKED:
            wrap_angle(heading)  # refuses a non-finite heading, which no entry may key
            best = best_object(self.candidates(position), heading, self.cfg.fov)
            found = self._anchors[key] = None if best is None else ObjectRef(
                best.category, side_of_travel(heading, best.heading))
        return found

    def _build_index(self) -> None:
        cfg = self.cfg
        centers = itertools.chain.from_iterable(map(attrgetter("center"), self.scene.objects))
        extent = max(map(abs, centers), default=0.0)
        self._edge = edge = (cfg.max_distance * (1.0 + 1e-9)
                             + 4.0 * sys.float_info.epsilon * (cfg.max_distance + extent))
        # No object is in range of a coordinate beyond this, and cell keys of
        # coordinates within it cannot overflow.
        self._reach = extent + 2.0 * edge
        self._columns = columns = {}
        names = [category.name for category in self.scene.categories]
        # In x order, so that each column's lists come out sorted by x.
        for obj in sorted(self.scene.objects, key=lambda obj: obj.center[0]):
            name = names[obj.category_index]
            if name not in cfg.blacklist:
                area = projected_area(obj.radii)
                x, y, z = obj.center
                xs, entries = columns.setdefault(
                    (math.floor(y / edge), math.floor(z / edge)), ([], []))
                xs.append(x)
                entries.append((obj.center, obj.index, name, area, area >= cfg.min_area))

    def _mentionable_near(self, position: Vec3) -> tuple[ObservedObject, ...]:
        if self._columns is None:
            self._build_index()
        if max(map(abs, position)) > self._reach:
            return ()
        max_distance, edge = self.cfg.max_distance, self._edge
        x, y, z = position
        ky, kz = math.floor(y / edge), math.floor(z / edge)
        counts: dict[str, int] = {}
        near: list[tuple[float, int, Vec3, str, float]] = []
        for dy, dz in _NEIGHBOUR_COLUMNS:
            xs, entries = self._columns.get((ky + dy, kz + dz), ((), ()))
            for center, index, name, area, mentionable in entries[
                    bisect_left(xs, x - edge):bisect_right(xs, x + edge)]:
                distance = math.dist(position, center)
                if distance <= max_distance:
                    counts[name] = counts.get(name, 0) + 1
                    if mentionable:
                        near.append((distance, index, center, name, area))
        if self.cfg.require_unique:
            near = [entry for entry in near if counts[entry[3]] == 1]
        near.sort()  # by (distance, object index): indices are unique
        return tuple(
            ObservedObject(index, name, heading_to(position, center),
                           elevation_to(position, center), distance, area, counts[name] == 1)
            for distance, index, center, name, area in near)


def best_object(candidates: Sequence[ObservedObject], target_heading: float,
                fov: FovConfig) -> ObservedObject | None:
    """Candidate most aligned with the travel direction, or None.

    Only candidates inside the field of view around target_heading count.
    Ties on |bearing| prefer the larger area, then the smaller distance,
    then the smaller object index.
    """
    best: ObservedObject | None = None
    best_key: tuple[float, float, float, int] | None = None
    for cand in candidates:
        bearing = relative_bearing(target_heading, cand.heading)
        if not in_fov(bearing, cand.elevation, fov):
            continue
        key = (abs(bearing), -cand.area, cand.distance, cand.object_index)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def side_of_travel(target_heading: float, object_heading: float) -> Relation:
    """Which side of the object the agent passes when walking target_heading.

    An object off to the travel direction's right is passed on the object's
    left, and vice versa; near-head-on objects are approached toward.
    """
    d = relative_bearing(target_heading, object_heading)
    if abs(d) <= TOWARD_HALF_WIDTH:
        return Relation.TOWARD
    return Relation.LEFT if d > 0.0 else Relation.RIGHT
