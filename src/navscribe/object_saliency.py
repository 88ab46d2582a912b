"""Pick out the objects worth mentioning from a viewpoint.

Candidates are filtered by distance, projected area, a category blacklist
of structural surfaces, and per-view category uniqueness: a category seen
twice from one position is ambiguous to talk about, so both copies drop out.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

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
)

DEFAULT_BLACKLIST = frozenset(
    {"floor", "ceiling", "wall", "column", "beam", "misc", "void", "unlabeled"}
)

# Bearing window (radians) around straight ahead treated as "toward".
TOWARD_HALF_WIDTH = math.pi / 12


class Relation(Enum):
    """Side of an object the agent passes on, or head-on approach."""

    LEFT = "left"
    RIGHT = "right"
    TOWARD = "toward"


@dataclass(frozen=True)
class SaliencyConfig:
    max_distance: float = 3.5
    min_area: float = 0.2
    blacklist: frozenset[str] = DEFAULT_BLACKLIST
    require_unique: bool = True
    fov: FovConfig = field(default_factory=FovConfig)

    def __post_init__(self) -> None:
        if self.max_distance <= 0.0:
            raise ValueError(f"max_distance must be positive, got {self.max_distance}")
        if self.min_area < 0.0:
            raise ValueError(f"min_area must be non-negative, got {self.min_area}")


def observe(scene: SceneModel, position: Vec3, max_distance: float) -> list[ObservedObject]:
    """All objects within max_distance of a position, nearest first.

    Distance is 3D Euclidean to the object center, closed at the bound.
    The unique flag marks categories appearing exactly once in this list.
    """
    if max_distance <= 0.0:
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

    Holds the scene, graph and saliency settings, panoramas by name, and a
    lazily filled table of the mentionable objects seen from each position.
    The table is keyed by position, not viewpoint id, because a viewpoint has
    two: edge clauses, the executor and supervision observe from the
    connectivity pose, stop clauses from the scene's panorama record. Merging
    them changes output bytes (ROADMAP.md, open item 3). Only filtered
    candidates are stored, to keep the table small.
    """

    def __init__(self, scene: SceneModel, graph: NavGraph, cfg: SaliencyConfig) -> None:
        self.scene = scene
        self.graph = graph
        self.cfg = cfg
        self.panoramas: dict[str, Panorama] = {p.name: p for p in scene.panoramas}
        self._candidates: dict[Vec3, tuple[ObservedObject, ...]] = {}

    def candidates(self, position: Vec3) -> tuple[ObservedObject, ...]:
        """Mentionable objects seen from a position, nearest first."""
        found = self._candidates.get(position)
        if found is None:
            found = self._candidates[position] = tuple(
                filter_candidates(observe(self.scene, position, self.cfg.max_distance), self.cfg))
        return found


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
