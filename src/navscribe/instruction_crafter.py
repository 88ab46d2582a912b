"""Turn paths into natural-language navigation instructions.

Every path edge becomes one atomic clause (turn + motion + optional object
anchor) and the path ends with a stop clause. The clause grammar is a closed
template table, stated once in ``render_atom``; the executor's parser is
built from it, and rendering is bijective, so any crafted text parses back
into the identical atom sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .nav_graph import PathSpec
from .object_saliency import ObjectRef, Relation, Scan
from .supervision_export import DatasetRecord
from .view_geometry import heading_to, relative_bearing

# Turn classification bounds (radians, signed bearing to the next node).
TURN_STRAIGHT_BOUND = math.pi / 8
TURN_AROUND_BOUND = 5 * math.pi / 8

# Vertical motion threshold (meters) for stair detection across regions.
VERTICAL_DELTA = 0.5


class Turn(Enum):
    NONE = "none"
    LEFT = "left"
    RIGHT = "right"
    AROUND = "around"


class Motion(Enum):
    WALK_STRAIGHT = "walk_straight"
    GO_UP = "go_up"
    GO_DOWN = "go_down"
    STOP = "stop"


@dataclass(frozen=True, slots=True)
class AtomicInstruction:
    turn: Turn
    motion: Motion
    object_ref: ObjectRef | None
    text: str


@dataclass(frozen=True, slots=True)
class CraftedInstruction:
    atoms: tuple[AtomicInstruction, ...]
    text: str


# ---------------------------------------------------------------------------
# Template table (closed grammar; parse_crafted is built from render_atom)
# ---------------------------------------------------------------------------

TURN_PREFIX = {
    Turn.NONE: "",
    Turn.LEFT: "Turn left, ",
    Turn.RIGHT: "Turn right, ",
    Turn.AROUND: "Turn around, ",
}

MOTION_CORE = {
    Motion.WALK_STRAIGHT: "walk straight",
    Motion.GO_UP: "go up the stairs",
    Motion.GO_DOWN: "go down the stairs",
}

RELATION_SUFFIX = {
    Relation.LEFT: " down the left of the ",
    Relation.RIGHT: " down the right of the ",
    Relation.TOWARD: " toward the ",
}

STOP_PLAIN = "Stop there"
STOP_AT = "Stop right at the "


def render_atom(turn: Turn, motion: Motion, object_ref: ObjectRef | None) -> str:
    """Render one clause from the template table (no trailing period)."""
    if motion is Motion.STOP:
        if object_ref is None:
            return STOP_PLAIN
        if object_ref.relation is Relation.TOWARD:
            return f"{STOP_AT}{object_ref.category}"
        return f"{STOP_AT}{object_ref.relation.value} of the {object_ref.category}"
    clause = TURN_PREFIX[turn] + MOTION_CORE[motion]
    if object_ref is not None:
        clause += RELATION_SUFFIX[object_ref.relation] + object_ref.category
    return clause[0].upper() + clause[1:]


def make_atom(turn: Turn, motion: Motion, object_ref: ObjectRef | None = None) -> AtomicInstruction:
    if motion is Motion.STOP and turn is not Turn.NONE:
        raise ValueError("stop atoms carry no turn")
    if object_ref is not None:
        category = object_ref.category
        if not category.strip():
            raise ValueError("object reference category must be non-empty")
        # The parser splits clauses at ". ", takes no edge whitespace, and
        # reads "Stop right at the left of the x" as a stop at a side.
        if (category != category.strip() or ". " in category
                or motion is Motion.STOP and object_ref.relation is Relation.TOWARD
                and category.startswith(("left of the ", "right of the "))):
            raise ValueError(f"object reference category {category!r} would not parse back")
    return AtomicInstruction(turn, motion, object_ref, render_atom(turn, motion, object_ref))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_turn(bearing: float) -> Turn:
    """Map a signed bearing in (-pi, pi] to a turn class."""
    if abs(bearing) < TURN_STRAIGHT_BOUND:
        return Turn.NONE
    if TURN_STRAIGHT_BOUND <= bearing < TURN_AROUND_BOUND:
        return Turn.RIGHT
    if -TURN_AROUND_BOUND < bearing <= -TURN_STRAIGHT_BOUND:
        return Turn.LEFT
    return Turn.AROUND


def classify_vertical(delta_z: float, cross_region: bool) -> Motion:
    """Stairs need both a real height change and a region change."""
    if cross_region and delta_z > VERTICAL_DELTA:
        return Motion.GO_UP
    if cross_region and delta_z < -VERTICAL_DELTA:
        return Motion.GO_DOWN
    return Motion.WALK_STRAIGHT


# ---------------------------------------------------------------------------
# Crafting
# ---------------------------------------------------------------------------


def atomic_for_edge(scan: Scan, cur: str, nxt: str,
                    cur_heading: float) -> tuple[AtomicInstruction, float]:
    """Atom describing the move cur -> nxt; returns (atom, new heading)."""
    graph = scan.graph
    if not graph.has_edge(cur, nxt):
        raise ValueError(f"({cur!r}, {nxt!r}) is not an edge")
    p_cur = graph.position(cur)
    p_nxt = graph.position(nxt)
    target = heading_to(p_cur, p_nxt)
    turn = classify_turn(relative_bearing(cur_heading, target))

    pano_cur = scan.panoramas.get(cur)
    pano_nxt = scan.panoramas.get(nxt)
    cross = (pano_cur is not None and pano_nxt is not None
             and pano_cur.region_index != pano_nxt.region_index)
    motion = classify_vertical(p_nxt[2] - p_cur[2], cross)
    return make_atom(turn, motion, scan.anchor(p_cur, target)), target


def stop_atom(scan: Scan, node: str, incoming_heading: float) -> AtomicInstruction:
    """Terminal atom at a node, anchored on the best object ahead if any as
    seen from the node's ``P`` record position; without a ``P`` record, none."""
    pano = scan.panoramas.get(node)
    ref = None if pano is None else scan.anchor(pano.position, incoming_heading)
    return make_atom(Turn.NONE, Motion.STOP, ref)


def craft_instruction(scan: Scan, path: PathSpec) -> CraftedInstruction:
    """One atom per edge plus a stop atom, headings threaded in order."""
    heading = path.heading
    atoms: list[AtomicInstruction] = []
    for cur, nxt in zip(path.path, path.path[1:]):
        atom, heading = atomic_for_edge(scan, cur, nxt, heading)
        atoms.append(atom)
    atoms.append(stop_atom(scan, path.path[-1], heading))
    text = ". ".join(a.text for a in atoms) + "."
    return CraftedInstruction(tuple(atoms), text)


def craft_dataset(scan: Scan, paths: tuple[PathSpec, ...]) -> list[DatasetRecord]:
    """One record per path, numbered in order, with its crafted instruction."""
    return [DatasetRecord(path_id, path.scan, path.heading, path.path,
                          (craft_instruction(scan, path).text,), path.distance)
            for path_id, path in enumerate(paths)]
