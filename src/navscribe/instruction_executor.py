"""Parse crafted instructions back into atoms and walk them on the graph.

The executor is the self-check for the crafting grammar: its parser is built
from the template table, ``render_atom``, so it inverts exactly what crafting
writes. Execution re-walks the graph by scoring each neighbor against the
expected bearing of the current atom's turn class, with a hard preference for
neighbors whose ``Scan.anchor`` names the category of the atom's object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import jsonio
from .instruction_crafter import AtomicInstruction, Motion, Turn, render_atom
from .nav_graph import NavGraph, PathSpec, geodesic_distance
from .object_saliency import ObjectRef, Relation, Scan
from .supervision_export import DatasetRecord, _mean
from .view_geometry import heading_to, relative_bearing

# Bearing the executor steers toward for each turn class.
CLASS_CENTER = {
    Turn.NONE: 0.0,
    Turn.RIGHT: math.pi / 2,
    Turn.LEFT: -math.pi / 2,
    Turn.AROUND: math.pi,
}

# Score bonus (subtracted) when a neighbor's anchor names the atom's category.
OBJECT_MATCH_BONUS = math.pi

DEFAULT_SUCCESS_RADIUS = 3.0


class InstructionParseError(ValueError):
    """Crafted text outside the closed clause grammar."""

    def __init__(self, message: str, clause_index: int, fragment: str) -> None:
        super().__init__(f"clause {clause_index}: {message}: {fragment!r}")
        self.clause_index = clause_index
        self.fragment = fragment


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    path: tuple[str, ...]
    final_heading: float
    stopped: bool
    failure_reason: str | None = None


@dataclass(frozen=True, slots=True)
class NavMetrics:
    pl: float
    ne: float
    sr: float
    spl: float


# ---------------------------------------------------------------------------
# Parsing (read off the crafting templates)
# ---------------------------------------------------------------------------

# The grammar, read off render_atom for every (turn, motion) pair make_atom
# accepts. _PLAIN holds each pair's whole clause without an object. _HEADS
# holds the text before an object's category for each pair and relation, and
# each move's plain clause, which only an object phrase may extend (relation
# None), longest first: the first head that starts a clause fixes the split.
_PAIRS = [(turn, motion) for turn in Turn for motion in Motion
          if motion is not Motion.STOP or turn is Turn.NONE]
_PLAIN = {render_atom(turn, motion, None): (turn, motion) for turn, motion in _PAIRS}
_HEADS = sorted(((render_atom(turn, motion, relation and ObjectRef("", relation)),
                  turn, motion, relation)
                 for turn, motion in _PAIRS for relation in (None, *Relation)
                 if relation or motion is not Motion.STOP),
                key=lambda head: len(head[0]), reverse=True)


def parse_crafted(text: str) -> list[AtomicInstruction]:
    """Parse crafted instruction text into its atom sequence.

    The text must be clauses joined by ". " with a terminal ".". Unmatched
    clauses raise InstructionParseError naming the clause index and the
    offending fragment.
    """
    if not text or not text.endswith("."):
        raise InstructionParseError("instruction must end with a period", 0, text)
    clauses = text[:-1].split(". ")
    return [_parse_clause(clause, i) for i, clause in enumerate(clauses)]


def _parse_clause(clause: str, index: int) -> AtomicInstruction:
    # A matched clause passes every make_atom check and is its own rendering.
    pair = _PLAIN.get(clause)
    if pair is not None:
        return AtomicInstruction(*pair, None, clause)
    for head, turn, motion, relation in _HEADS:
        if clause.startswith(head):
            category = clause[len(head):]
            if relation and category and category == category.strip():
                return AtomicInstruction(turn, motion, ObjectRef(category, relation), clause)
            raise InstructionParseError(
                "invalid stop object" if motion is Motion.STOP else "unrecognized object phrase",
                index, clause)
    raise InstructionParseError("unrecognized clause", index, clause)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute(scan: Scan, start: str, heading_0: float,
            atoms: list[AtomicInstruction]) -> ExecutionResult:
    """Walk the atoms from start, one graph move per non-stop atom.

    Each move picks the neighbor minimizing the absolute bearing error
    against the atom's expected direction; when the atom carries an object
    reference, neighbors whose ``Scan.anchor`` names its category (relation
    not compared) score an extra -pi. Ties go to the smaller viewpoint id.
    """
    graph = scan.graph
    graph.viewpoint(start)
    cur = start
    heading = heading_0
    path = [cur]
    stopped = False
    failure: str | None = None

    for atom in atoms:
        if atom.motion is Motion.STOP:
            stopped = True
            break
        nbrs = graph.adjacency(cur)
        if not nbrs:
            failure = f"stranded at {cur!r}: no neighbors to move to"
            break
        p_cur = graph.position(cur)
        want = heading + CLASS_CENTER[atom.turn]

        chosen = None
        chosen_score = math.inf
        chosen_heading = 0.0
        for nbr, _ in nbrs:  # sorted by id, so strict < keeps the smaller id on ties
            nbr_heading = heading_to(p_cur, graph.position(nbr))
            score = abs(relative_bearing(want, nbr_heading))
            if atom.object_ref is not None:
                seen = scan.anchor(p_cur, nbr_heading)
                if seen is not None and seen.category == atom.object_ref.category:
                    score -= OBJECT_MATCH_BONUS
            if score < chosen_score:
                chosen, chosen_score, chosen_heading = nbr, score, nbr_heading
        cur = chosen
        heading = chosen_heading
        path.append(cur)

    return ExecutionResult(tuple(path), heading, stopped, failure)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def evaluate(graph: NavGraph, gold: PathSpec, result: ExecutionResult,
             success_radius: float = DEFAULT_SUCCESS_RADIUS) -> NavMetrics:
    """Path length, navigation error, success, and path-weighted success; of
    ``gold`` only ``path`` and ``distance`` are read, so a DatasetRecord serves too."""
    if not success_radius >= 0.0:  # NaN too: no path would succeed
        raise ValueError(f"success_radius must be non-negative, got {success_radius}")
    pl = 0.0
    for a, b in zip(result.path, result.path[1:]):
        pl += graph.edge_length(a, b)
    ne = geodesic_distance(graph, result.path[-1], gold.path[-1])
    sr = 1.0 if result.stopped and ne <= success_radius else 0.0
    denom = max(pl, gold.distance)
    spl = sr if denom == 0.0 else sr * gold.distance / denom
    return NavMetrics(pl=pl, ne=ne, sr=sr, spl=spl)


def evaluate_batch(metrics: list[NavMetrics]) -> NavMetrics:
    """Mean of each metric over a non-empty batch, by ``_mean``, so a sum
    that overflows does not make the mean infinite."""
    if not metrics:
        raise ValueError("cannot aggregate an empty batch")
    columns = zip(*((m.pl, m.ne, m.sr, m.spl) for m in metrics))
    return NavMetrics(*(_mean(list(column)) for column in columns))


def validate_dataset(scan: Scan, records: list[DatasetRecord], success_radius: float) -> dict:
    """The report of re-executing each record's first instruction; no records,
    or one whose walked length or navigation error overflows, is an error."""
    if not records:
        raise jsonio.JsonSchemaError("no records to validate")
    rows, metrics = [], []
    for i, record in enumerate(records):
        try:
            atoms, parse_ok = parse_crafted(record.instructions[0]), True
        except InstructionParseError:  # no atoms: the agent stays at its start, unstopped
            atoms, parse_ok = [], False
        result = execute(scan, record.path[0], record.heading, atoms)
        metric = evaluate(scan.graph, record, result, success_radius)
        for name, value in (("walked length", metric.pl), ("navigation error", metric.ne)):
            if not math.isfinite(value):
                raise jsonio.JsonSchemaError(f"{name} is not finite, got {value}", f"$[{i}]")
        metrics.append(metric)
        rows.append({"path_id": record.path_id, "parse_ok": parse_ok,
                     "round_trip": result.stopped and result.path == record.path})
    rate = sum(row["round_trip"] for row in rows) / len(rows)
    return {"count": len(records), "round_trip_rate": rate,
            "metrics": evaluate_batch(metrics), "paths": rows}
