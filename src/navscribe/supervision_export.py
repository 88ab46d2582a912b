"""Word-level supervision and dataset file emission.

Every instruction token is assigned to a path node by linear position, and
every node contributes the head nouns of its most salient mentionable objects
in every direction (no field of view). Output files are canonical JSON (fixed
key order, 6-decimal numbers) so a given pipeline run is byte-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from . import jsonio
from .nav_graph import PathSpec, check_route
from .object_saliency import Scan
from .scene_metadata import _repeated, head_noun

# Characters stripped from tokens before use, wherever instructions are tokenized.
PUNCTUATION = ".,;:!?\"'"

_STRIP_TABLE = str.maketrans("", "", PUNCTUATION)
_STRIP_BYTES = PUNCTUATION.encode()


@dataclass(frozen=True, slots=True)
class DatasetRecord:
    """One training path with its instruction texts."""

    path_id: int
    scan: str
    heading: float
    path: tuple[str, ...]
    instructions: tuple[str, ...]
    distance: float

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("a dataset record needs at least one instruction")
        check_route(self.path, self.heading, self.distance)


@dataclass(frozen=True, slots=True)
class WordObjectSupervision:
    """Per-token node assignment and object labels for one instruction."""

    path_id: int
    tokens: tuple[str, ...]
    node_of_token: tuple[int, ...]
    objects_of_token: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not len(self.tokens) == len(self.node_of_token) == len(self.objects_of_token):
            raise ValueError("token, node and object lists must align")


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    text = text.lower()
    if text.isascii():
        # bytes.translate deletes in one C pass, where str.translate looks up
        # every character in a dict. The str is split, not the bytes, because
        # only str.split breaks at \x1c-\x1f.
        return text.encode().translate(None, _STRIP_BYTES).decode().split()
    return text.translate(_STRIP_TABLE).split()


def align_words_to_nodes(num_tokens: int, num_nodes: int) -> list[int]:
    """Token index -> node index by linear interpolation, rounding half up.

    Exact integer arithmetic: entry i is round_half_up(i*(K-1)/(L-1)) for
    L tokens over K nodes, all zeros for a single token.
    """
    if num_tokens <= 0:
        raise ValueError(f"num_tokens must be positive, got {num_tokens}")
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_tokens == 1:
        return [0]
    span, steps = num_nodes - 1, num_tokens - 1
    return [(2 * i * span + steps) // (2 * steps) for i in range(num_tokens)]


def top_n_objects(scan: Scan, node: str, n: int) -> list[str]:
    """Head nouns of the n most salient mentionable objects around a node.

    Every direction from its connectivity pose counts (no field of view).
    Salience ranks by projected area descending, then distance ascending,
    then object index; duplicate head nouns collapse to the first.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    candidates = scan.candidates(scan.graph.position(node))
    ranked = sorted(candidates, key=lambda o: (-o.area, o.distance, o.object_index))
    out: list[str] = []
    for cand in ranked:
        noun = head_noun(cand.category)
        if noun not in out:
            out.append(noun)
            if len(out) == n:
                break
    return out


class NoTokensError(ValueError):
    """An instruction that has no tokens after tokenization."""


def build_supervision(scan: Scan, path: PathSpec | DatasetRecord, instruction: str, n: int,
                      path_id: int = 0, *,
                      labels: dict[str, tuple[str, ...]] | None = None) -> WordObjectSupervision:
    """Token-to-node alignment plus per-token object labels for one instruction;
    of ``path`` only ``path.path`` is read, so a DatasetRecord serves too.
    ``labels`` maps node ids to their label tuples for this ``n``, and gains
    those of the nodes it lacks, so that calls sharing it rank each node once
    and share its tuple; without it, a call ranks its own nodes."""
    tokens = tokenize(instruction)
    if not tokens:
        raise NoTokensError("instruction has no tokens after tokenization")
    if labels is None:
        labels = {}
    node_of_token = align_words_to_nodes(len(tokens), len(path.path))
    nodes = list(map(path.path.__getitem__, node_of_token))
    for node in dict.fromkeys(nodes):
        if node not in labels:
            labels[node] = tuple(top_n_objects(scan, node=node, n=n))
    return WordObjectSupervision(
        path_id=path_id,
        tokens=tuple(tokens),
        node_of_token=tuple(node_of_token),
        objects_of_token=tuple(map(labels.__getitem__, nodes)),
    )


def supervise_dataset(scan: Scan, records: list[DatasetRecord],
                      n: int) -> list[WordObjectSupervision]:
    """Supervision of each record's first instruction, refusing one with no
    tokens; each node is ranked once, and its label tuple shared."""
    supervisions = []
    labels: dict[str, tuple[str, ...]] = {}
    for i, record in enumerate(records):
        try:
            supervisions.append(build_supervision(scan, record, record.instructions[0], n,
                                                  path_id=record.path_id, labels=labels))
        except NoTokensError as exc:
            raise jsonio.JsonSchemaError(str(exc), f"$[{i}].instructions[0]") from None
    return supervisions


def dataset_stats(records: list[DatasetRecord]) -> dict:
    """Record, instruction and vocabulary counts, and mean sizes."""
    # One pass that keeps no token list: integer counts give the lists' means exactly.
    n_instructions = n_tokens = 0
    vocabulary: set[str] = set()
    for r in records:
        for text in r.instructions:
            tokens = tokenize(text)
            n_instructions += 1
            n_tokens += len(tokens)
            vocabulary.update(tokens)
    return {
        "records": len(records),
        "instructions": n_instructions,
        "mean_tokens": (n_tokens / n_instructions) if n_instructions else 0.0,
        "mean_path_nodes": (sum(len(r.path) for r in records) / len(records)) if records else 0.0,
        "mean_distance": _mean([r.distance for r in records]),
        "vocabulary": len(vocabulary),
    }


def _mean(values: list[float]) -> float:
    """The mean of finite non-negative ``values``, 0.0 for none. Where their
    sum overflows, the values are summed scaled down by a power of two above
    their count, which is exact but for subnormals, and the mean is capped at
    the largest of them."""
    if not values:
        return 0.0
    total = sum(values)
    if total < math.inf:
        return total / len(values)
    scale = 2.0 ** len(values).bit_length()
    return min(sum(value / scale for value in values) / len(values) * scale, max(values))


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def _unique_ids(records: list) -> list:
    """The records, whose path_ids must be unique: a repeat raises a
    JsonSchemaError located at its first recurrence, such as ``$[1].path_id``."""
    at = _repeated(list(map(attrgetter("path_id"), records)))
    if at is not None:
        raise jsonio.JsonSchemaError(f"duplicate path_id {records[at].path_id}",
                                     f"$[{at}].path_id")
    return records


def _dumps_by_path_id(records: list) -> str:
    """Records sorted by path_id, as canonical JSON; ids must be unique."""
    return jsonio.dumps(sorted(_unique_ids(records), key=attrgetter("path_id")))


def emit_r2r_json(records: list[DatasetRecord]) -> str:
    """Serialize dataset records sorted by path_id; ids must be unique."""
    return _dumps_by_path_id(records)


_DATASET_SCHEMA = jsonio.array(jsonio.record(
    DatasetRecord, path=jsonio.array(jsonio.string, 1),
    instructions=jsonio.array(jsonio.string, 1)))


def read_r2r_json(text: str) -> list[DatasetRecord]:
    """Read a dataset file, whose path_ids are unique; any error is a
    JsonSchemaError naming its place."""
    return _unique_ids(list(jsonio.load(text, _DATASET_SCHEMA)))


def emit_supervision_json(supervisions: list[WordObjectSupervision]) -> str:
    """Serialize supervision records sorted by path_id; ids must be unique."""
    return _dumps_by_path_id(supervisions)


_SUPERVISION_SCHEMA = jsonio.array(jsonio.record(WordObjectSupervision))


def read_supervision_json(text: str) -> list[WordObjectSupervision]:
    """Read a supervision file, whose path_ids are unique; any error is a
    JsonSchemaError naming its place."""
    return _unique_ids(list(jsonio.load(text, _SUPERVISION_SCHEMA)))
