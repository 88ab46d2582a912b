"""Checks on the CLI's artifacts that use no navscribe code.

Each check reads one command's output file together with the files it was
made from and the generator's ground truth, and either returns the exit
code the command should have had or raises ``Mismatch``. Paths are checked
against the generator's own edges and this module's own Dijkstra, text
against this module's own tokenizer and the lexicon file read as data.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import math
import os

# Contracts of the CLI defaults the benchmark runs with.
MIN_HOPS, MAX_HOPS, MIN_GEODESIC = 4, 7, 5.0
N_OBJECT_LABELS = 2
TOL = 1e-6
PUNCTUATION = ".,;:!?\"'"
DROPPED_TAGS = {"nouns": {"noun"}, "adjectives": {"adjective"},
                "nouns_adjectives": {"noun", "adjective"}}
ANCHOR_MARKERS = (" of the ", " toward the ")
STOP_ANCHOR = "Stop right at the "

_STRIP = str.maketrans("", "", PUNCTUATION)


class Mismatch(Exception):
    """An artifact breaks a property the benchmark checks."""


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def tokenize(text: str) -> list[str]:
    return text.lower().translate(_STRIP).split()


def load_lexicon(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        pairs = (line.split("\t") for line in fh if line.strip())
        return {token.strip(): tag.strip() for token, tag in pairs}


def _load(run_dir: str, name: str):
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _distances(truth: dict, source: str) -> dict[str, float]:
    positions, adjacency = truth["positions"], truth["adjacency"]
    dist: dict[str, float] = {}
    heap = [(0.0, source)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = cost
        for nbr in adjacency[node]:
            if nbr not in dist:
                heapq.heappush(heap, (cost + math.dist(positions[node], positions[nbr]), nbr))
    return dist


# ---------------------------------------------------------------------------
# One check per subcommand
# ---------------------------------------------------------------------------


def _check_parse_scene(run_dir, cmd, truth, facts, lexicon) -> int:
    doc = _load(run_dir, cmd["out"])
    _require(doc["scan_id"] == truth["scan_id"], "scan id differs")
    for section, count in truth["counts"].items():
        _require(len(doc[section]) == count, f"{section}: {len(doc[section])} != {count}")
    return 0


def _check_sample_paths(run_dir, cmd, truth, facts, lexicon) -> int:
    doc = _load(run_dir, cmd["out"])
    positions, edges = truth["positions"], truth["edge_set"]
    _require(set(doc) == {"shortfall", "paths"}, "unexpected keys")
    _require(len(doc["paths"]) + doc["shortfall"] == cmd["n"], "count plus shortfall != requested")
    seen, by_source = set(), {}
    for i, entry in enumerate(doc["paths"]):
        path = entry["path"]
        where = f"paths[{i}]"
        _require(entry["scan"] == truth["scan_id"], f"{where}: wrong scan")
        _require(MIN_HOPS <= len(path) - 1 <= MAX_HOPS, f"{where}: {len(path) - 1} hops")
        _require(all(v in positions for v in path), f"{where}: unknown viewpoint")
        _require(all(tuple(sorted(pair)) in edges for pair in zip(path, path[1:])),
                 f"{where}: not a walk on the scan's edges")
        walked = sum(math.dist(positions[a], positions[b]) for a, b in zip(path, path[1:]))
        if path[0] not in by_source:
            by_source[path[0]] = _distances(truth, path[0])
        shortest = by_source[path[0]][path[-1]]
        _require(abs(walked - entry["distance"]) <= TOL, f"{where}: distance != walked length")
        _require(abs(shortest - entry["distance"]) <= TOL, f"{where}: not a shortest path")
        _require(entry["distance"] >= MIN_GEODESIC - TOL, f"{where}: shorter than the geodesic bound")
        k = entry["heading"] * 6.0 / math.pi
        _require(abs(k - round(k)) <= TOL and 0 <= round(k) < 12, f"{where}: heading off the grid")
        _require((path[0], path[-1]) not in seen, f"{where}: endpoint pair repeated")
        seen.add((path[0], path[-1]))
    return 0


def _check_craft(run_dir, cmd, truth, facts, lexicon) -> int:
    records = _load(run_dir, cmd["out"])
    paths = _load(run_dir, cmd["paths"])["paths"]
    _require(len(records) == len(paths), "record count != path count")
    for i, (rec, path) in enumerate(zip(records, paths)):
        where = f"records[{i}]"
        _require(rec["path_id"] == i, f"{where}: path_id")
        for field, source in (("path", "path"), ("heading", "heading"),
                              ("distance", "distance"), ("scan", "scan")):
            _require(rec[field] == path[source], f"{where}: {field} differs from the paths file")
        _require(len(rec["instructions"]) == 1, f"{where}: expected one instruction")
        text = rec["instructions"][0]
        _require(text.endswith("."), f"{where}: no final period")
        clauses = text[:-1].split(". ")
        _require(len(clauses) == len(rec["path"]), f"{where}: clauses != hops + 1")
        _require(clauses[-1].startswith("Stop")
                 and not any(c.startswith("Stop") for c in clauses[:-1]),
                 f"{where}: stop clause misplaced")
        facts["clauses"] += len(clauses)
        facts["anchors"] += sum(1 for c in clauses
                                if c.startswith(STOP_ANCHOR) or any(m in c for m in ANCHOR_MARKERS))
    facts["paths"] += len(records)
    return 0


def _check_supervise(run_dir, cmd, truth, facts, lexicon) -> int:
    sups = _load(run_dir, cmd["out"])
    records = _load(run_dir, cmd["dataset"])
    nouns = set(truth["head_nouns"])
    _require(len(sups) == len(records), "supervision count != record count")
    for i, (sup, rec) in enumerate(zip(sups, records)):
        where = f"supervision[{i}]"
        _require(sup["path_id"] == rec["path_id"], f"{where}: path_id")
        tokens, nodes, objects = sup["tokens"], sup["node_of_token"], sup["objects_of_token"]
        _require(tokens == tokenize(rec["instructions"][0]), f"{where}: tokens")
        _require(len(nodes) == len(tokens) == len(objects), f"{where}: lists do not align")
        last = len(rec["path"]) - 1
        _require(nodes[0] == 0 and (len(nodes) == 1 or nodes[-1] == last)
                 and all(a <= b for a, b in zip(nodes, nodes[1:])),
                 f"{where}: node_of_token is not a monotone cover of the path")
        labels_of = {}
        for node, labels in zip(nodes, objects):
            _require(labels_of.setdefault(node, labels) == labels, f"{where}: node labels vary")
            _require(len(labels) <= N_OBJECT_LABELS and len(set(labels)) == len(labels)
                     and all(label in nouns for label in labels),
                     f"{where}: bad object labels {labels}")
    return 0


def _check_ablate(run_dir, cmd, truth, facts, lexicon) -> int:
    out = _load(run_dir, cmd["out"])
    records = _load(run_dir, cmd["dataset"])
    dropped = DROPPED_TAGS.get(cmd["mode"])
    _require(len(out) == len(records), "record count changed")
    for i, (new, old) in enumerate(zip(out, records)):
        where = f"records[{i}]"
        for field in ("path_id", "scan", "path"):
            _require(new[field] == old[field], f"{where}: {field} changed")
        _require(len(new["instructions"]) == len(old["instructions"]), f"{where}: instruction count")
        for text, source in zip(new["instructions"], old["instructions"]):
            if dropped is None:
                _require(text == "", f"{where}: mode all left text")
                continue
            kept = [t for t in tokenize(source) if lexicon.get(t, "other") not in dropped]
            _require(text == " ".join(kept), f"{where}: not the source tokens minus the dropped class")
    return 0


def _check_validate(run_dir, cmd, truth, facts, lexicon) -> int:
    report = _load(run_dir, cmd["out"])
    records = _load(run_dir, cmd["dataset"])
    rows = report["paths"]
    _require(report["count"] == len(records) == len(rows), "report count != record count")
    _require([r["path_id"] for r in rows] == [r["path_id"] for r in records], "row order")
    _require(all(r["parse_ok"] or not r["round_trip"] for r in rows), "round trip without parse")
    good = sum(1 for r in rows if r["round_trip"])
    _require(abs(report["round_trip_rate"] - good / len(rows)) <= TOL, "round_trip_rate")
    m = report["metrics"]
    _require(0.0 <= m["spl"] <= m["sr"] + TOL <= 1.0 + TOL and m["pl"] >= 0.0 and m["ne"] >= 0.0,
             "metric ranges")
    facts["round_trip"] += good
    facts["round_trip_base"] += len(rows)
    return 0 if good == len(rows) else 1


def _check_stats(run_dir, cmd, truth, facts, lexicon) -> int:
    stats = _load(run_dir, cmd["out"])
    records = _load(run_dir, cmd["dataset"])
    token_lists = [tokenize(t) for r in records for t in r["instructions"]]
    expected = {
        "records": len(records),
        "instructions": len(token_lists),
        "mean_tokens": sum(map(len, token_lists)) / len(token_lists),
        "mean_path_nodes": sum(len(r["path"]) for r in records) / len(records),
        "mean_distance": sum(r["distance"] for r in records) / len(records),
        "vocabulary": len({t for tokens in token_lists for t in tokens}),
    }
    _require(list(stats) == list(expected), "keys")
    for key, value in expected.items():
        _require(abs(stats[key] - value) <= TOL, f"{key}: {stats[key]} != {value}")
    facts["paths"] += len(records)
    return 0


CHECKS = {
    "parse-scene": _check_parse_scene,
    "sample-paths": _check_sample_paths,
    "craft": _check_craft,
    "supervise": _check_supervise,
    "ablate": _check_ablate,
    "validate": _check_validate,
    "stats": _check_stats,
}


def check(run_dir: str, commands: list[dict], truths: dict, lexicon_path: str) -> dict:
    """Check every command's artifact. Returns the expected exit code of
    each command, the problems found per command index, and the counts the
    per-layer report needs (paths carried, anchors, round trips)."""
    for truth in truths.values():
        truth["edge_set"] = {tuple(e) for e in truth["edges"]}
        adjacency = {v: [] for v in truth["positions"]}
        for a, b in truth["edges"]:
            adjacency[a].append(b)
            adjacency[b].append(a)
        truth["adjacency"] = adjacency
    lexicon = load_lexicon(lexicon_path)
    facts = {"paths": 0, "clauses": 0, "anchors": 0, "round_trip": 0, "round_trip_base": 0}
    expected_rc, problems = [], {}
    for idx, cmd in enumerate(commands):
        try:
            expected_rc.append(CHECKS[cmd["argv"][0]](
                run_dir, cmd, truths.get(cmd.get("scan")), facts, lexicon))
        except (Mismatch, OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            expected_rc.append(0)
            problems[idx] = f"{cmd['argv'][0]} {cmd['out']}: {type(exc).__name__}: {exc}"
    return {"expected_rc": expected_rc, "problems": problems, "facts": facts}
