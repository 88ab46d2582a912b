"""End-to-end gate for the whole package.

Nine independent checks, each printing a single PASS or FAIL line (run with
``-s`` or ``-rA`` to see them). Each check aggregates its sub-results so the
printed line reflects the whole criterion, then fails loudly with the first
offending cases.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import time

from scenes import all_scenes, malformed_house_cases, write_scene_files
from navscribe.aux_loss_math import gradient_check, log_softmax, nll
from navscribe.cli import main
from navscribe.instruction_crafter import (Motion, ObjectRef, Turn,
                                           craft_instruction, make_atom)
from navscribe.instruction_executor import (ExecutionResult, evaluate, execute,
                                            parse_crafted)
from navscribe.nav_graph import (PathSpec, parse_connectivity, sample_paths,
                                 shortest_path)
from navscribe.object_saliency import Relation, SaliencyConfig, Scan
from navscribe.scene_metadata import HouseParseError, parse_house
from navscribe.supervision_export import align_words_to_nodes, tokenize
from navscribe.text_ablation import (AblationMode, ablate, load_default_lexicon)

SEED = 42
MIN_PATHS = 200
ROUND_TRIP_BUDGET_S = 10.0
GRAD_TOLERANCE = 1e-6
NLL_TOLERANCE = 1e-12

CATEGORIES = (
    "sofa", "piano", "bed", "table", "lamp", "mirror", "fireplace",
    "aquarium", "bookshelf", "armchair", "rug", "sink", "bathtub",
    "staircase", "wardrobe", "plant", "television", "nightstand",
    "coffee table", "chest of drawers",
)

MOVE_MOTIONS = (Motion.WALK_STRAIGHT, Motion.GO_UP, Motion.GO_DOWN)


def _verdict(number: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"{status} criterion {number}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def _bundles():
    out = {}
    for fx in all_scenes():
        scene = parse_house(fx.house_text)
        graph = parse_connectivity(fx.connectivity_text, scan_id=fx.name)
        out[fx.name] = (scene, graph)
    return out


def _move_atoms():
    """Every turn x motion x object-reference combination the grammar admits."""
    refs = [None] + [ObjectRef(cat, rel)
                     for rel in Relation for cat in CATEGORIES]
    return [make_atom(turn, motion, ref)
            for turn in Turn for motion in MOVE_MOTIONS for ref in refs]


def _stop_atom(i: int):
    variant = i % 4
    if variant == 0:
        return make_atom(Turn.NONE, Motion.STOP)
    relation = (Relation.TOWARD, Relation.LEFT, Relation.RIGHT)[variant - 1]
    return make_atom(Turn.NONE, Motion.STOP,
                     ObjectRef(CATEGORIES[i % len(CATEGORIES)], relation))


def _full_texts():
    texts = []
    for i, atom in enumerate(_move_atoms()):
        stop = _stop_atom(i)
        texts.append((". ".join(a.text for a in (atom, stop)) + ".", (atom, stop)))
    return texts


def test_01_crafted_instructions_round_trip():
    failures: list[str] = []
    cfg = SaliencyConfig()
    total = 0
    started = time.perf_counter()
    for name, (scene, graph) in _bundles().items():
        scan = Scan(scene, graph, cfg)
        result = sample_paths(graph, n=70, seed=SEED)
        if result.shortfall:
            failures.append(f"{name}: short by {result.shortfall} paths")
        for path in result.paths:
            total += 1
            crafted = craft_instruction(scan, path)
            atoms = tuple(parse_crafted(crafted.text))
            if atoms != crafted.atoms:
                failures.append(f"{name}: parse changed atoms for {path.path}")
                continue
            run = execute(scan, path.path[0], path.heading, atoms)
            if not (run.stopped and run.path == path.path):
                failures.append(f"{name}: diverged on {path.path} -> {run.path}")
    elapsed = time.perf_counter() - started
    if total < MIN_PATHS:
        failures.append(f"only {total} paths sampled, need {MIN_PATHS}")
    if elapsed >= ROUND_TRIP_BUDGET_S:
        failures.append(f"took {elapsed:.1f}s, budget {ROUND_TRIP_BUDGET_S}s")
    _verdict(1, f"{total} sampled paths re-execute to the exact same route "
                f"({elapsed:.1f}s)", failures)


def test_02_template_grammar_is_a_bijection():
    failures: list[str] = []
    pairs = _full_texts()
    if len(pairs) != 732:
        failures.append(f"expected 732 move atoms, enumerated {len(pairs)}")
    for text, atoms in pairs:
        parsed = tuple(parse_crafted(text))
        if parsed != atoms:
            failures.append(f"{text!r} parsed to different atoms")
    _verdict(2, f"all {len(pairs)} rendered clause combinations parse back "
                "to their atoms", failures)


def _random_graph(rng: random.Random):
    n = rng.randint(2, 8)
    names = [f"n{i}" for i in range(n)]
    positions = {name: (rng.uniform(0, 10), rng.uniform(0, 10), 0.0)
                 for name in names}
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(names, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    return positions, sorted(edges)


def _brute_force_min(positions, edges, start, goal):
    adjacency: dict[str, list[str]] = {v: [] for v in positions}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    best = math.inf

    def walk(node, cost, seen):
        nonlocal best
        if node == goal:
            best = min(best, cost)
            return
        for nxt in adjacency[node]:
            if nxt not in seen:
                walk(nxt, cost + math.dist(positions[node], positions[nxt]),
                     seen | {nxt})

    walk(start, 0.0, {start})
    return best


def test_03_shortest_paths_match_exhaustive_search():
    from conftest import build_graph

    failures: list[str] = []
    rng = random.Random(99)
    checked = 0
    for g in range(25):
        positions, edges = _random_graph(rng)
        graph = build_graph(positions, edges)
        for a, b in itertools.permutations(positions, 2):
            checked += 1
            spec = shortest_path(graph, a, b)
            expected = _brute_force_min(positions, edges, a, b)
            got = math.inf if spec is None else spec.distance
            if got != expected:
                failures.append(f"graph {g} {a}->{b}: {got} != {expected}")
    _verdict(3, f"{checked} node pairs across 25 random graphs match "
                "exhaustive minimum cost", failures)


def test_04_loss_gradients_check_out():
    failures: list[str] = []
    report = gradient_check(instances=100, seed=7, max_vocab=16,
                            lam=0.5, n_objects=2, beta=0.3)
    if not report["passed"]:
        failures.append("gradient check reported failure")
    if report["max_rel_error"] > GRAD_TOLERANCE:
        failures.append(f"max relative error {report['max_rel_error']:.3e}")
    for size in range(2, 17):
        loss = nll(log_softmax([0.0] * size), 0)
        if abs(loss - math.log(size)) > NLL_TOLERANCE:
            failures.append(f"uniform NLL off for {size} classes")
    _verdict(4, "100 random loss instances match finite differences within "
                f"{GRAD_TOLERANCE:g}; uniform NLL is log of the class count",
             failures)


def test_05_word_to_node_alignment_properties():
    failures: list[str] = []
    for tokens in range(1, 41):
        for nodes in range(1, 41):
            out = align_words_to_nodes(tokens, nodes)
            if len(out) != tokens:
                failures.append(f"L={tokens} K={nodes}: wrong length")
            if out != sorted(out):
                failures.append(f"L={tokens} K={nodes}: not monotone")
            if out[0] != 0:
                failures.append(f"L={tokens} K={nodes}: does not start at 0")
            if tokens >= 2 and out[-1] != nodes - 1:
                failures.append(f"L={tokens} K={nodes}: does not end at K-1")
            if any(not 0 <= v < nodes for v in out):
                failures.append(f"L={tokens} K={nodes}: index out of range")
    if align_words_to_nodes(5, 3) != [0, 1, 1, 2, 2]:
        failures.append("5 tokens over 3 nodes changed")
    _verdict(5, "alignment is monotone and endpoint-anchored for every "
                "length pair up to 40", failures)


# SHA-256 of every pipeline artifact and the exit codes of its six commands
# (sample-paths, craft, supervise, ablate, validate, render) on each bundled
# fixture. Refactors must keep these bytes; a deliberate output change
# updates them in the same commit.
PIPELINE_GOLDEN = {
    "loop0": {
        "codes": [0, 0, 0, 0, 0, 0],
        "paths.json": "8a8ab33086b31bb366eafe782e010db1e1887c0a5dc77a36708e129006a61c8f",
        "dataset.json": "1302b16d1f459cd7eb62272b3707f47fdc0c64504fefebd24d93f15e40ec241b",
        "supervision.json": "a6d997dd79eefe9d1342a2cf7d70032c913f3af6ee0071c72c719e2c90dc398e",
        "nouns.json": "8bf4b6263e272832c5dbd539eed7bb42ee82d499d615c318d55596e5c833e2dd",
        "validate.json": "9ea2496cddcb27bdb4ff17582509678797eff7024939c409625663bf2f9d9a9d",
        "view.svg": "d97beb873374417ba62b00d70f111fcba76dec4157442ff76fa15fb111cf0404",
    },
    "stairs0": {
        "codes": [0, 0, 0, 0, 0, 0],
        "paths.json": "9c8f3a806a6a8a44dd00d9cb8da4e7b9298181abc46d1702e7d374c0b9a15982",
        "dataset.json": "b2139d582ec087819976daba49d973e67150adae7790e224864abdf9395721c3",
        "supervision.json": "0be27a56225520c82a81721592cdfbab15cbafbcc0e332dee24745ccb1019933",
        "nouns.json": "a7818f68087ec627b6d05e3b76d67516f5344995afe803ef0660e50c8e47abb8",
        "validate.json": "24989d21bd2635918186df19e990f8c7d005aa85623aef1a72292d2e5f2f94ea",
        "view.svg": "bb140a0369d31d84500c0ae7aa73151425702b990c1125a543c2b838ec0227bf",
    },
    "hub0": {
        "codes": [0, 0, 0, 0, 0, 0],
        "paths.json": "de4a6d42c064938f83f4e6828e197381c647d767a2618fecd9115def8d0ca004",
        "dataset.json": "c4de3b1feb121052681368b84e0246824a04058a4b533b8a529f3eae58888663",
        "supervision.json": "ef85fc1b061e7ef8a837fbb261f6519cfd7e0fa5725b4351c9b8571cd74d60f5",
        "nouns.json": "bde8f16025c103f31bf50cff2add1378faced6ee5016f9f022846eb66e794d99",
        "validate.json": "28b7c9933abc37a49ee868395d81dbbbdf804c49e02c8e6357c29f2b1a98123b",
        "view.svg": "fd24b3a23052068e586369c9f13ed4873aa7fb817608b7f5be239050c1a0ca34",
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_pipeline(scene_dir, out, name: str) -> tuple[list[int], dict[str, str]]:
    """Run the CLI pipeline on one fixture; returns exit codes and digests."""
    args = ["--house", str(scene_dir / f"{name}.house"),
            "--connectivity", str(scene_dir / f"{name}_connectivity.json")]
    out.mkdir(parents=True)
    files = {f: out / f for f in ("paths.json", "dataset.json", "supervision.json",
                                  "nouns.json", "validate.json", "view.svg")}
    codes = [
        main(["sample-paths", *args, "--n", "25", "--seed", str(SEED),
              "--out", str(files["paths.json"])]),
        main(["craft", *args, "--paths", str(files["paths.json"]),
              "--out", str(files["dataset.json"])]),
        main(["supervise", *args, "--dataset", str(files["dataset.json"]),
              "--out", str(files["supervision.json"])]),
        main(["ablate", "--dataset", str(files["dataset.json"]), "--mode", "nouns",
              "--out", str(files["nouns.json"])]),
        main(["validate", *args, "--dataset", str(files["dataset.json"]),
              "--out", str(files["validate.json"])]),
        main(["render", *args, "--viewpoint", f"{name}_vp03",
              "--radius", "5.0", "--out", str(files["view.svg"])]),
    ]
    return codes, {f: _sha256(path) for f, path in files.items()}


def test_06_pipeline_is_byte_deterministic(tmp_path):
    failures: list[str] = []
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    for fx in all_scenes():
        write_scene_files(fx, scene_dir)

    for fx in all_scenes():
        first = _run_pipeline(scene_dir, tmp_path / "one" / fx.name, fx.name)
        second = _run_pipeline(scene_dir, tmp_path / "two" / fx.name, fx.name)
        if first != second:
            failures.append(f"{fx.name}: two runs differ")
        codes, digests = first
        golden = PIPELINE_GOLDEN[fx.name]
        if codes != golden["codes"]:
            failures.append(f"{fx.name}: exit codes {codes}, golden {golden['codes']}")
        for artifact, digest in digests.items():
            if digest != golden[artifact]:
                failures.append(f"{fx.name}: {artifact} digest changed")
    _verdict(6, "two pipeline runs per fixture produce byte-identical artifacts "
                "that match the golden digests", failures)


def test_07_house_parser_conformance():
    failures: list[str] = []
    declared_at = {"panoramas": 4, "objects": 8, "categories": 9, "regions": 10}
    for fx in all_scenes():
        header = fx.house_text.splitlines()[0].split()
        scene = parse_house(fx.house_text)
        actual = {"panoramas": len(scene.panoramas),
                  "objects": len(scene.objects),
                  "categories": len(scene.categories),
                  "regions": len(scene.regions)}
        for what, pos in declared_at.items():
            if actual[what] != int(header[pos]):
                failures.append(f"{fx.name}: {what} {actual[what]} != "
                                f"declared {header[pos]}")
    cases = malformed_house_cases()
    if len(cases) != 10:
        failures.append(f"expected 10 malformed cases, found {len(cases)}")
    for label, text, line_number in cases:
        try:
            parse_house(text)
            failures.append(f"{label}: parsed despite the defect")
        except HouseParseError as exc:
            if exc.line_number != line_number:
                failures.append(f"{label}: blamed line {exc.line_number}, "
                                f"defect is on {line_number}")
            if f"line {line_number}:" not in str(exc):
                failures.append(f"{label}: message does not name the line")
    _verdict(7, "bundled scenes parse to their declared header counts and "
                "10 corrupted files each blame the right line", failures)


def _is_subsequence(needle: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(token in it for token in needle)


def test_08_ablation_properties_on_generated_instructions():
    failures: list[str] = []
    lexicon = load_default_lexicon()
    texts = [text for text, _ in _full_texts()]
    rng = random.Random(20260815)
    pool = sorted(lexicon)
    while len(texts) < 1000:
        texts.append(" ".join(rng.choice(pool)
                              for _ in range(rng.randint(3, 12))))
    for text in texts:
        for mode in AblationMode:
            once = ablate(text, mode, lexicon)
            if ablate(once, mode, lexicon) != once:
                failures.append(f"{mode.value} not idempotent on {text!r}")
            if not _is_subsequence(tokenize(once), tokenize(text)):
                failures.append(f"{mode.value} reordered {text!r}")
        if ablate(text, AblationMode.ALL, lexicon) != "":
            failures.append(f"drop-everything left text for {text!r}")
    _verdict(8, f"ablation is idempotent and order-preserving on "
                f"{len(texts)} instructions; dropping all classes empties "
                "them", failures)


def test_09_navigation_metric_identities():
    from conftest import build_graph

    failures: list[str] = []
    positions = {"a": (0.0, 0.0, 0.0), "b": (3.0, 0.0, 0.0), "c": (6.0, 0.0, 0.0)}
    graph = build_graph(positions, [("a", "b"), ("b", "c")])
    gold = PathSpec(graph.scan_id, ("a", "b", "c"), 0.0, 6.0)

    exact = ExecutionResult(path=("a", "b", "c"), final_heading=0.0,
                            stopped=True, failure_reason=None)
    m = evaluate(graph, gold, exact)
    if (m.pl, m.ne, m.sr, m.spl) != (6.0, 0.0, 1.0, 1.0):
        failures.append(f"gold-equal run scored {m}")

    doubled = ExecutionResult(path=("a", "b", "a", "b", "c"), final_heading=0.0,
                              stopped=True, failure_reason=None)
    d = evaluate(graph, gold, doubled)
    if (d.pl, d.ne, d.sr, d.spl) != (12.0, 0.0, 1.0, 0.5):
        failures.append(f"double-length run scored {d}")
    _verdict(9, "metrics give a perfect score to the gold path and halved "
                "path-weighted success at double length", failures)
