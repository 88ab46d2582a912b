"""Benchmark of the navscribe command-line pipeline.

    python3 perfbench/run.py --workload scan_dense --seed 1 --seconds 30 --trace 0

Workloads and metrics are described in BENCHMARK.json and perfbench/README.md.
Each run generates its inputs from --seed with the benchmark's own generator,
then repeats the workload's command sequence (a "pass") in a fresh directory
until --seconds have gone by. Every CLI command runs in its own process,
forked from this one, which has only imported navscribe; the command's time
is taken inside that process around ``navscribe.cli.main`` and its peak RSS
from ``wait4``. The first pass is checked by ``oracle`` and its artifact
digests become the reference for later passes (at a seed recorded in
``golden.json``, that file is the reference). The last line of stdout is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1, where passes alternate untraced and traced. ``--record-golden``
rewrites golden.json from one checked pass per workload at the default seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
LEXICON = os.path.join(SRC, "navscribe", "data", "default_lexicon.tsv")
WORK = os.path.join(ROOT, ".perfbench_runs")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(BENCH, "golden.json")

import oracle  # noqa: E402  (sibling modules of this script)
import scangen  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES_PER_PASS = 2
COMMAND_TIMEOUT_S = 60

# Other tenants of the machine change its speed by up to 1.5x, in episodes
# of seconds and in phases of minutes. A fixed probe task, timed between
# commands, sees the same slowdown. Reported times are scaled by
# PROBE_REFERENCE_S / (fastest probe of the run): they read as seconds on
# this machine at its usual best speed. As-measured values are printed too.
PROBE_REFERENCE_S = 0.003
PROBES_PER_PASS = 40

# Workload sizes (see BENCHMARK.json for why each workload exists).
DENSE = {"viewpoints": 350, "objects": 4000, "categories": 40, "levels": 3, "paths": 200}
# Ten scans from 80 to 350 viewpoints, spaced geometrically: small scans are
# the common case in real corpora.
CORPUS_VIEWPOINTS = [round(80 * (350 / 80) ** (i / 9)) for i in range(10)]
CORPUS_OBJECTS_PER_VIEWPOINT = 12
CORPUS_PATHS = 15
DATASET_RECORDS = 8000
ABLATION_MODES = ["nouns", "adjectives", "nouns_adjectives", "all"]


# ---------------------------------------------------------------------------
# Workloads: input files plus the command sequence of one pass
# ---------------------------------------------------------------------------


def _scan_commands(scan: str, n_paths: int, seed: int, mode: str, via_scene_json: bool) -> list[dict]:
    house = f"{scan}.house"
    graph = ["--connectivity", f"{scan}_connectivity.json"]
    cmds = []
    if via_scene_json:
        cmds.append({"argv": ["parse-scene", "--house", house, "--out", f"{scan}.scene.json"]})
        house = f"{scan}.scene.json"
    scene = ["--house", house] + graph
    paths, dataset = f"{scan}.paths.json", f"{scan}.dataset.json"
    cmds += [
        {"argv": ["sample-paths", *scene, "--n", str(n_paths), "--seed", str(seed), "--out", paths],
         "n": n_paths},
        {"argv": ["craft", *scene, "--paths", paths, "--out", dataset], "paths": paths},
        {"argv": ["supervise", *scene, "--dataset", dataset, "--out", f"{scan}.supervision.json"],
         "dataset": dataset},
        {"argv": ["ablate", "--dataset", dataset, "--mode", mode, "--out", f"{scan}.ablated.json"],
         "dataset": dataset, "mode": mode},
        {"argv": ["validate", *scene, "--dataset", dataset, "--out", f"{scan}.report.json"],
         "dataset": dataset},
    ]
    for cmd in cmds:
        cmd["scan"] = scan
        cmd["out"] = cmd["argv"][cmd["argv"].index("--out") + 1]
    return cmds


def _commands(workload: str, seed: int) -> list[dict]:
    if workload == "scan_dense":
        return _scan_commands("dense0", DENSE["paths"], seed, "nouns_adjectives", False)
    if workload == "corpus_sparse":
        return [cmd for i in range(len(CORPUS_VIEWPOINTS))
                for cmd in _scan_commands(f"sparse{i}", CORPUS_PATHS, seed,
                                          ABLATION_MODES[i % 4], i % 2 == 0)]
    cmds = [{"argv": ["ablate", "--dataset", "r2r.json", "--mode", mode,
                      "--out", f"ablated_{mode}.json"],
             "out": f"ablated_{mode}.json", "dataset": "r2r.json", "mode": mode}
            for mode in ABLATION_MODES]
    cmds.append({"argv": ["stats", "--dataset", "r2r.json", "--out", "stats.json"],
                 "out": "stats.json", "dataset": "r2r.json"})
    return cmds


def _write_scan(out_dir: str, scan: str, seed: int, truths: dict, **size) -> None:
    made = scangen.make_scan(scan, str(seed), size["viewpoints"], size["objects"],
                             size["categories"], size["levels"])
    _write(os.path.join(out_dir, f"{scan}.house"), made["house"])
    _write(os.path.join(out_dir, f"{scan}_connectivity.json"), made["connectivity"])
    truths[scan] = made["truth"]


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input files; return the generator's ground truth."""
    truths: dict = {}
    if workload == "scan_dense":
        _write_scan(out_dir, "dense0", seed, truths, **DENSE)
    elif workload == "corpus_sparse":
        for i, n in enumerate(CORPUS_VIEWPOINTS):
            _write_scan(out_dir, f"sparse{i}", seed, truths, viewpoints=n,
                        objects=CORPUS_OBJECTS_PER_VIEWPOINT * n, categories=40,
                        levels=1 if n < 150 else 2 if n < 260 else 3)
    else:
        _write(os.path.join(out_dir, "r2r.json"), scangen.make_dataset(str(seed), DATASET_RECORDS))
    return truths


WORKLOADS = ("scan_dense", "corpus_sparse", "dataset_ablate")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def probe() -> float:
    """Seconds for a fixed task shaped like navscribe's own work: small
    tuples, a sort, float math, dict counting and string joining."""
    start = time.perf_counter()
    rows = [((i * 37) % 1009 * 0.01, i % 7, f"w{i % 1013}") for i in range(4000)]
    rows.sort()
    counts: dict[str, int] = {}
    total = 0.0
    for x, k, word in rows:
        total += math.dist((x, k, 1.5), (1.0, 2.0, 3.0))
        counts[word] = counts.get(word, 0) + 1
    " ".join(counts)
    return time.perf_counter() - start


def _fork(body):
    """Run body() in a forked child; return (its JSON-able result or None,
    the child's wait status, its rusage). The child never returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            payload = json.dumps(body()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    return (json.loads(data) if data else None), status, usage


def run_command(cli, cmd: dict, run_dir: str, targets, spans_path: str | None) -> dict:
    """One CLI command in its own process, traced when spans_path is set."""

    def body():
        os.chdir(run_dir)
        log = os.open(f"{cmd['out']}.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        stdout = os.open(f"{cmd['out']}.stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(log, 2)
        os.dup2(stdout, 1)
        signal.alarm(COMMAND_TIMEOUT_S)
        trace = None
        if spans_path is not None:
            trace = tracer.Tracer(targets)
            trace.install()
        raised = None
        start = time.perf_counter()
        try:
            if trace is None:
                rc = cli.main(cmd["argv"])
            else:
                rc = trace.run(f"cli.{cmd['argv'][0]}", cli.main, cmd["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # recorded as a failed command
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        sys.stdout.flush()
        sys.stderr.flush()
        result = {"s": seconds, "rc": rc, "raised": raised,
                  "stdout_bytes": os.path.getsize(f"{cmd['out']}.stdout"),
                  "sha256": oracle.sha256(cmd["out"]) if os.path.exists(cmd["out"]) else None}
        if trace is not None:
            result["trace"] = trace.summary()
            trace.write_spans(spans_path)
        return result

    result, status, usage = _fork(body)
    if result is None:
        result = {"s": 0.0, "rc": None, "raised": f"command process died (status {status})",
                  "stdout_bytes": 0, "sha256": None}
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh interpreters that import navscribe.cli and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-c", "import navscribe.cli"]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _trace_targets(spec: dict) -> list[tuple[str, str]]:
    """(module, function) for every '<module>.<function>.calls' metric."""
    return [tuple(m["name"].split(".")[:2]) for m in spec["per_layer"]
            if m["name"].endswith(".calls")]


def run_workload(cli, spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict | None) -> tuple[dict, list[str]]:
    commands = _commands(workload, seed)
    targets = _trace_targets(spec)
    run_root = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    inputs = os.path.join(run_root, "inputs")
    spans_dir = os.path.join(TRACE_OUT, workload)
    os.makedirs(inputs)
    lines: list[str] = []
    try:
        truths, status, _ = _fork(lambda: generate(workload, seed, inputs))
        if truths is None:
            raise RuntimeError(f"input generation failed (status {status})")
        input_files = sorted(os.listdir(inputs))
        setup: list[float] = []
        if not trace:
            measure_setup(1)   # compiles bytecode once

        passes: list[dict] = []
        probes: list[float] = []
        probes_per_command = max(1, PROBES_PER_PASS // len(commands))
        reference = None
        if golden:
            if [g["command"] for g in golden["commands"]] != [" ".join(c["argv"]) for c in commands]:
                raise RuntimeError(f"golden.json does not list this {workload} command sequence")
            reference = golden["commands"]
        deadline = time.perf_counter() + seconds
        while True:
            if not trace:
                # Spread over the run, like the commands, not bunched at its start.
                setup += measure_setup(SETUP_SAMPLES_PER_PASS)
            started = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            run_dir = os.path.join(run_root, f"pass{len(passes)}")
            os.makedirs(run_dir)
            for name in input_files:
                shutil.copyfile(os.path.join(inputs, name), os.path.join(run_dir, name))
            if traced:
                shutil.rmtree(spans_dir, ignore_errors=True)
                os.makedirs(spans_dir)
            results = []
            for i, cmd in enumerate(commands):
                probes += [probe() for _ in range(probes_per_command)]
                results.append(run_command(
                    cli, cmd, run_dir, targets,
                    os.path.join(spans_dir, f"{i:03d}-{cmd['argv'][0]}.tsv") if traced else None))
            pass_s = time.perf_counter() - started
            record = {"traced": traced, "results": results, "problems": {}}
            if not passes:
                checked, status, _ = _fork(lambda: oracle.check(run_dir, commands, truths, LEXICON))
                if checked is None:
                    raise RuntimeError(f"oracle process failed (status {status})")
                record["facts"] = checked["facts"]
                record["problems"] = {int(k): v for k, v in checked["problems"].items()}
                if reference is None:
                    reference = [{"rc": rc, "sha256": r["sha256"]}
                                 for rc, r in zip(checked["expected_rc"], results)]
            for i, (res, ref) in enumerate(zip(results, reference)):
                problem = _compare(res, ref)
                if problem and i not in record["problems"]:
                    record["problems"][i] = f"{commands[i]['argv'][0]} {commands[i]['out']}: {problem}"
            passes.append(record)
            shutil.rmtree(run_dir)
            if time.perf_counter() + pass_s > deadline and (len(passes) >= 2 or not trace):
                break
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    facts = passes[0]["facts"]
    for p in passes:
        for i, message in sorted(p["problems"].items()):
            lines.append(f"FAILED {message}")
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    summary = {
        "attempted": attempted, "failed": failed, "facts": facts, "passes": len(passes),
        "commands": commands,
        "reference": [{"rc": r["rc"], "sha256": r["sha256"]} for r in passes[0]["results"]],
        "untraced": untraced, "traced": [p for p in passes if p["traced"]],
        "setup": setup, "scale": PROBE_REFERENCE_S / min(probes),
    }
    return summary, lines


def _compare(result: dict, ref: dict) -> str | None:
    if result["raised"]:
        return result["raised"]
    if result["rc"] != ref["rc"]:
        return f"exit code {result['rc']}, expected {ref['rc']}"
    if result["sha256"] != ref["sha256"]:
        return "artifact digest differs from the reference"
    if result["stdout_bytes"]:
        return "wrote to stdout"
    return None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
#
# The slowdown other tenants cause only ever adds time, so each command's
# time is its fastest pass in the run, the least disturbed reading of the
# program's own cost, scaled as described at PROBE_REFERENCE_S. Medians over
# passes and as-measured values are printed alongside.


def _best_times(passes: list[dict]) -> list[float]:
    """Each command's fastest time over the given passes."""
    return [min(p["results"][i]["s"] for p in passes) for i in range(len(passes[0]["results"]))]


def _by_command(commands: list[dict], times: list[float]) -> dict[str, float]:
    """Times summed per subcommand."""
    out: dict[str, float] = {}
    for cmd, t in zip(commands, times):
        out[cmd["argv"][0]] = out.get(cmd["argv"][0], 0.0) + t
    return out


def end_to_end(summary: dict) -> tuple[dict, list[str]]:
    untraced, commands = summary["untraced"], summary["commands"]
    paths = summary["facts"]["paths"]
    best = _best_times(untraced)
    pass_rates = [paths / sum(r["s"] for r in p["results"]) for p in untraced]
    rss = max(r["rss_mb"] for p in untraced for r in p["results"])
    error_rate = summary["failed"] / summary["attempted"]
    setup, scale = summary["setup"], summary["scale"]
    values = {"paths_per_s": paths / (sum(best) * scale), "setup_s": min(setup) * scale,
              "peak_rss_mb": rss}
    lines = [
        f"  time scale   {scale:.4f}  probe reference {PROBE_REFERENCE_S} s / fastest probe "
        f"{PROBE_REFERENCE_S / scale:.6f} s; values below are scaled, 'as measured' ones are not",
        f"  paths_per_s  {values['paths_per_s']:.4f} 1/s  {paths} paths over the fastest pass "
        f"of each command in {len(untraced)} passes; as measured {paths / sum(best):.4f} (per pass: "
        f"median {statistics.median(pass_rates):.4f}, min {min(pass_rates):.4f}, "
        f"max {max(pass_rates):.4f})",
        f"  setup_s      {values['setup_s']:.4f} s  fastest of {len(setup)} fresh interpreters; "
        f"as measured {min(setup):.4f} (median {statistics.median(setup):.4f}, max {max(setup):.4f})",
        f"  peak_rss_mb  {rss:.1f} MB  max of {sum(len(p['results']) for p in untraced)} "
        f"command processes",
        f"  error_rate   {error_rate:.4f} ratio  {summary['failed']} failed of "
        f"{summary['attempted']} commands",
    ]
    medians = _by_command(commands, [statistics.median(p["results"][i]["s"] for p in untraced)
                                     for i in range(len(commands))])
    for name, t in _by_command(commands, best).items():
        lines.append(f"  cli.{name}.s  {t * scale:.4f} s  as measured {t:.4f} (median over "
                     f"{len(untraced)} passes {medians[name]:.4f})")
    return values, lines


def per_layer(summary: dict, spec: dict) -> tuple[dict, list[str]]:
    commands = summary["commands"]
    untraced, traced = summary["untraced"], summary["traced"]
    best_untraced = _best_times(untraced)
    scale = summary["scale"]
    by_command = _by_command(commands, [t * scale for t in best_untraced])
    values: dict[str, float] = {
        m["name"]: by_command.get(m["name"][len("cli."):-len(".s")], 0.0)
        for m in spec["per_layer"] if m["name"].startswith("cli.")}

    samples: dict[str, list[float]] = {}
    for p in traced:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts = dict.fromkeys(("observe_repeats", "observe_returned", "top_n_repeats", "dumps_bytes"), 0)
        positions = set()
        for res in p["results"]:
            t = res.get("trace") or {"calls": {}, "self_s": {}}
            for name, v in t["calls"].items():
                calls[name] = calls.get(name, 0) + v
            for name, v in t["self_s"].items():
                self_s[name] = self_s.get(name, 0.0) + v * scale
            for key in counts:
                counts[key] += t.get(key, 0)
            positions.update(tuple(x) for x in t.get("observe_positions", []))
        observe = calls.get("object_saliency.observe", 0)
        top_n = calls.get("supervision_export.top_n_objects", 0)
        derived = {
            "object_saliency.observe.repeat_ratio": counts["observe_repeats"] / observe if observe else 0.0,
            "object_saliency.observe.returned_per_call": counts["observe_returned"] / observe if observe else 0.0,
            "object_saliency.observe.distinct_positions": len(positions),
            "supervision_export.top_n_objects.repeat_ratio": counts["top_n_repeats"] / top_n if top_n else 0.0,
            "jsonio.dumps.mb": counts["dumps_bytes"] / 1e6,
        }
        for module, func in _trace_targets(spec):
            name = f"{module}.{func}"
            derived[f"{name}.calls"] = calls.get(name, 0)
            derived[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key, v in derived.items():
            samples.setdefault(key, []).append(v)
    # Counts repeat exactly from pass to pass; times take the fastest pass.
    values.update({key: min(v) for key, v in samples.items()})

    facts = summary["facts"]
    values["instruction_crafter.anchor_ratio"] = (
        facts["anchors"] / facts["clauses"] if facts["clauses"] else 0.0)
    values["instruction_executor.round_trip_ratio"] = (
        facts["round_trip"] / facts["round_trip_base"] if facts["round_trip_base"] else 0.0)
    values["instruction_executor.round_trip_base"] = facts["round_trip_base"]
    traced_s, untraced_s = sum(_best_times(traced)) * scale, sum(best_untraced) * scale
    values["trace.overhead_s"] = traced_s - untraced_s

    lines = [f"  {len(traced)} traced and {len(untraced)} untraced passes; summed fastest command "
             f"times {traced_s:.4f} s traced vs {untraced_s:.4f} s untraced "
             f"(tracing overhead {traced_s - untraced_s:+.4f} s)",
             f"  anchors {facts['anchors']} of {facts['clauses']} clauses; round trips "
             f"{facts['round_trip']} of {facts['round_trip_base']} paths"]
    return values, lines


def _metrics_block(values: dict, metrics: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _import_cli():
    """navscribe.cli from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "navscribe", "cli.py")):
        raise SystemExit(f"navscribe sources not found under {SRC}")
    sys.path.insert(0, SRC)
    from navscribe import cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SystemExit(f"imported navscribe from {cli.__file__}, not {SRC}")
    return cli


def _record_golden(cli, spec: dict) -> None:
    golden = {}
    for workload in WORKLOADS:
        summary, lines = run_workload(cli, spec, workload, DEFAULT_SEED, 0.0, False, None)
        for line in lines:
            print(line)
        if summary["failed"]:
            raise SystemExit(f"{workload}: not recording golden digests of a failing pass")
        golden[workload] = {
            "seed": DEFAULT_SEED,
            "commands": [{"command": " ".join(c["argv"]), **ref}
                         for c, ref in zip(summary["commands"], summary["reference"])],
        }
        print(f"{workload}: recorded {len(summary['commands'])} commands")
    _write(GOLDEN, json.dumps(golden, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json at the default seed and exit")
    args = parser.parse_args(argv)

    spec = _load_benchmark()
    cli = _import_cli()
    if args.record_golden:
        _record_golden(cli, spec)
        return 0
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)

    results = {}
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        g = golden.get(workload)
        summary, lines = run_workload(cli, spec, workload, args.seed, seconds, bool(args.trace),
                                      g if g and g["seed"] == args.seed else None)
        if args.trace:
            values, more = per_layer(summary, spec)
            metrics = _metrics_block(values, spec["per_layer"])
        else:
            values, more = end_to_end(summary)
            metrics = _metrics_block(values, spec["end_to_end"])
        print(f"{workload} seed {args.seed}: {summary['passes']} passes of "
              f"{len(summary['commands'])} commands, trace {'on' if args.trace else 'off'}")
        print("\n".join(lines + more))
        results[workload] = {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                             "failed": summary["failed"], "metrics": metrics}
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
