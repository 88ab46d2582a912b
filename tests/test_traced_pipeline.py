"""The benchmark's tracer runs the command-line pipeline on a demo scene.

``perfbench/run.py --trace 1`` wraps every function that ``BENCHMARK.json``
names in a ``<module>.<function>.calls`` metric. A renamed target, or a call
shape that a tracer hook does not expect, would otherwise show up only in a
traced benchmark run. The pipeline runs in a fresh interpreter, because
``Tracer.install`` rebinds module attributes for good.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Targets that no command reaches; only the tests call them.
_UNCALLED = {"object_saliency.observe", "object_saliency.filter_candidates"}

_PROBE = """
import json, os, sys
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench"),
                os.path.join(root, "tests")]
import run, scenes, tracer
from navscribe import cli

targets = run._trace_targets(run._load_benchmark())
trace = tracer.Tracer(targets)
trace.install()
os.chdir(sys.argv[2])
scenes.write_scene_files(scenes.loop_scene(), ".")
scan = ["--house", "loop0.house", "--connectivity", "loop0_connectivity.json"]
commands = [
    ["parse-scene", "--house", "loop0.house", "--out", "scene.json"],
    ["sample-paths", "--house", "scene.json", "--connectivity", "loop0_connectivity.json",
     "--n", "10", "--out", "paths.json"],
    ["craft", *scan, "--paths", "paths.json", "--out", "dataset.json"],
    ["supervise", *scan, "--dataset", "dataset.json", "--out", "supervision.json"],
    ["ablate", "--dataset", "dataset.json", "--mode", "nouns", "--out", "ablated.json"],
    ["validate", *scan, "--dataset", "dataset.json", "--out", "report.json"],
    ["stats", "--dataset", "dataset.json", "--out", "stats.json"],
]
codes = {argv[0]: trace.run("cli." + argv[0], cli.main, argv) for argv in commands}
print(json.dumps({"codes": codes, "targets": [".".join(t) for t in targets],
                  "calls": trace.calls}))
"""


def test_every_traced_target_is_reached_by_the_pipeline(tmp_path):
    flags = ("-B",) if sys.flags.dont_write_bytecode else ()
    done = subprocess.run([sys.executable, *flags, "-c", _PROBE, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["codes"] == {command: 0 for command in [
        "parse-scene", "sample-paths", "craft", "supervise", "ablate", "validate", "stats"]}
    assert _UNCALLED <= set(probe["targets"])
    assert [name for name in probe["targets"]
            if name not in _UNCALLED and not probe["calls"].get(name)] == []
