"""Byte-identity at MP3D scale, against the benchmark's checked-in digests.

The three bundled fixtures are small (acceptance test 06). ``scan_dense``
has 350 viewpoints and 4000 objects, so far more positions sit next to
object-grid cell boundaries. One pass of it must reproduce every artifact
digest and exit code in ``perfbench/golden.json``.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_scan_dense_matches_golden_digests():
    # --seconds 0 stops after the first pass, which is the one checked.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "scan_dense",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, done.stdout
