"""Byte-identity at MP3D scale, against the benchmark's checked-in digests.

The three bundled fixtures are small (acceptance test 06). ``scan_dense``
has 350 viewpoints and 4000 objects, so far more positions sit next to
object-grid cell boundaries. ``corpus_sparse`` is the only workload that
sends ``.house`` files through ``parse-scene`` and reads the scene JSON back.
``dataset_ablate`` writes four 8000-record dataset files of about 5.9 MB
each, so the JSON emitter is checked byte for byte at augmentation size.
One pass of each must reproduce every artifact digest and exit code in
``perfbench/golden.json``.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["scan_dense", "corpus_sparse", "dataset_ablate"])
def test_workload_matches_golden_digests(workload):
    # --seconds 0 stops after the first pass, which is the one checked.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, done.stdout
