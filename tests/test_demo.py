"""The README's demo runs as written from a checkout: ``tests/scenes.py``
writes the demo scenes, and the "Library use" example reads them back."""
from __future__ import annotations

import contextlib
import io
import pathlib
import re
import subprocess
import sys

from scenes import all_scenes
from navscribe import craft_instruction, execute, parse_crafted, sample_paths

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    body = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.DOTALL).group(1)


def _write_demo(directory: pathlib.Path) -> None:
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "scenes.py"), str(directory)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_the_script_writes_each_scene_byte_for_byte(tmp_path):
    _write_demo(tmp_path)
    written = {}
    for scene in all_scenes():
        written[f"{scene.name}.house"] = scene.house_text.encode()
        written[f"{scene.name}_connectivity.json"] = scene.connectivity_text.encode()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written


def test_the_readme_command_line_writes_the_demo_scenes():
    assert _readme_block("Command line", "sh") == "python3 tests/scenes.py demo\n"


def test_the_readme_library_example_runs_on_the_written_scenes(tmp_path, monkeypatch):
    _write_demo(tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    printed = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(printed):
        exec(_readme_block("Library use", "python"), namespace)
    scan = namespace["scan"]
    paths = sample_paths(scan.graph, n=5, seed=42).paths
    texts = [craft_instruction(scan, path).text for path in paths]
    assert len(paths) == 5 and printed.getvalue().splitlines() == texts
    for path, text in zip(paths, texts):
        assert execute(scan, path.path[0], path.heading, parse_crafted(text)).path == path.path
