"""The command line's exit contract, over argv drawn from the real flags.

Whatever a flag holds, ``main`` returns 0, 1 or 2, or argparse exits with 0
or 2, and nothing reaches stdout. A 1 that says why prints one ``error:``
line and leaves the files as they were; the silent 1 is a check that failed
(``validate``'s round trip, ``loss-check``'s gradients), which writes its
report. A 2 prints one ``usage error:`` line and writes nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenes import loop_scene
from navscribe import cli
from navscribe.text_ablation import AblationMode

_CONFIG = "scene = loop0.house\ngraph = loop0_connectivity.json\npaths = paths.json\n"
_FILES = ["loop0.house", "loop0_connectivity.json", "paths.json", "dataset.json",
          "empty.json", "swapped.json", "surrogate.json", "scene.json", "run.cfg"]
# The demo inputs, a missing path, a directory, and values no flag should take
# on trust: each flag draws from these.
_POOL = [*_FILES, "missing.json", "dir", "-1", "0", "nan", "inf", "1e400", "abc", "",
         "1234567890123456789012"]
# gradient_check builds a max_vocab-long list per instance.
_SMALL = ["-1", "0", "1", "2", "50", "nan", "abc", ""]
# Values that fit a flag, drawn as often as the whole pool, so that calls also
# get past the checks into the commands.
_FITS = {
    "--config": ["run.cfg"], "--out": ["out.json"], "--house": ["loop0.house", "scene.json"],
    "--connectivity": ["loop0_connectivity.json"], "--paths": ["paths.json"],
    "--dataset": ["dataset.json", "empty.json", "swapped.json", "surrogate.json"],
    "--mode": [m.value for m in AblationMode],
    "--viewpoint": ["loop0_vp00", "loop0_vp24"], "--n": ["5"], "--seed": ["3"],
    "--min-hops": ["2"], "--max-hops": ["6"], "--min-geodesic": ["1.5"], "--n-objects": ["2"],
    "--success-radius": ["3.0"], "--radius": ["4"], "--width": ["64"], "--height": ["64"],
    "--instances": ["5"], "--max-vocab": ["8"],
}


def _flags() -> dict[str, list[tuple[str, bool]]]:
    """Each subcommand's (flag, required) pairs, as its parser declares them."""
    parser = cli._build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return {command: [(action.option_strings[-1], action.required) for action in sub._actions
                      if action.dest != "help"]
            for command, sub in commands.items()}


_FLAGS = _flags()


def _values(command: str, flag: str):
    small = command == "loss-check" and flag in ("--instances", "--max-vocab")
    pool = st.sampled_from(_SMALL if small else _POOL)
    return st.sampled_from(_FITS[flag]) | pool if flag in _FITS else pool


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    # Required flags come nine times in ten, so most calls get past argparse.
    flags = [flag for flag, required in _FLAGS[command]
             if required and draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(
        [flag for flag, required in _FLAGS[command] if not required]), unique=True))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(_values(command, flag))]
    return argv


@contextlib.contextmanager
def _inside(root: pathlib.Path):
    back = os.getcwd()
    os.chdir(root)
    try:
        yield
    finally:
        os.chdir(back)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> tuple[pathlib.Path, dict[str, bytes]]:
    """A scratch root, and the bytes of each demo file there: the loop scene,
    one run's artifacts, a dataset of no records, one whose instructions
    belong to other records' paths, and one whose instruction holds a lone
    surrogate, which JSON escapes and UTF-8 cannot encode."""
    scene = loop_scene()
    root = tmp_path_factory.mktemp("contract")
    (root / "loop0.house").write_text(scene.house_text, encoding="utf-8")
    (root / "loop0_connectivity.json").write_text(scene.connectivity_text, encoding="utf-8")
    (root / "empty.json").write_text("[]\n", encoding="utf-8")
    with _inside(root):
        assert cli.main(["sample-paths", "--house", "loop0.house", "--connectivity",
                         "loop0_connectivity.json", "--n", "6", "--out", "paths.json"]) == 0
        (root / "run.cfg").write_text(_CONFIG, encoding="utf-8")
        for argv in (["craft", "--config", "run.cfg", "--out", "dataset.json"],
                     ["parse-scene", "--config", "run.cfg", "--out", "scene.json"]):
            assert cli.main(argv) == 0
    records = json.loads((root / "dataset.json").read_text("utf-8"))
    surrogate = [dict(records[0], instructions=[records[0]["instructions"][0] + " \ud800"])]
    (root / "surrogate.json").write_text(json.dumps(surrogate), encoding="utf-8")
    for record, other in zip(records, records[1:] + records[:1]):
        record["instructions"] = other["instructions"]
    (root / "swapped.json").write_text(json.dumps(records), encoding="utf-8")
    return root, {name: (root / name).read_bytes() for name in _FILES}


def _snapshot(root: pathlib.Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def _run(argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            code = None
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500)
@given(argv=_argv())
# A warning, then the error of a write that fails: one error line, no file.
@example(argv=["sample-paths", "--config", "run.cfg", "--n", "1234567890123456789012",
               "--out", "dir"])
# One error line: a dataset of no records has nothing to validate.
@example(argv=["validate", "--config", "run.cfg", "--dataset", "empty.json",
               "--out", "out.json"])
# The silent 1: instructions of other paths fail their round trip, and the
# report is written.
@example(argv=["validate", "--config", "run.cfg", "--dataset", "swapped.json",
               "--out", "out.json"])
# One error line: the ablated text cannot be encoded, and the file at --out
# keeps its bytes.
@example(argv=["ablate", "--dataset", "surrogate.json", "--mode", "nouns",
               "--out", "dataset.json"])
# The largest loss-check the property draws.
@example(argv=["loss-check", "--instances", "50", "--max-vocab", "50", "--seed",
               "1234567890123456789012", "--out", "out.json"])
def test_every_call_keeps_the_exit_contract(inputs, argv):
    scratch, files = inputs
    root = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    try:
        (root / "dir").mkdir()
        for name, data in files.items():
            (root / name).write_bytes(data)
        before = _snapshot(root)
        with _inside(root):
            code, out, err = _run(argv)
        after = _snapshot(root)
    finally:
        shutil.rmtree(root)
    assert code in (None, 0, 1, 2), argv
    assert out == "", argv
    told = [line for line in err.splitlines() if not line.startswith("warning: ")]
    if code == 1 and not err:
        assert argv[0] in ("validate", "loss-check") and after != before, argv
    elif code == 1:
        assert len(told) == 1 and told[0].startswith("error: "), (argv, err)
        assert after == before, argv
    elif code == 2:
        assert len(told) == 1 and told[0].startswith("usage error: "), (argv, err)
        assert after == before, argv
