"""The flag table reads a plain command line exactly as argparse does.

``cli.main`` reads argv through ``cli._read_plain``, straight from the table
``cli._COMMANDS``, and hands every argv the table declines to
``cli._build_parser().parse_args``. Over argv drawn from the real flags, and
from the spellings argparse reads its own way (``--flag=value``, prefixes,
``-h``, ``--``, values that start with ``-``, repeats, flags of another
command, stray words), the table's dict equals argparse's, None values
dropped, whenever the table accepts. The command lines of the README
pipeline and of the benchmark's workloads are plain.
"""
from __future__ import annotations

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navscribe import cli


def _flags() -> dict[str, list[tuple[str, bool, object]]]:
    """Each command's (flag, required, choices), as its parser declares them."""
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return {command: [(action.option_strings[-1], action.required, action.choices)
                      for action in sub._actions if action.dest != "help"]
            for command, sub in commands.items()}


_FLAGS = _flags()
_EVERY_FLAG = sorted({flag for flags in _FLAGS.values() for flag, _, _ in flags})
# Values each flag can take, values no flag takes, and values argparse reads
# as a flag (they start with "-") or that int() and float() strip.
_VALUES = ["5", "3", "1.5", "nan", "1e400", "1_000", "abc", "bogus", "out.json", "a=b",
           "-1", "-x", "-", "--", "", " 5", "5 "]


def _argparse(argv: list[str]) -> dict | str:
    """argparse's dict for ``argv`` without its None values, or what it
    prints when it exits."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            namespace = cli._build_parser().parse_args(argv)
    except SystemExit:
        return f"argparse exits: {printed.getvalue()}"
    return {dest: value for dest, value in vars(namespace).items() if value is not None}


def _shown(parsed: dict | str) -> dict | str:
    """``parsed`` with each value by its repr: NaN matches NaN, and 5 does
    not match 5.0."""
    return {dest: repr(value) for dest, value in parsed.items()} if isinstance(parsed, dict) \
        else parsed


def _value(choices):
    pool = st.sampled_from(_VALUES)
    return st.sampled_from(choices) | pool if choices else pool


@st.composite
def _odd(draw, command: str) -> list[str]:
    """One spelling that argparse reads in its own way, or refuses."""
    flag, _, choices = draw(st.sampled_from(_FLAGS[command]))
    value = draw(_value(choices))
    other = [f for f in _EVERY_FLAG if f not in {f for f, _, _ in _FLAGS[command]}]
    return draw(st.sampled_from([
        [f"{flag}={value}"],
        [flag[:draw(st.integers(2, len(flag) - 1))], value],  # a prefix, unique or not
        [flag],  # no value
        ["-h"], ["--help"], ["--"], ["stray"],
        [draw(st.sampled_from(other)), value],
    ]))


@st.composite
def _argv(draw) -> list[str]:
    """A command with its required flags nine times in ten and optional
    flags (some twice), each with a value, in any order; one time in three
    with one or two odd spellings inserted anywhere, the command included."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = [flag for flag in _FLAGS[command] if flag[1] and draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=4))
    argv = [command]
    for flag, _, choices in draw(st.permutations(flags)):
        argv += [flag, draw(_value(choices))]
    if draw(st.integers(0, 2)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(argv)))
            argv[at:at] = draw(_odd(command))
    return argv


@settings(max_examples=1000)
@given(argv=_argv())
# The first of two values for one flag is not the one argparse keeps.
@example(argv=["ablate", "--mode", "all", "--dataset", "d.json", "--mode", "nouns"])
# A value among no choice of the flag is argparse's to refuse.
@example(argv=["ablate", "--mode", "bogus", "--dataset", "d.json"])
def test_the_table_reads_what_argparse_reads(argv):
    read = cli._read_plain(argv)
    if read is not None:
        assert _shown(read) == _shown(_argparse(argv)), argv


def _bench_lines() -> list[str]:
    """The command lines of the benchmark's three workloads at any seed, with
    15 paths per scan, as its driver writes them."""
    modes = ["nouns", "adjectives", "nouns_adjectives", "all"]

    def scan(name: str, n: int, mode: str, via_scene_json: bool) -> list[str]:
        house = f"{name}.scene.json" if via_scene_json else f"{name}.house"
        scene = f"--house {house} --connectivity {name}_connectivity.json"
        dataset = f"{name}.dataset.json"
        return [
            *([f"parse-scene --house {name}.house --out {house}"] if via_scene_json else []),
            f"sample-paths {scene} --n {n} --seed 2 --out {name}.paths.json",
            f"craft {scene} --paths {name}.paths.json --out {dataset}",
            f"supervise {scene} --dataset {dataset} --out {name}.supervision.json",
            f"ablate --dataset {dataset} --mode {mode} --out {name}.ablated.json",
            f"validate {scene} --dataset {dataset} --out {name}.report.json",
        ]

    return [
        *scan("dense0", 200, "nouns_adjectives", False),
        *[line for i in range(10) for line in scan(f"sparse{i}", 15, modes[i % 4], i % 2 == 0)],
        *[f"ablate --dataset r2r.json --mode {mode} --out ablated_{mode}.json" for mode in modes],
        "stats --dataset r2r.json --out stats.json",
    ]


_README_LINES = [
    "sample-paths --house demo/loop0.house --connectivity demo/loop0_connectivity.json"
    " --n 25 --seed 42 --out demo/paths.json",
    "craft --house demo/loop0.house --connectivity demo/loop0_connectivity.json"
    " --paths demo/paths.json --out demo/dataset.json",
    "supervise --house demo/loop0.house --connectivity demo/loop0_connectivity.json"
    " --dataset demo/dataset.json --out demo/supervision.json",
    "ablate --dataset demo/dataset.json --mode nouns --out demo/ablated.json",
    "validate --house demo/loop0.house --connectivity demo/loop0_connectivity.json"
    " --dataset demo/dataset.json --out demo/report.json",
]


@pytest.mark.parametrize("line", _README_LINES + _bench_lines())
def test_the_table_reads_the_readme_and_benchmark_lines(line):
    argv = line.split()
    read = cli._read_plain(argv)
    assert read is not None
    assert _shown(read) == _shown(_argparse(argv))


def test_the_table_declines_what_argparse_reads_its_own_way():
    for line in ["", "--help", "craft --help", "craft -h", "craft --out=o", "craft --ou o",
                 "craft --out o --", "craft -- --out o", "craft --out -o", "craft --out",
                 "craft stray", "craft --mode nouns", "nope --out o", "ablate --dataset d",
                 "ablate --dataset d --mode bogus", "sample-paths --n -1", "sample-paths --n x"]:
        assert cli._read_plain(line.split()) is None, line
