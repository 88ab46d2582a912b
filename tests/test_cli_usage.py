"""What the command line prints for help and for usage mistakes, pinned
byte for byte: ``navscribe --help``, each command's ``--help`` (exit 0, on
stdout) and five usage errors (exit 2, on stderr).

argparse lays help out to the terminal's width, taken from ``COLUMNS``, and
its wording differs between Python versions, so the texts are pinned at
80 columns on Python 3.11.
"""
from __future__ import annotations

import sys

import pytest

from navscribe import cli

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="argparse's help wording is pinned as Python 3.11 prints it")

HELP = {
    "": """\
usage: navscribe [-h]
                 {parse-scene,sample-paths,craft,supervise,ablate,validate,render,loss-check,stats}
                 ...

Compile indoor scenes and navigation graphs into instruction-following
training data.

positional arguments:
  {parse-scene,sample-paths,craft,supervise,ablate,validate,render,loss-check,stats}
    parse-scene         parse a scene file into canonical scene JSON
    sample-paths        sample shortest paths from the graph
    craft               write instructions for sampled paths
    supervise           emit per-token object supervision for a dataset
    ablate              rewrite dataset instructions with words removed
    validate            re-execute dataset instructions and score them
    render              draw the surroundings of one viewpoint as SVG
    loss-check          verify loss gradients against finite differences
    stats               summarize a dataset file

options:
  -h, --help            show this help message and exit
""",
    "parse-scene": """\
usage: navscribe parse-scene [-h] [--config CONFIG] [--out OUT]
                             [--house HOUSE]

options:
  -h, --help       show this help message and exit
  --config CONFIG  key = value config file
  --out OUT        output file path
  --house HOUSE    scene file (.house text or scene JSON)
""",
    "sample-paths": """\
usage: navscribe sample-paths [-h] [--config CONFIG] [--out OUT]
                              [--house HOUSE] [--connectivity CONNECTIVITY]
                              [--n N] [--seed SEED] [--min-hops MIN_HOPS]
                              [--max-hops MAX_HOPS]
                              [--min-geodesic MIN_GEODESIC]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --house HOUSE         scene file (.house text or scene JSON)
  --connectivity CONNECTIVITY
                        connectivity JSON file
  --n N                 number of paths to sample
  --seed SEED           random seed
  --min-hops MIN_HOPS
  --max-hops MAX_HOPS
  --min-geodesic MIN_GEODESIC
""",
    "craft": """\
usage: navscribe craft [-h] [--config CONFIG] [--out OUT] [--house HOUSE]
                       [--connectivity CONNECTIVITY] [--paths PATHS]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --house HOUSE         scene file (.house text or scene JSON)
  --connectivity CONNECTIVITY
                        connectivity JSON file
  --paths PATHS         sampled paths JSON file
""",
    "supervise": """\
usage: navscribe supervise [-h] [--config CONFIG] [--out OUT] [--house HOUSE]
                           [--connectivity CONNECTIVITY] --dataset DATASET
                           [--n-objects N_OBJECTS]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --house HOUSE         scene file (.house text or scene JSON)
  --connectivity CONNECTIVITY
                        connectivity JSON file
  --dataset DATASET     dataset JSON file
  --n-objects N_OBJECTS
                        object labels per token
""",
    "ablate": """\
usage: navscribe ablate [-h] [--config CONFIG] [--out OUT] --dataset DATASET
                        --mode {nouns,adjectives,nouns_adjectives,all}
                        [--lexicon LEXICON]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --dataset DATASET     dataset JSON file
  --mode {nouns,adjectives,nouns_adjectives,all}
  --lexicon LEXICON     word TAB tag lexicon file
""",
    "validate": """\
usage: navscribe validate [-h] [--config CONFIG] [--out OUT] [--house HOUSE]
                          [--connectivity CONNECTIVITY] --dataset DATASET
                          [--success-radius SUCCESS_RADIUS]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --house HOUSE         scene file (.house text or scene JSON)
  --connectivity CONNECTIVITY
                        connectivity JSON file
  --dataset DATASET     dataset JSON file
  --success-radius SUCCESS_RADIUS
""",
    "render": """\
usage: navscribe render [-h] [--config CONFIG] [--out OUT] [--house HOUSE]
                        [--connectivity CONNECTIVITY] --viewpoint VIEWPOINT
                        [--radius RADIUS] [--width WIDTH] [--height HEIGHT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --house HOUSE         scene file (.house text or scene JSON)
  --connectivity CONNECTIVITY
                        connectivity JSON file
  --viewpoint VIEWPOINT
  --radius RADIUS
  --width WIDTH
  --height HEIGHT
""",
    "loss-check": """\
usage: navscribe loss-check [-h] [--config CONFIG] [--out OUT]
                            [--instances INSTANCES] [--seed SEED]
                            [--max-vocab MAX_VOCAB]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             output file path
  --instances INSTANCES
  --seed SEED
  --max-vocab MAX_VOCAB
""",
    "stats": """\
usage: navscribe stats [-h] [--config CONFIG] [--out OUT] --dataset DATASET

options:
  -h, --help         show this help message and exit
  --config CONFIG    key = value config file
  --out OUT          output file path
  --dataset DATASET  dataset JSON file
""",
}
USAGE_ERRORS = {
    "": """\
usage: navscribe [-h]
                 {parse-scene,sample-paths,craft,supervise,ablate,validate,render,loss-check,stats}
                 ...
navscribe: error: the following arguments are required: command
""",
    "ablate --dataset d --mode bogus": """\
usage: navscribe ablate [-h] [--config CONFIG] [--out OUT] --dataset DATASET
                        --mode {nouns,adjectives,nouns_adjectives,all}
                        [--lexicon LEXICON]
navscribe ablate: error: argument --mode: invalid choice: 'bogus' (choose from 'nouns', 'adjectives', 'nouns_adjectives', 'all')
""",
    "sample-paths --n abc": """\
usage: navscribe sample-paths [-h] [--config CONFIG] [--out OUT]
                              [--house HOUSE] [--connectivity CONNECTIVITY]
                              [--n N] [--seed SEED] [--min-hops MIN_HOPS]
                              [--max-hops MAX_HOPS]
                              [--min-geodesic MIN_GEODESIC]
navscribe sample-paths: error: argument --n: invalid int value: 'abc'
""",
    "craft --bogus x": """\
usage: navscribe [-h]
                 {parse-scene,sample-paths,craft,supervise,ablate,validate,render,loss-check,stats}
                 ...
navscribe: error: unrecognized arguments: --bogus x
""",
    "supervise": """\
usage: navscribe supervise [-h] [--config CONFIG] [--out OUT] [--house HOUSE]
                           [--connectivity CONNECTIVITY] --dataset DATASET
                           [--n-objects N_OBJECTS]
navscribe supervise: error: the following arguments are required: --dataset
""",
}


def _run(argv: list[str], monkeypatch, capsys) -> tuple[int, str, str]:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    out, err = capsys.readouterr()
    return exit_.value.code, out, err


@pytest.mark.parametrize("command", list(HELP), ids=lambda command: command or "navscribe")
def test_help_is_pinned(monkeypatch, capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    assert _run(argv, monkeypatch, capsys) == (0, HELP[command], "")


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=lambda argv: argv or "no-command")
def test_usage_error_is_pinned(monkeypatch, capsys, argv):
    assert _run(argv.split(), monkeypatch, capsys) == (2, "", USAGE_ERRORS[argv])
