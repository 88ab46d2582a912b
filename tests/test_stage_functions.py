"""The pipeline's stages as library calls over one ``Scan``.

Each dataset command reads its files, checks them, and hands its records to
one stage function: ``craft_dataset``, ``supervise_dataset``,
``ablate_dataset``, ``validate_dataset`` or ``dataset_stats``. On every
fixture scene, the stage functions called directly on what the command line
reads must give the command line's bytes, its exit code, and its errors.
"""
from __future__ import annotations

import json
import pathlib
from types import SimpleNamespace

import pytest

from scenes import all_scenes, write_scene_files
from navscribe import jsonio
from navscribe.cli import main
from navscribe.config import AuxConfig
from navscribe.instruction_crafter import craft_dataset
from navscribe.instruction_executor import DEFAULT_SUCCESS_RADIUS, validate_dataset
from navscribe.nav_graph import parse_connectivity, paths_from_json
from navscribe.object_saliency import SaliencyConfig, Scan
from navscribe.scene_metadata import parse_house
from navscribe.supervision_export import (dataset_stats, emit_r2r_json, emit_supervision_json,
                                          read_r2r_json, supervise_dataset)
from navscribe.text_ablation import AblationMode, ablate_dataset, load_default_lexicon

SCENES = all_scenes()


@pytest.fixture(scope="module", params=SCENES, ids=[fx.name for fx in SCENES])
def chain(request, tmp_path_factory):
    """One scene's files, the artifacts and exit codes of the command-line
    chain over them, and the ``Scan`` built from the same files."""
    root = tmp_path_factory.mktemp(request.param.name)
    house, connectivity = write_scene_files(request.param, str(root))
    scene_args = ["--house", house, "--connectivity", connectivity]

    text, code = {}, {}

    def run(key, *argv):
        out = root / f"{len(text)}.json"
        code[key] = main([*argv, "--out", str(out)])
        text[key] = out.read_text("utf-8")
        return str(out)

    paths = run("paths", "sample-paths", *scene_args, "--n", "12")
    dataset = run("dataset", "craft", *scene_args, "--paths", paths)
    run("supervision", "supervise", *scene_args, "--dataset", dataset)
    run("validate", "validate", *scene_args, "--dataset", dataset)
    run("stats", "stats", "--dataset", dataset)
    for mode in AblationMode:
        ablated = run(mode, "ablate", "--dataset", dataset, "--mode", mode.value)
        run(("validate", mode), "validate", *scene_args, "--dataset", ablated)
    # Only validating an ablated dataset may fail.
    assert all(c == 0 for key, c in code.items() if not isinstance(key, tuple))
    scene = parse_house(pathlib.Path(house).read_text("utf-8"))
    graph = parse_connectivity(pathlib.Path(connectivity).read_text("utf-8"),
                               scan_id=scene.scan_id)
    return SimpleNamespace(scan=Scan(scene, graph, SaliencyConfig()), text=text, code=code,
                           scene_args=scene_args, root=root)


def test_craft_dataset_is_the_craft_file(chain):
    paths = paths_from_json(chain.text["paths"]).paths
    assert paths  # the chain has records to compare
    assert emit_r2r_json(craft_dataset(chain.scan, paths)) == chain.text["dataset"]


def test_supervise_dataset_is_the_supervise_file(chain):
    records = read_r2r_json(chain.text["dataset"])
    supervisions = supervise_dataset(chain.scan, records, AuxConfig().n_objects)
    assert emit_supervision_json(supervisions) == chain.text["supervision"]


@pytest.mark.parametrize("mode", list(AblationMode), ids=lambda mode: mode.value)
def test_ablate_dataset_is_the_ablate_file(chain, mode):
    records = read_r2r_json(chain.text["dataset"])
    assert emit_r2r_json(ablate_dataset(records, mode, load_default_lexicon())) == chain.text[mode]


@pytest.mark.parametrize("source", ["dataset", *AblationMode],
                         ids=lambda source: getattr(source, "value", source))
def test_validate_dataset_is_the_validate_report_and_exit_code(chain, source):
    key = "validate" if source == "dataset" else ("validate", source)
    report = validate_dataset(chain.scan, read_r2r_json(chain.text[source]), DEFAULT_SUCCESS_RADIUS)
    assert jsonio.dumps(report) == chain.text[key]
    # The command exits 0 exactly when every path round-trips.
    all_round_trip = all(row["round_trip"] for row in report["paths"])
    assert chain.code[key] == (0 if all_round_trip else 1)
    assert all_round_trip == (report["round_trip_rate"] == 1)


def test_dataset_stats_is_the_stats_file(chain):
    assert jsonio.dumps(dataset_stats(read_r2r_json(chain.text["dataset"]))) == chain.text["stats"]


def test_no_token_instruction_is_the_commands_error(chain, capsys):
    doc = json.loads(chain.text["dataset"])
    doc[-1]["instructions"][0] = "..."
    dataset = chain.root / "no_tokens.json"
    dataset.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(jsonio.JsonSchemaError) as exc:
        supervise_dataset(chain.scan, read_r2r_json(dataset.read_text("utf-8")),
                          AuxConfig().n_objects)
    assert exc.value.json_path == f"$[{len(doc) - 1}].instructions[0]"
    capsys.readouterr()
    out = chain.root / "no_tokens_supervision.json"
    assert main(["supervise", *chain.scene_args, "--dataset", str(dataset), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


def test_empty_dataset_is_the_commands_error(chain, capsys):
    with pytest.raises(jsonio.JsonSchemaError) as exc:
        validate_dataset(chain.scan, [], DEFAULT_SUCCESS_RADIUS)
    assert (exc.value.json_path, str(exc.value)) == ("$", "$: no records to validate")
    dataset, out = chain.root / "empty.json", chain.root / "empty_report.json"
    dataset.write_text("[]\n", "utf-8")
    capsys.readouterr()
    assert main(["validate", *chain.scene_args, "--dataset", str(dataset), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()
