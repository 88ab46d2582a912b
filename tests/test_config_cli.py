"""Config parsing and the command line pipeline, run end to end on disk."""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import inspect
import json
import math
import time

import pytest

from scenes import all_scenes, write_scene_files
from navscribe import cli, jsonio
from navscribe.aux_loss_math import gradient_check
from navscribe.cli import main
from navscribe.config import (AuxConfig, ConfigError, RunConfig, SamplerConfig,
                              load_config)
from navscribe.nav_graph import parse_connectivity, paths_from_json
from navscribe.render_svg import RenderSpec, render_viewpoint
from navscribe.scene_metadata import parse_house, read_scene_json
from navscribe.supervision_export import read_r2r_json


class TestLoadConfig:
    def test_empty_text_gives_defaults(self):
        assert load_config("") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = load_config("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.sampler.seed == 9

    def test_full_schema(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("sofa\tnoun\n", "utf-8")
        cfg = load_config(
            "n_paths = 12\n"
            "seed = 3\n"
            "min_hops = 2\n"
            "max_hops = 9\n"
            "min_geodesic = 1.5\n"
            "lambda = 0.25\n"
            "beta = 0.1\n"
            "n_objects = 4\n"
            "max_distance = 5.0\n"
            "min_area = 0.05\n"
            "require_unique = false\n"
            "blacklist = wall, floor\n"
            "fov_half_width = 1.0\n"
            f"lexicon = {lex}\n"
        )
        assert cfg.sampler == SamplerConfig(12, 3, 2, 9, 1.5)
        assert cfg.aux == AuxConfig(0.25, 0.1, 4)
        assert cfg.saliency.max_distance == 5.0
        assert cfg.saliency.require_unique is False
        assert cfg.saliency.blacklist == frozenset({"wall", "floor"})
        assert cfg.saliency.fov.half_width == 1.0
        assert cfg.files.lexicon == str(lex)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="unknown key 'lamda'") as err:
            load_config("seed = 1\nlamda = 0.5\n")
        assert err.value.line_number == 2

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'seed'") as err:
            load_config("seed = 1\nseed = 2\n")
        assert err.value.line_number == 2

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1:"):
            load_config("just words\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            load_config("seed =\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="invalid number"):
            load_config("beta = fast\n")
        with pytest.raises(ConfigError, match="must be finite"):
            load_config("beta = inf\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="'true' or 'false'"):
            load_config("require_unique = yes\n")

    def test_negative_weight(self):
        with pytest.raises(ConfigError, match="non-negative"):
            load_config("lambda = -0.5\n")

    def test_n_objects_below_one_names_its_line(self):
        with pytest.raises(ConfigError) as err:
            load_config("seed = 1\nn_objects = 0\n")
        assert str(err.value) == "line 2: n_objects must be at least 1, got 0"

    def test_missing_input_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config("scene = /no/such/file.house\n")

    def test_existing_input_file_accepted(self, tmp_path):
        scene = tmp_path / "s.house"
        scene.write_text("x", "utf-8")
        assert load_config(f"scene = {scene}\n").files.scene == str(scene)

    def test_fov_violation_reported_without_line(self):
        with pytest.raises(ConfigError, match="half_width") as err:
            load_config("fov_half_width = -1.0\n")
        assert err.value.line_number is None

    def test_lines_end_at_newline_only(self):
        # str.splitlines would also break at the vertical tab and read two keys.
        with pytest.raises(ConfigError) as err:
            load_config("seed = 1\x0bn_paths = 2\n")
        assert str(err.value) == "line 1: seed: invalid integer '1\\x0bn_paths = 2'"
        assert err.value.line_number == 1
        assert load_config("seed = 3\r\nn_paths = 2\r\n").sampler == SamplerConfig(2, 3)

    @pytest.mark.parametrize("entry", ["Floor", "coffee  table", "WALL"])
    def test_blacklist_entry_that_can_never_match_is_rejected(self, entry):
        # Ingest stores category names lowercase and single-spaced, so such
        # an entry would leave the category it names mentionable.
        with pytest.raises(ConfigError) as err:
            load_config(f"seed = 1\nblacklist = wall, {entry}\n")
        assert str(err.value) == (f"line 2: blacklist: entry {entry!r} is not lowercase "
                                  "and single-spaced")
        assert err.value.line_number == 2

    def test_line_readers_share_one_error_class(self):
        import navscribe
        from navscribe.scene_metadata import HouseParseError
        from navscribe.text_ablation import LexiconError
        assert ConfigError is LexiconError is HouseParseError
        assert navscribe.ConfigError is navscribe.LexiconError is navscribe.HouseParseError
        assert navscribe.HouseParseError is ConfigError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Fixture scenes on disk plus the artifacts of one pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    for fx in all_scenes():
        write_scene_files(fx, root)
    return root


def _loop_args(root):
    return ["--house", str(root / "loop0.house"),
            "--connectivity", str(root / "loop0_connectivity.json")]


def _line_scan(root, xs):
    """Files of scan ``big``: an empty scene and one viewpoint per ``xs``
    entry, ``v0`` at ``xs[0]`` joined to each other ``v{i}`` on the x axis."""
    house, conn = root / "big.house", root / "big_connectivity.json"
    house.write_text("H big big 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n", "utf-8")
    entries = [{"image_id": f"v{i}", "pose": [1, 0, 0, x, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
                "included": True, "unobstructed": [(i == 0) != (j == 0) for j in range(len(xs))],
                "height": 1.5} for i, x in enumerate(xs)]
    conn.write_text(json.dumps(entries), "utf-8")
    return ["--house", str(house), "--connectivity", str(conn)]


def _mixed_dataset(root, tmp_path):
    """Eight crafted ``loop0`` records: every other instruction is its
    ``nouns`` ablation, which does not parse, and records 2 and 6 drop their
    last move, so they parse and stop one edge short of the goal."""
    paths, dataset, nouns = (tmp_path / name for name in ("p.json", "d.json", "n.json"))
    assert main(["sample-paths", *_loop_args(root), "--n", "8", "--seed", "42",
                 "--out", str(paths)]) == 0
    assert main(["craft", *_loop_args(root), "--paths", str(paths), "--out", str(dataset)]) == 0
    assert main(["ablate", "--dataset", str(dataset), "--mode", "nouns",
                 "--out", str(nouns)]) == 0
    doc = json.loads(dataset.read_text("utf-8"))
    for record, ablated in list(zip(doc, json.loads(nouns.read_text("utf-8"))))[1::2]:
        record["instructions"] = ablated["instructions"]
    for record in doc[2::4]:
        clauses = record["instructions"][0].split(". ")
        record["instructions"] = [". ".join(clauses[:-2] + clauses[-1:])]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc), "utf-8")
    return mixed


# Each config-backed flag: (command, flag, key, its RunConfig field, the key's
# value, the flag's value). File values name files in tmp_path.
_KEYED = [
    ("parse-scene", "--house", "scene", "files.scene", "a", "b"),
    ("sample-paths", "--house", "scene", "files.scene", "a", "b"),
    ("sample-paths", "--connectivity", "graph", "files.graph", "a", "b"),
    ("craft", "--paths", "paths", "files.paths", "a", "b"),
    ("ablate", "--lexicon", "lexicon", "files.lexicon", "a", "b"),
    ("stats", "--out", "out", "files.out", "a", "b"),
    ("sample-paths", "--n", "n_paths", "sampler.n", 3, 5),
    ("sample-paths", "--seed", "seed", "sampler.seed", 3, 42),
    ("sample-paths", "--min-hops", "min_hops", "sampler.min_hops", 2, 3),
    ("sample-paths", "--max-hops", "max_hops", "sampler.max_hops", 9, 6),
    ("sample-paths", "--min-geodesic", "min_geodesic", "sampler.min_geodesic", 2.5, 1.25),
    ("supervise", "--n-objects", "n_objects", "aux.n_objects", 3, 1),
]


class TestCli:
    def test_parse_scene(self, workdir, tmp_path):
        out = tmp_path / "scene.json"
        code = main(["parse-scene", "--house", str(workdir / "loop0.house"),
                     "--out", str(out)])
        assert code == 0
        scene = read_scene_json(out.read_text("utf-8"))
        assert len(scene.panoramas) == 25

    def test_parse_scene_rewrites_its_own_output_unchanged(self, workdir, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["parse-scene", "--house", str(workdir / "loop0.house"),
                     "--out", str(first)]) == 0
        assert main(["parse-scene", "--house", str(first), "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    # A scene file is JSON when its first non-blank character, past one
    # byte-order mark, is { or [; a .house file with a mark stays .house text.
    @pytest.mark.parametrize("house,body,message", [
        (False, None, "$: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                      "line 1 column 1 (char 0)"),
        (False, "\n [1]", "$: expected an object, found array"),
        (True, None, "line 1: expected the H header record first"),
    ], ids=["json-byte-order-mark", "json-array", "house-byte-order-mark"])
    def test_scene_format_is_sniffed_past_a_byte_order_mark(self, workdir, tmp_path, capsys,
                                                            house, body, message):
        scene, out = tmp_path / "scene", tmp_path / "out.json"
        if house:
            scene.write_text((workdir / "loop0.house").read_text("utf-8"), "utf-8")
        else:
            assert main(["parse-scene", "--house", str(workdir / "loop0.house"),
                         "--out", str(scene)]) == 0
        scene.write_text("\ufeff" + scene.read_text("utf-8") if body is None else body, "utf-8")
        code = main(["sample-paths", "--house", str(scene), "--connectivity",
                     str(workdir / "loop0_connectivity.json"), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("config,flags,message", [
        ("", ["--min-hops", "-3"], "min_hops must be non-negative, got -3"),
        ("min_hops = 5\nmax_hops = 3\n", [], "min_hops 5 exceeds max_hops 3"),
        ("seed = 18446744073709551616\n", [],
         "seed must be in [0, 2**64), got 18446744073709551616"),
    ], ids=["flag", "config", "seed"])
    def test_sampler_bounds_are_checked_before_any_input(self, tmp_path, capsys, config, flags,
                                                         message):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_text(config, "utf-8")
        code = main(["sample-paths", "--config", str(cfg),
                     "--house", str(tmp_path / "missing.house"),
                     "--connectivity", str(tmp_path / "missing.json"), *flags, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "0", "18446744073709551615", "18446744073709551616"])
    def test_seed_is_refused_outside_64_bits(self, workdir, tmp_path, capsys, seed):
        """A seed in [0, 2**64) samples; any other would alias one of them,
        since SplitMix64 keeps a seed mod 2**64, so it fails and writes nothing."""
        out = tmp_path / "paths.json"
        code = main(["sample-paths", *_loop_args(workdir), "--n", "3", f"--seed={seed}",
                     "--out", str(out)])
        if 0 <= int(seed) < 2**64:
            assert (code, capsys.readouterr().err) == (0, "")
            assert len(paths_from_json(out.read_text("utf-8")).paths) == 3
        else:
            assert (code, capsys.readouterr().err) == (
                1, f"error: seed must be in [0, 2**64), got {seed}\n")
            assert not out.exists()

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = main(["parse-scene", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_malformed_scene_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.house"
        bad.write_text("not a house file\n", "utf-8")
        code = main(["parse-scene", "--house", str(bad),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_pose_is_located_error(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "loop0_connectivity.json").read_text("utf-8"))
        doc[0]["pose"][3] = math.nan
        conn = tmp_path / "conn.json"
        conn.write_text(json.dumps(doc), "utf-8")
        code = main(["sample-paths", "--house", str(workdir / "loop0.house"),
                     "--connectivity", str(conn), "--n", "3", "--out",
                     str(tmp_path / "paths.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: $[0].pose[3]: expected a finite number, found nan\n"

    def test_non_finite_scene_json_is_located_error(self, workdir, tmp_path, capsys):
        scene, paths = tmp_path / "scene.json", tmp_path / "paths.json"
        assert main(["parse-scene", "--house", str(workdir / "loop0.house"),
                     "--out", str(scene)]) == 0
        assert main(["sample-paths", *_loop_args(workdir), "--n", "3",
                     "--out", str(paths)]) == 0
        doc = json.loads(scene.read_text("utf-8"))
        doc["objects"][0]["center"][0] = math.inf
        scene.write_text(json.dumps(doc), "utf-8")
        capsys.readouterr()
        code = main(["craft", "--house", str(scene), "--connectivity",
                     str(workdir / "loop0_connectivity.json"), "--paths", str(paths),
                     "--out", str(tmp_path / "dataset.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: $.objects[0].center[0]: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,flag,value", [
        ("render", "--radius", "nan"),
        ("render", "--radius", "inf"),
        ("render", "--radius", "1e-320"),
        ("render", "--radius", "3e-306"),
        pytest.param("render", "--width", str(10**400), id="render---width-10**400"),
        pytest.param("render", "--height", str(10**400), id="render---height-10**400"),
        ("validate", "--success-radius", "nan"),
        ("sample-paths", "--min-geodesic", "nan"),
        ("sample-paths", "--min-geodesic", "inf"),
        ("sample-paths", "--min-geodesic", "-1"),
    ])
    def test_out_of_range_number_flag_is_error(self, workdir, tmp_path, capsys, command,
                                               flag, value):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        capsys.readouterr()
        extra = {"render": ["--viewpoint", "loop0_vp00"], "sample-paths": [],
                 "validate": ["--dataset", str(dataset)]}[command]
        out_file = tmp_path / "out"
        code = main([command, *_loop_args(workdir), *extra, flag, value,
                     "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_file.exists()

    def test_negative_hop_bounds_are_error(self, workdir, tmp_path, capsys):
        out_file = tmp_path / "paths.json"
        code = main(["sample-paths", *_loop_args(workdir), "--min-hops", "-3",
                     "--max-hops", "-1", "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: min_hops must be non-negative, got -3\n"
        assert not out_file.exists()

    def test_n_objects_flag_below_one_is_error(self, workdir, tmp_path, capsys):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "supervision.json"
        code = main(["supervise", *_loop_args(workdir), "--dataset", str(dataset),
                     "--n-objects", "-1", "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: n_objects must be at least 1, got -1\n"
        assert not out_file.exists()

    def test_n_objects_flag_below_one_is_reported_before_any_input(self, tmp_path, capsys):
        code = main(["supervise", "--dataset", str(tmp_path / "missing.json"),
                     "--n-objects", "0", "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (1, "error: n_objects must be at least 1, "
                                                      "got 0\n")

    def test_untokenizable_instruction_is_located_error(self, workdir, tmp_path, capsys):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        doc = json.loads(dataset.read_text("utf-8"))
        doc[1]["instructions"][0] = "..."
        dataset.write_text(json.dumps(doc), "utf-8")
        capsys.readouterr()
        out_file = tmp_path / "supervision.json"
        code = main(["supervise", *_loop_args(workdir), "--dataset", str(dataset),
                     "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == ("error: $[1].instructions[0]: instruction has no tokens "
                       "after tokenization\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("entry", ["sofa.\tnoun", "coffee table\tnoun"])
    def test_lexicon_entry_that_can_never_match_is_error(self, workdir, tmp_path, capsys,
                                                         entry):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(f"walk\tother\n{entry}\n", "utf-8")
        capsys.readouterr()
        out_file = tmp_path / "ablated.json"
        code = main(["ablate", "--dataset", str(dataset), "--mode", "nouns",
                     "--lexicon", str(lexicon), "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: ") and err.count("\n") == 1, err
        assert not out_file.exists()

    def test_lexicon_saved_with_byte_order_mark_is_error(self, workdir, tmp_path, capsys):
        # Read as a key, "\ufeffsofa" would never match and the sofa would stay.
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("\ufeffsofa\tnoun\nchair\tnoun\n", "utf-8")
        capsys.readouterr()
        out_file = tmp_path / "ablated.json"
        code = main(["ablate", "--dataset", str(dataset), "--mode", "nouns",
                     "--lexicon", str(lexicon), "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == ("error: line 1: token must be one lowercase word without punctuation, "
                       "found '\\ufeffsofa'\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("max_vocab", ["0", "1"])
    def test_loss_check_vocab_below_two_is_error(self, tmp_path, capsys, max_vocab):
        out_file = tmp_path / "loss.json"
        code = main(["loss-check", "--max-vocab", max_vocab, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: max_vocab must be at least 2, got {max_vocab}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("command,field,value,where", [
        ("stats", "heading", math.inf, "$[0].heading"),
        ("ablate", "heading", math.nan, "$[0].heading"),
        ("stats", "path", [], "$[0].path"),
        ("ablate", "instructions", [], "$[0].instructions"),
    ])
    def test_bad_dataset_value_is_located_error(self, tmp_path, capsys, command, field,
                                                value, where):
        record = {"path_id": 0, "scan": "loop0", "heading": 0.5, "path": ["a", "b"],
                  "instructions": ["Walk straight. Stop there."], "distance": 2.0}
        record[field] = value
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps([record]), "utf-8")
        mode = ["--mode", "nouns"] if command == "ablate" else []
        code = main([command, "--dataset", str(dataset), *mode,
                     "--out", str(tmp_path / "out.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["supervise", "validate", "stats", "ablate"])
    @pytest.mark.parametrize("field,value", [
        ("heading", 7.0),
        ("distance", -1.0),
        ("path", ["loop0_vp01", "loop0_vp01"]),
    ])
    def test_record_that_is_no_path_is_located_error(self, workdir, tmp_path, capsys,
                                                     command, field, value):
        # Each field passes its own check; the record breaks a PathSpec rule.
        record = {"path_id": 0, "scan": "loop0", "heading": 0.5,
                  "path": ["loop0_vp00", "loop0_vp01"],
                  "instructions": ["Walk straight. Stop there."], "distance": 2.0}
        record[field] = value
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps([record]), "utf-8")
        extra = {"supervise": _loop_args(workdir), "validate": _loop_args(workdir),
                 "stats": [], "ablate": ["--mode", "nouns"]}[command]
        code = main([command, "--dataset", str(dataset), *extra,
                     "--out", str(tmp_path / "out.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: $[0]: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("field,value,where", [
        ("distance", math.inf, "$.paths[0].distance"),
        ("path", [], "$.paths[0].path"),
    ])
    def test_bad_paths_value_is_located_error(self, workdir, tmp_path, capsys, field,
                                              value, where):
        paths = tmp_path / "paths.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2",
                     "--out", str(paths)]) == 0
        doc = json.loads(paths.read_text("utf-8"))
        doc["paths"][0][field] = value
        paths.write_text(json.dumps(doc), "utf-8")
        capsys.readouterr()
        code = main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(tmp_path / "dataset.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1

    # Two loop0 paths: vp13 to vp17 and vp12 down to vp06. vp24 is excluded,
    # so no edge reaches it; at the end of a gold route it was infinitely far
    # from wherever the executor stopped.
    @pytest.mark.parametrize("command,at,viewpoint,message", [
        ("craft", (0, 1), "nowhere", "$.paths[0].path[1]: unknown viewpoint id 'nowhere'"),
        ("supervise", (1, 6), "nowhere", "$[1].path[6]: unknown viewpoint id 'nowhere'"),
        ("validate", (0, 5), "loop0_vp24",
         "$[0].path[5]: no edge between 'loop0_vp17' and 'loop0_vp24'"),
    ])
    def test_path_off_the_graph_is_located_error(self, workdir, tmp_path, capsys, command,
                                                 at, viewpoint, message):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        edited = paths if command == "craft" else dataset
        doc = json.loads(edited.read_text("utf-8"))
        route = (doc["paths"] if command == "craft" else doc)[at[0]]["path"]
        route[at[1]:] = [viewpoint]
        edited.write_text(json.dumps(doc), "utf-8")
        capsys.readouterr()
        inputs = ["--paths", str(paths)] if command == "craft" else ["--dataset", str(dataset)]
        out_file = tmp_path / "out.json"
        code = main([command, *_loop_args(workdir), *inputs, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert not out_file.exists()

    # The edited record is the second; the first still names loop0.
    @pytest.mark.parametrize("command,where", [
        ("craft", "$.paths[1].scan"),
        ("supervise", "$[1].scan"),
        ("validate", "$[1].scan"),
    ])
    def test_record_of_another_scan_is_located_error(self, workdir, tmp_path, capsys,
                                                     command, where):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "2", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        edited = paths if command == "craft" else dataset
        doc = json.loads(edited.read_text("utf-8"))
        (doc["paths"] if command == "craft" else doc)[1]["scan"] = "stairs0"
        edited.write_text(json.dumps(doc), "utf-8")
        capsys.readouterr()
        inputs = ["--paths", str(paths)] if command == "craft" else ["--dataset", str(dataset)]
        out_file = tmp_path / "out.json"
        code = main([command, *_loop_args(workdir), *inputs, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {where}: scan 'stairs0' is not the scene's 'loop0'\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["supervise", "validate", "stats", "ablate"])
    def test_duplicate_path_id_is_located_error(self, workdir, tmp_path, capsys, command):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "3", "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        doc = json.loads(dataset.read_text("utf-8"))
        doc[1]["path_id"] = doc[2]["path_id"] = doc[0]["path_id"]
        dataset.write_text(json.dumps(doc), "utf-8")
        capsys.readouterr()
        extra = {"supervise": _loop_args(workdir), "validate": _loop_args(workdir),
                 "stats": [], "ablate": ["--mode", "nouns"]}[command]
        out_file = tmp_path / "out.json"
        code = main([command, "--dataset", str(dataset), *extra, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: $[1].path_id: duplicate path_id {doc[0]['path_id']}\n"
        assert not out_file.exists()

    # Each file flag names a file whose bytes are not UTF-8; every other file
    # is valid or read after it.
    @pytest.mark.parametrize("argv", [
        ["parse-scene", "--house", "BAD"],
        ["sample-paths", "--house", "HOUSE", "--connectivity", "BAD"],
        ["craft", "--house", "HOUSE", "--connectivity", "GRAPH", "--paths", "BAD"],
        ["stats", "--dataset", "BAD"],
        ["ablate", "--dataset", "NONE", "--mode", "nouns", "--lexicon", "BAD"],
        ["stats", "--dataset", "NONE", "--config", "BAD"],
    ], ids=lambda argv: argv[-2])
    def test_file_that_is_not_utf8_is_located_error(self, workdir, tmp_path, capsys, argv):
        bad, out_file = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_bytes(b'[\n"\xff"]')
        files = {"BAD": str(bad), "NONE": str(tmp_path / "none.json"),
                 "HOUSE": str(workdir / "loop0.house"),
                 "GRAPH": str(workdir / "loop0_connectivity.json")}
        code = main([files.get(arg, arg) for arg in argv] + ["--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {bad}: invalid UTF-8 at byte 3 (invalid start byte)\n"
        assert not out_file.exists()

    def test_validate_of_no_records_is_located_error(self, workdir, tmp_path, capsys):
        dataset, out_file = tmp_path / "empty.json", tmp_path / "report.json"
        dataset.write_text("[]\n", "utf-8")
        code = main(["validate", *_loop_args(workdir), "--dataset", str(dataset),
                     "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: $: no records to validate\n"
        assert not out_file.exists()

    def test_huge_max_hops_is_as_cheap_as_the_viewpoint_count(self, workdir, tmp_path):
        n_viewpoints = len(json.loads((workdir / "loop0_connectivity.json").read_text("utf-8")))
        outputs = []
        for max_hops in (n_viewpoints, 10**9):
            out_file = tmp_path / f"paths_{max_hops}.json"
            start = time.perf_counter()
            assert main(["sample-paths", *_loop_args(workdir), "--n", "30", "--seed", "42",
                         "--max-hops", str(max_hops), "--out", str(out_file)]) == 0
            assert time.perf_counter() - start < 2.0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n,distance", [(3, 1.7976931348623157e308), (5, 1e308)])
    def test_stats_mean_distance_survives_an_overflowing_sum(self, workdir, tmp_path, n,
                                                             distance):
        paths, dataset = tmp_path / "paths.json", tmp_path / "dataset.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", str(n), "--seed", "42",
                     "--out", str(paths)]) == 0
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        doc = json.loads(dataset.read_text("utf-8"))
        assert len(doc) == n
        for record in doc:
            record["distance"] = distance
        dataset.write_text(json.dumps(doc), "utf-8")
        stats = tmp_path / "stats.json"
        assert main(["stats", "--dataset", str(dataset), "--out", str(stats)]) == 0
        mean = json.loads(stats.read_text("utf-8"))["mean_distance"]
        assert math.isfinite(mean) and mean <= distance

    @pytest.mark.parametrize("flag", ["--dataset", "--connectivity"])
    def test_deeply_nested_json_is_an_error_not_a_traceback(self, workdir, tmp_path,
                                                            capsys, flag):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000, "utf-8")
        out_file = str(tmp_path / "out.json")
        if flag == "--dataset":
            argv = ["stats", "--dataset", str(deep), "--out", out_file]
        else:
            argv = ["sample-paths", "--house", str(workdir / "loop0.house"),
                    "--connectivity", str(deep), "--out", out_file]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["parse-scene"], ["sample-paths"], ["craft"], ["supervise", "--dataset", "d.json"],
        ["ablate", "--dataset", "d.json", "--mode", "all"], ["validate", "--dataset", "d.json"],
        ["render", "--viewpoint", "v"], ["loss-check", "--instances", "1"],
        ["stats", "--dataset", "d.json"],
    ], ids=lambda argv: argv[0])
    def test_errors_come_config_first_then_inputs_then_out(self, tmp_path, capsys, argv):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("seed = 1\nlamda = 0.5\n", "utf-8")
        out = tmp_path / "out.json"
        # A bad config wins over missing inputs, and nothing is written.
        assert main([*argv, "--config", str(bad_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: line 2: unknown key 'lamda'\n"
        assert not out.exists()
        # A missing input wins over a missing --out.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.25\n", "utf-8")
        code = main([*argv, "--config", str(cfg)])
        err = capsys.readouterr().err
        if argv[0] == "loss-check":  # reads no input file
            assert code == 2 and err == ("usage error: missing output file (--out); "
                                         "pass the flag or set it in the config file\n")
        else:
            assert code in (1, 2) and "output file" not in err

    def test_bad_subcommand_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["ablate", "--dataset", "d.json", "--mode", "verbs",
                  "--out", "x.json"])
        assert err.value.code == 2

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("bad-input", 1), ("usage", 2), ("unknown-command", 2),
    ])
    def test_command_runs_with_gc_paused_and_restores_it(self, workdir, tmp_path, capsys,
                                                         monkeypatch, case, code, enabled):
        seen = []
        real_parse_house = cli.parse_house

        def parse_house(text):
            seen.append(gc.isenabled())
            return real_parse_house(text)

        monkeypatch.setattr(cli, "parse_house", parse_house)
        bad = tmp_path / "bad.house"
        bad.write_text("ASCII 1.1\nH nothing\n", "utf-8")
        out = ["--out", str(tmp_path / "scene.json")]
        argv = {
            "ok": ["parse-scene", "--house", str(workdir / "loop0.house"), *out],
            "bad-input": ["parse-scene", "--house", str(bad), *out],
            "usage": ["parse-scene", *out],
            "unknown-command": ["no-such-command", *out],
        }[case]
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                got = main(argv)
            except SystemExit as exc:  # from argparse, before the pause
                got = exc.code
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        capsys.readouterr()
        assert (got, after) == (code, enabled)
        # The stage ran, if at all, with collection paused.
        assert seen == ([False] if case in ("ok", "bad-input") else [])

    def test_sample_craft_validate_round_trip(self, workdir, tmp_path):
        paths = tmp_path / "paths.json"
        dataset = tmp_path / "dataset.json"
        report = tmp_path / "report.json"
        assert main(["sample-paths", *_loop_args(workdir), "--n", "8",
                     "--seed", "42", "--out", str(paths)]) == 0
        assert len(paths_from_json(paths.read_text("utf-8")).paths) == 8
        assert main(["craft", *_loop_args(workdir), "--paths", str(paths),
                     "--out", str(dataset)]) == 0
        records = read_r2r_json(dataset.read_text("utf-8"))
        assert len(records) == 8
        assert all(r.instructions[0].endswith(".") for r in records)
        assert main(["validate", *_loop_args(workdir), "--dataset", str(dataset),
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text("utf-8"))
        assert doc["count"] == 8
        assert doc["round_trip_rate"] == 1.0
        assert doc["metrics"]["sr"] == 1.0

    def test_validate_flags_corrupted_instruction(self, workdir, tmp_path):
        paths = tmp_path / "paths.json"
        dataset = tmp_path / "dataset.json"
        report = tmp_path / "report.json"
        main(["sample-paths", *_loop_args(workdir), "--n", "3", "--seed", "1",
              "--out", str(paths)])
        main(["craft", *_loop_args(workdir), "--paths", str(paths),
              "--out", str(dataset)])
        text = dataset.read_text("utf-8").replace("Stop there", "Linger there", 1)
        dataset.write_text(text, "utf-8")
        code = main(["validate", *_loop_args(workdir), "--dataset", str(dataset),
                     "--out", str(report)])
        assert code == 1
        doc = json.loads(report.read_text("utf-8"))
        assert sum(1 for row in doc["paths"] if not row["parse_ok"]) == 1
        assert doc["round_trip_rate"] < 1.0

    @pytest.mark.parametrize("radius,digest", [
        ([], "e441b73ab3eb014b84c0097a5b6ff3b6fc3bc19ca95ee81ee79decca5df30898"),
        (["--success-radius", "0.5"],
         "2e464035d248e5e24a238fd8cd3cdb4d4533c9b06fab8b039fde4279e4c9485c"),
    ])
    def test_validate_report_on_unparsable_text_is_pinned(self, workdir, tmp_path, radius,
                                                          digest):
        report = tmp_path / "report.json"
        assert main(["validate", *_loop_args(workdir), "--dataset",
                     str(_mixed_dataset(workdir, tmp_path)), *radius,
                     "--out", str(report)]) == 1
        doc = json.loads(report.read_text("utf-8"))
        assert [row["parse_ok"] for row in doc["paths"]] == [True, False] * 4
        assert doc["round_trip_rate"] == 0.25
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    def test_validate_mean_survives_an_overflowing_sum(self, tmp_path):
        dataset, report = tmp_path / "dataset.json", tmp_path / "report.json"
        dataset.write_text(json.dumps([
            {"path_id": i, "scan": "big", "heading": heading, "path": path,
             "instructions": ["Walk straight. Stop there."], "distance": 1e308}
            for i, (path, heading) in enumerate([(["v0", "v1"], math.pi / 2),
                                                 (["v1", "v0"], 3 * math.pi / 2)])]), "utf-8")
        assert main(["validate", *_line_scan(tmp_path, [0.0, 1e308]),
                     "--dataset", str(dataset), "--out", str(report)]) == 0
        doc = json.loads(report.read_text("utf-8"))
        assert doc["metrics"]["pl"] == 1e308 and doc["round_trip_rate"] == 1

    @pytest.mark.parametrize("path,text,message", [
        (["v0", "v1", "v0"], "Walk straight. Walk straight. Stop there.",
         "walked length is not finite, got inf"),
        (["v0", "v1"], "Turn around, walk straight. Stop there.",
         "navigation error is not finite, got inf"),
    ], ids=["walked_length", "navigation_error"])
    def test_validate_locates_a_metric_that_overflows(self, tmp_path, capsys, path, text,
                                                      message):
        dataset, report = tmp_path / "dataset.json", tmp_path / "report.json"
        records = [{"path_id": 0, "scan": "big", "heading": math.pi / 2, "path": ["v0", "v1"],
                    "instructions": ["Walk straight. Stop there."], "distance": 1e308},
                   {"path_id": 1, "scan": "big", "heading": math.pi / 2, "path": path,
                    "instructions": [text], "distance": 1.0}]
        dataset.write_text(json.dumps(records + [{**records[1], "path_id": 2}]), "utf-8")
        code = main(["validate", *_line_scan(tmp_path, [0.0, 1e308, -1e308]),
                     "--dataset", str(dataset), "--out", str(report)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: $[1]: {message}\n"
        assert not report.exists()

    def test_sample_paths_refuses_a_route_whose_cost_overflows(self, tmp_path, capsys):
        out_file = tmp_path / "paths.json"
        code = main(["sample-paths", *_line_scan(tmp_path, [0.0, 1e308, -1e308]),
                     "--n", "6", "--min-hops", "1", "--min-geodesic", "0",
                     "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: distance must be finite, got inf\n"
        assert not out_file.exists()

    def test_ablate_all_empties_instructions(self, workdir, tmp_path):
        paths = tmp_path / "paths.json"
        dataset = tmp_path / "dataset.json"
        ablated = tmp_path / "ablated.json"
        main(["sample-paths", *_loop_args(workdir), "--n", "3", "--seed", "5",
              "--out", str(paths)])
        main(["craft", *_loop_args(workdir), "--paths", str(paths),
              "--out", str(dataset)])
        assert main(["ablate", "--dataset", str(dataset), "--mode", "all",
                     "--out", str(ablated)]) == 0
        for record in read_r2r_json(ablated.read_text("utf-8")):
            assert record.instructions == ("",)

    def test_ablate_with_custom_lexicon(self, workdir, tmp_path):
        dataset = tmp_path / "dataset.json"
        paths = tmp_path / "paths.json"
        ablated = tmp_path / "ablated.json"
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("walk\tnoun\n", "utf-8")
        main(["sample-paths", *_loop_args(workdir), "--n", "2", "--seed", "5",
              "--out", str(paths)])
        main(["craft", *_loop_args(workdir), "--paths", str(paths),
              "--out", str(dataset)])
        assert main(["ablate", "--dataset", str(dataset), "--mode", "nouns",
                     "--lexicon", str(lexicon), "--out", str(ablated)]) == 0
        for record in read_r2r_json(ablated.read_text("utf-8")):
            assert "walk" not in record.instructions[0]
            assert "straight" in record.instructions[0]

    def test_supervise_and_stats(self, workdir, tmp_path):
        paths = tmp_path / "paths.json"
        dataset = tmp_path / "dataset.json"
        supervision = tmp_path / "supervision.json"
        stats = tmp_path / "stats.json"
        main(["sample-paths", *_loop_args(workdir), "--n", "4", "--seed", "11",
              "--out", str(paths)])
        main(["craft", *_loop_args(workdir), "--paths", str(paths),
              "--out", str(dataset)])
        assert main(["supervise", *_loop_args(workdir), "--dataset", str(dataset),
                     "--out", str(supervision)]) == 0
        doc = json.loads(supervision.read_text("utf-8"))
        assert len(doc) == 4
        assert all("tokens" in rec for rec in doc)
        assert main(["stats", "--dataset", str(dataset),
                     "--out", str(stats)]) == 0
        report = json.loads(stats.read_text("utf-8"))
        assert report["records"] == 4
        assert report["vocabulary"] > 0
        assert report["mean_tokens"] > 4

    def test_render_writes_svg(self, workdir, tmp_path):
        out = tmp_path / "view.svg"
        code = main(["render", *_loop_args(workdir), "--viewpoint", "loop0_vp00",
                     "--out", str(out)])
        assert code == 0
        svg = out.read_text("utf-8")
        assert svg.startswith("<svg ")
        assert 'class="viewpoint"' in svg

    def test_loss_check(self, tmp_path):
        out = tmp_path / "loss.json"
        code = main(["loss-check", "--instances", "20", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text("utf-8"))
        assert doc["passed"] is True
        assert doc["max_rel_error"] < 1e-6
        assert "e-" in out.read_text("utf-8")

    def test_flags_override_config(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scene = {workdir / 'loop0.house'}\n"
            f"graph = {workdir / 'loop0_connectivity.json'}\n"
            "n_paths = 2\nseed = 1\n",
            "utf-8",
        )
        from_config = tmp_path / "a.json"
        overridden = tmp_path / "b.json"
        flags_only = tmp_path / "c.json"
        assert main(["sample-paths", "--config", str(cfg),
                     "--out", str(from_config)]) == 0
        assert main(["sample-paths", "--config", str(cfg), "--n", "6",
                     "--seed", "42", "--out", str(overridden)]) == 0
        assert main(["sample-paths", *_loop_args(workdir), "--n", "6",
                     "--seed", "42", "--out", str(flags_only)]) == 0
        assert len(paths_from_json(from_config.read_text("utf-8")).paths) == 2
        assert overridden.read_bytes() == flags_only.read_bytes()

    @pytest.mark.parametrize("command,flag,key,field,key_value,flag_value", _KEYED,
                             ids=[f"{case[0]}{case[1][1:]}" for case in _KEYED])
    def test_each_flag_wins_over_its_key(self, tmp_path, monkeypatch, command, flag, key,
                                         field, key_value, flag_value):
        seen = []

        def spy(cfg, **flags):
            seen.append(cfg)
            return "", 0

        monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"), spy)
        if field.startswith("files."):
            for name in (key_value, flag_value):
                (tmp_path / name).write_text("", "utf-8")
            key_value, flag_value = str(tmp_path / key_value), str(tmp_path / flag_value)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {key_value}\n", "utf-8")
        argv = [command, "--config", str(cfg),
                *{"supervise": ["--dataset", "d.json"], "stats": ["--dataset", "d.json"],
                  "ablate": ["--dataset", "d.json", "--mode", "all"]}.get(command, [])]
        if flag != "--out":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert main([*argv, flag, str(flag_value)]) == 0
        section, name = field.split(".")
        assert [getattr(getattr(c, section), name) for c in seen] == [key_value, flag_value]
        assert all(c == dataclasses.replace(seen[0], **{section: getattr(c, section)})
                   for c in seen)  # the flag changed its own field only

    def test_loss_check_seed_is_not_the_sampler_seed(self, tmp_path, monkeypatch):
        seen = []

        def spy(cfg, **flags):
            seen.append((cfg.sampler, flags))
            return "", 0

        monkeypatch.setattr(cli, "_cmd_loss_check", spy)
        assert main(["loss-check", "--seed", "3", "--out", str(tmp_path / "out")]) == 0
        assert seen == [(SamplerConfig(), {"seed": 3})]

    def test_every_dest_names_what_it_sets(self):
        """Each config-backed dest is ``section.field`` of RunConfig; every
        other dest is a parameter of its command, or for ``render`` and
        ``loss-check``, of the library call that takes the flags given."""
        parser = cli._build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        library = {"render": {f.name for f in dataclasses.fields(RenderSpec)},
                   "loss-check": set(inspect.signature(gradient_check).parameters)
                   - {f.name for f in dataclasses.fields(AuxConfig)}}
        keyed = set()
        for command, sub in commands.items():
            for action in sub._actions:
                if action.dest in ("help", "config"):
                    continue
                if "." in action.dest:
                    section, name = action.dest.split(".")
                    assert name in {f.name for f in dataclasses.fields(
                        getattr(RunConfig(), section))}, (command, action.dest)
                    assert action.dest.upper() not in sub.format_help()
                    keyed.add(action.option_strings[0])
                elif command in library:
                    assert action.dest in library[command], (command, action.dest)
                else:
                    assert action.dest in inspect.signature(
                        sub.get_default("func")).parameters, (command, action.dest)
        assert keyed == {"--house", "--connectivity", "--paths", "--lexicon", "--out", "--n",
                         "--seed", "--min-hops", "--max-hops", "--min-geodesic",
                         "--n-objects"}

    def test_no_flag_carries_a_default(self):
        """A flag left out is not passed on, so the library's default applies."""
        assert [option for _, _, flags in cli._COMMANDS.values()
                for option, spec in flags.items() if "default" in spec] == []

    def test_validate_takes_the_library_success_radius(self, workdir, tmp_path):
        dataset = _mixed_dataset(workdir, tmp_path)
        reports = []
        for radius in ([], ["--success-radius", "3.0"]):
            reports.append(tmp_path / f"report{len(reports)}.json")
            assert main(["validate", *_loop_args(workdir), "--dataset", str(dataset),
                         *radius, "--out", str(reports[-1])]) == 1
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_render_and_loss_check_take_the_library_defaults(self, workdir, tmp_path):
        svg, report = tmp_path / "view.svg", tmp_path / "loss.json"
        assert main(["render", *_loop_args(workdir), "--viewpoint", "loop0_vp00",
                     "--out", str(svg)]) == 0
        scene = parse_house((workdir / "loop0.house").read_text("utf-8"))
        graph = parse_connectivity((workdir / "loop0_connectivity.json").read_text("utf-8"),
                                   scan_id=scene.scan_id)
        assert svg.read_bytes() == render_viewpoint(
            scene, graph, RenderSpec("loop0_vp00")).encode("utf-8")
        assert main(["loss-check", "--out", str(report)]) == 0
        assert report.read_bytes() == jsonio.dumps(
            gradient_check(**dataclasses.asdict(AuxConfig())), float_fmt=".3e").encode("utf-8")

    def test_repeat_runs_are_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["sample-paths", *_loop_args(workdir), "--n", "5",
                  "--seed", "13", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
        spec = paths_from_json(a.read_text("utf-8")).paths[0]
        assert math.isfinite(spec.distance)
