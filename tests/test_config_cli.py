"""Config parsing and the command line pipeline, run end to end on disk."""
from __future__ import annotations

import json
import math

import pytest

from navscribe.cli import main
from navscribe.config import (AuxConfig, ConfigError, RunConfig, SamplerConfig,
                              load_config)
from navscribe.fixtures import all_scenes, write_scene_files
from navscribe.nav_graph import paths_from_json
from navscribe.scene_metadata import read_scene_json
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


class TestCli:
    def test_parse_scene(self, workdir, tmp_path):
        out = tmp_path / "scene.json"
        code = main(["parse-scene", "--house", str(workdir / "loop0.house"),
                     "--out", str(out)])
        assert code == 0
        scene = read_scene_json(out.read_text("utf-8"))
        assert len(scene.panoramas) == 25

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

    def test_repeat_runs_are_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["sample-paths", *_loop_args(workdir), "--n", "5",
                  "--seed", "13", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
        spec = paths_from_json(a.read_text("utf-8")).paths[0]
        assert math.isfinite(spec.geodesic_length)
