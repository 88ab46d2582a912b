"""Each view question is answered once per command.

``Scan.anchor`` keeps each ``(position, heading)``'s answer in a table, and
``supervise_dataset`` ranks each node's labels once and shares the tuple
across tokens and records. On every fixture scene, the calls that reach
``best_object`` and ``top_n_objects`` are counted through their module-level
names, which is also how the benchmark's tracer sees them.
"""
from __future__ import annotations

import math

import pytest

from scenes import all_scenes, write_scene_files
from navscribe import object_saliency, supervision_export
from navscribe.cli import main
from navscribe.config import AuxConfig
from navscribe.instruction_crafter import craft_dataset
from navscribe.instruction_executor import DEFAULT_SUCCESS_RADIUS, validate_dataset
from navscribe.nav_graph import parse_connectivity, sample_paths
from navscribe.object_saliency import SaliencyConfig, Scan
from navscribe.scene_metadata import parse_house
from navscribe.supervision_export import supervise_dataset

SCENES = all_scenes()
N_OBJECTS = AuxConfig().n_objects


def _scan(fx) -> Scan:
    scene = parse_house(fx.house_text)
    return Scan(scene, parse_connectivity(fx.connectivity_text, scan_id=scene.scan_id),
                SaliencyConfig())


def _paths(scan: Scan):
    paths = sample_paths(scan.graph, 12, 1).paths
    assert paths
    return paths


def _counted(monkeypatch, module, name: str) -> list:
    """The argument lists of every call made through ``module.name``."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _asked(monkeypatch) -> list:
    """The ``(position, heading)`` of every ``Scan.anchor`` call."""
    asked, original = [], Scan.anchor

    def recording(self, position, heading):
        asked.append((position, heading))
        return original(self, position, heading)

    monkeypatch.setattr(Scan, "anchor", recording)
    return asked


@pytest.mark.parametrize("fx", SCENES, ids=[fx.name for fx in SCENES])
def test_best_object_runs_once_per_distinct_question(fx, monkeypatch):
    records = craft_dataset(_scan(fx), _paths(_scan(fx)))
    for stage in (lambda scan: craft_dataset(scan, _paths(scan)),
                  lambda scan: validate_dataset(scan, records, DEFAULT_SUCCESS_RADIUS)):
        with monkeypatch.context() as patch:
            asked = _asked(patch)
            calls = _counted(patch, object_saliency, "best_object")
            stage(_scan(fx))
        assert len(asked) > len(set(asked))  # the stage repeats questions
        assert len(calls) == len(set(asked))


@pytest.mark.parametrize("fx", SCENES, ids=[fx.name for fx in SCENES])
def test_top_n_objects_runs_once_per_distinct_labelled_node(fx, monkeypatch):
    scan = _scan(fx)
    records = craft_dataset(scan, _paths(scan))
    calls = _counted(monkeypatch, supervision_export, "top_n_objects")
    supervisions = supervise_dataset(scan, records, N_OBJECTS)
    labelled = {record.path[i] for record, sup in zip(records, supervisions)
                for i in sup.node_of_token}
    assert sorted(kwargs["node"] for _, kwargs in calls) == sorted(labelled)
    assert all(kwargs["n"] == N_OBJECTS for _, kwargs in calls)


@pytest.mark.parametrize("fx", SCENES, ids=[fx.name for fx in SCENES])
def test_a_reused_scan_answers_as_fresh_ones_do(fx):
    shared = _scan(fx)
    records = craft_dataset(shared, _paths(shared))
    assert records == craft_dataset(_scan(fx), _paths(shared))
    assert (validate_dataset(shared, records, DEFAULT_SUCCESS_RADIUS)
            == validate_dataset(_scan(fx), records, DEFAULT_SUCCESS_RADIUS))


@pytest.mark.parametrize("fx", SCENES, ids=[fx.name for fx in SCENES])
def test_negative_zero_heading_has_the_anchor_of_zero(fx):
    positions = [v.position for v in _scan(fx).graph.viewpoints]
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        table, fresh = _scan(fx), _scan(fx)
        for p in positions:
            assert table.anchor(p, first) == fresh.anchor(p, second)
            assert table.anchor(p, second) == fresh.anchor(p, second)  # from the table
    assert any(_scan(fx).anchor(p, 0.0) is not None for p in positions)


@pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
def test_a_refused_heading_raises_every_time_and_is_not_kept(heading):
    scan = _scan(SCENES[0])
    seeing = next(v.position for v in scan.graph.viewpoints if scan.candidates(v.position))
    for position in (seeing, (1e6, 1e6, 0.0)):  # something in range, then nothing
        scan.anchor(position, 0.0)
        kept = dict(scan._anchors)
        for _ in range(3):
            with pytest.raises(ValueError, match="cannot wrap non-finite angle"):
                scan.anchor(position, heading)
        assert scan._anchors == kept
    assert scan.candidates((1e6, 1e6, 0.0)) == ()


def test_supervise_calls_top_n_objects_by_keyword(tmp_path, monkeypatch):
    """The benchmark's tracer reads ``node`` and ``n`` of ``top_n_objects``
    by keyword, so a positional call would break only a traced run."""
    house, connectivity = write_scene_files(SCENES[0], str(tmp_path))
    scene_args = ["--house", house, "--connectivity", connectivity]

    def run(name, *argv):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return out

    paths = run("paths.json", "sample-paths", *scene_args, "--n", "12")
    dataset = run("dataset.json", "craft", *scene_args, "--paths", str(paths))
    plain = run("plain.json", "supervise", *scene_args, "--dataset", str(dataset))
    original = supervision_export.top_n_objects

    def keyword_only(scan, *, node, n):
        return original(scan, node=node, n=n)

    monkeypatch.setattr(supervision_export, "top_n_objects", keyword_only)
    keyed = run("keyed.json", "supervise", *scene_args, "--dataset", str(dataset))
    assert keyed.read_bytes() == plain.read_bytes()
