"""Bundled demo scenes: declared counts, executor-safety geometry, stairs."""
from __future__ import annotations

import math

import pytest

import scenes as fixtures
from scenes import all_scenes, write_scene_files
from navscribe.instruction_crafter import Motion, classify_vertical
from navscribe.nav_graph import parse_connectivity
from navscribe.object_saliency import (SaliencyConfig, best_object,
                                       filter_candidates, observe)
from navscribe.scene_metadata import parse_house
from navscribe.view_geometry import heading_to, wrap_angle

# Any two competing edge directions must differ by well over 5pi/8 so the
# scored pick never flips to the wrong neighbor, whatever the start heading.
MIN_SEPARATION = 2.4


def _bundles():
    out = {}
    for fx in all_scenes():
        scene = parse_house(fx.house_text)
        graph = parse_connectivity(fx.connectivity_text, scan_id=fx.name)
        out[fx.name] = (scene, graph)
    return out


BUNDLES = _bundles()


class TestInventory:
    def test_three_scenes(self):
        assert sorted(BUNDLES) == ["hub0", "loop0", "stairs0"]

    @pytest.mark.parametrize("name,cats,objs,panos,regions", [
        ("loop0", 26, 28, 25, 2),
        ("stairs0", 13, 14, 22, 4),
        ("hub0", 12, 12, 22, 4),
    ])
    def test_counts(self, name, cats, objs, panos, regions):
        scene, _ = BUNDLES[name]
        assert len(scene.categories) == cats
        assert len(scene.objects) == objs
        assert len(scene.panoramas) == panos
        assert len(scene.regions) == regions

    @pytest.mark.parametrize("name", sorted(BUNDLES))
    def test_panorama_positions_match_graph(self, name):
        scene, graph = BUNDLES[name]
        graph_ids = {v.id for v in graph.viewpoints}
        for pano in scene.panoramas:
            assert pano.name in graph_ids
            assert math.dist(pano.position, graph.position(pano.name)) < 1e-6

    def test_loop_is_a_single_cycle(self):
        _, graph = BUNDLES["loop0"]
        included = [v for v in graph.viewpoints if v.included]
        assert len(included) == 24
        assert all(len(graph.adjacency(v.id)) == 2 for v in included)

    def test_loop_excluded_node_is_isolated(self):
        scene, graph = BUNDLES["loop0"]
        orphan = next(v for v in graph.viewpoints if not v.included)
        assert graph.adjacency(orphan.id) == ()
        pano = next(p for p in scene.panoramas if p.name == orphan.id)
        assert pano.region_index == -1


class TestExecutorSafety:
    @pytest.mark.parametrize("name", sorted(BUNDLES))
    def test_degree_two_direction_separation(self, name):
        _, graph = BUNDLES[name]
        for vp in graph.viewpoints:
            nbrs = graph.adjacency(vp.id)
            if len(nbrs) != 2:
                continue
            pos = graph.position(vp.id)
            ha = heading_to(pos, graph.position(nbrs[0][0]))
            hb = heading_to(pos, graph.position(nbrs[1][0]))
            assert abs(wrap_angle(ha - hb)) >= MIN_SEPARATION, vp.id

    def test_hub_spokes_are_anchored(self):
        # Three spokes 120 degrees apart cannot rely on separation alone.
        # Each spoke direction has its own unique landmark near the axis so
        # the object bonus settles which neighbor an instruction means.
        scene, graph = BUNDLES["hub0"]
        hub = next(v.id for v in graph.viewpoints
                   if len(graph.adjacency(v.id)) == 3)
        cfg = SaliencyConfig()
        pos = graph.position(hub)
        candidates = filter_candidates(observe(scene, pos, cfg.max_distance), cfg)
        picks = {}
        for nbr, _ in graph.adjacency(hub):
            spoke_heading = heading_to(pos, graph.position(nbr))
            chosen = best_object(candidates, spoke_heading, cfg.fov)
            assert chosen is not None, nbr
            picks[nbr] = chosen.category
        assert sorted(picks.values()) == ["aquarium", "fireplace", "piano"]

    def test_hub_anchor_bearings_are_tight(self):
        scene, graph = BUNDLES["hub0"]
        hub = next(v.id for v in graph.viewpoints
                   if len(graph.adjacency(v.id)) == 3)
        cfg = SaliencyConfig()
        pos = graph.position(hub)
        candidates = filter_candidates(observe(scene, pos, cfg.max_distance), cfg)
        anchors = {c.category: c for c in candidates
                   if c.category in ("piano", "fireplace", "aquarium")}
        assert len(anchors) == 3
        for nbr, _ in graph.adjacency(hub):
            spoke_heading = heading_to(pos, graph.position(nbr))
            nearest = min(abs(wrap_angle(a.heading - spoke_heading))
                          for a in anchors.values())
            # Well inside the field of view, tiny next to the 2pi/3 spacing.
            assert nearest < 0.35


class TestStairs:
    def test_vertical_edges(self):
        scene, graph = BUNDLES["stairs0"]
        region = {p.name: p.region_index for p in scene.panoramas}
        ups, downs = set(), set()
        for vp in graph.viewpoints:
            for nbr, _ in graph.adjacency(vp.id):
                dz = graph.position(nbr)[2] - graph.position(vp.id)[2]
                motion = classify_vertical(dz, region[vp.id] != region[nbr])
                if motion is Motion.GO_UP:
                    ups.add((vp.id, nbr))
                elif motion is Motion.GO_DOWN:
                    downs.add((vp.id, nbr))
        assert ups == {("stairs0_vp07", "stairs0_vp08"),
                       ("stairs0_vp08", "stairs0_vp09"),
                       ("stairs0_vp16", "stairs0_vp15")}
        assert downs == {(b, a) for a, b in ups}

    def test_flat_scenes_have_no_vertical_edges(self):
        for name in ("loop0", "hub0"):
            scene, graph = BUNDLES[name]
            region = {p.name: p.region_index for p in scene.panoramas}
            for vp in graph.viewpoints:
                for nbr, _ in graph.adjacency(vp.id):
                    dz = graph.position(nbr)[2] - graph.position(vp.id)[2]
                    motion = classify_vertical(dz, region[vp.id] != region[nbr])
                    assert motion is Motion.WALK_STRAIGHT


class TestWriteSceneFiles:
    def test_round_trips_through_disk(self, tmp_path):
        for fx in all_scenes():
            write_scene_files(fx, tmp_path)
            house = (tmp_path / f"{fx.name}.house").read_text("utf-8")
            conn = (tmp_path / f"{fx.name}_connectivity.json").read_text("utf-8")
            assert house == fx.house_text
            assert conn == fx.connectivity_text


def test_mutate_line_counts_lines_at_newline_only():
    # str.splitlines would also break at the U+0085 ending line 2, edit the
    # line above the one asked for and drop the U+0085.
    lines = fixtures.TINY_HOUSE.split("\n")
    lines[1] += "\x85"
    edited = fixtures._mutate_line("\n".join(lines), 12, lambda line: line + " 7")
    assert edited.split("\n") == lines[:11] + [lines[11] + " 7"] + lines[12:]
