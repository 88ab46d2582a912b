"""Shared builders and parsed bundled scenes for the test suite."""
from __future__ import annotations

import gc
import math

import pytest
from hypothesis import settings

import scenes as fixtures
from navscribe.nav_graph import NavGraph, Viewpoint, parse_connectivity
from navscribe.object_saliency import SaliencyConfig
from navscribe.scene_metadata import (Category, Panorama, Region, SceneModel,
                                      SceneObject, parse_house)

# Every property in tier-1 replays the same examples and has no time limit;
# a ``@settings(max_examples=...)`` decorator inherits both from this profile.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

SQUARE_POSITIONS = {
    "va": (0.0, 0.0, 0.0),
    "vb": (1.0, 0.0, 0.0),
    "vc": (1.0, 1.0, 0.0),
    "vd": (0.0, 1.0, 0.0),
    "vm": (0.5, 0.5, 0.0),
}
# Perimeter edges plus the split a-c diagonal through the middle node.
SQUARE_EDGES = [("va", "vb"), ("vb", "vc"), ("vc", "vd"), ("va", "vd"),
                ("va", "vm"), ("vc", "vm")]


def build_graph(positions: dict, edge_pairs, scan: str = "test") -> NavGraph:
    viewpoints = [Viewpoint(vid, pos, 1.5, True) for vid, pos in sorted(positions.items())]
    edges = {}
    for a, b in edge_pairs:
        key = (a, b) if a <= b else (b, a)
        edges[key] = math.dist(positions[a], positions[b])
    return NavGraph(scan, viewpoints, edges)


def build_scene(objects, panoramas, scan: str = "mini", n_regions: int = 1) -> SceneModel:
    """Assemble a SceneModel without going through house text.

    ``objects`` holds (category_name, center, radii) or the same with a
    trailing region index; ``panoramas`` holds (name, region, position).
    """
    categories: list[Category] = []
    by_name: dict[str, int] = {}
    scene_objects = []
    for i, entry in enumerate(objects):
        name, center, radii = entry[:3]
        region = entry[3] if len(entry) > 3 else 0
        if name not in by_name:
            by_name[name] = len(categories)
            categories.append(Category(len(categories), len(categories), name,
                                       len(categories), name))
        scene_objects.append(SceneObject(i, region, by_name[name], center,
                                         (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), radii))
    regions = tuple(
        Region(r, 0, "r", (0.0, 0.0, 0.0), (-50.0, -50.0, -5.0), (50.0, 50.0, 5.0))
        for r in range(n_regions)
    )
    panos = tuple(Panorama(name, i, region, pos)
                  for i, (name, region, pos) in enumerate(panoramas))
    return SceneModel(scan, tuple(categories), regions, tuple(scene_objects), panos)


@pytest.fixture(autouse=True)
def _gc_state_kept():
    """Fail any test after which cyclic garbage collection is on where it
    was off before it, or off where it was on; restore it for the next."""
    before = gc.isenabled()
    yield
    if gc.isenabled() != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"gc.isenabled() was {before} before the test and {not before} after it")


@pytest.fixture
def square_graph() -> NavGraph:
    return build_graph(SQUARE_POSITIONS, SQUARE_EDGES, scan="square")


@pytest.fixture
def saliency() -> SaliencyConfig:
    return SaliencyConfig()


@pytest.fixture(scope="session")
def tiny_scene() -> SceneModel:
    return parse_house(fixtures.TINY_HOUSE)


def _bundle(fix: fixtures.FixtureScene):
    scene = parse_house(fix.house_text)
    graph = parse_connectivity(fix.connectivity_text, scan_id=scene.scan_id)
    return scene, graph


@pytest.fixture(scope="session")
def loop_bundle():
    return _bundle(fixtures.loop_scene())


@pytest.fixture(scope="session")
def stairs_bundle():
    return _bundle(fixtures.stairs_scene())


@pytest.fixture(scope="session")
def hub_bundle():
    return _bundle(fixtures.hub_scene())
