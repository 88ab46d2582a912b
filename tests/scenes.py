"""Deterministic demo scenes and malformed-input cases: test data.

Three scenes, all built from fixed literals:

* ``loop0``: 24 viewpoints on a wavy closed corridor, one salient object per
  edge, plus blacklisted floor patches and a too-small vase.
* ``stairs0``: a 22-viewpoint chain with two stair-up edges and one
  stair-down edge, each crossing a region boundary.
* ``hub0``: three gently curved corridors meeting at a centre viewpoint
  whose three directions each have a uniquely categorized anchor object.

Corridor nodes keep their two neighbor directions at least ~138 degrees
apart and hub directions carry distinct anchor categories; under the
executor's scoring rule this makes crafted instructions reproduce their
source paths exactly, which the validation pipeline relies on.

Run as a script, it writes each scene's ``<name>.house`` and
``<name>_connectivity.json`` into a directory::

    python3 tests/scenes.py demo
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class FixtureScene:
    name: str
    house_text: str
    connectivity_text: str


# ---------------------------------------------------------------------------
# Low-level builders
# ---------------------------------------------------------------------------


def _f(value: float) -> str:
    return format(value, ".6f")


def _vec(v: tuple[float, float, float]) -> str:
    return f"{_f(v[0])} {_f(v[1])} {_f(v[2])}"


def _house_text(scan: str, levels: list[dict], regions: list[dict],
                categories: list[dict], panoramas: list[dict], objects: list[dict]) -> str:
    lines = [
        f"H {scan} {scan} 0 {len(panoramas)} 0 0 0 {len(objects)} "
        f"{len(categories)} {len(regions)} 0 {len(levels)} 0 0 0 0 0"
    ]
    for lv in levels:
        lines.append(
            f"L {lv['index']} {lv['n_regions']} 0 {_vec(lv['position'])} "
            f"{_vec(lv['lo'])} {_vec(lv['hi'])} 0 0 0 0 0"
        )
    for rg in regions:
        lines.append(
            f"R {rg['index']} {rg['level']} 0 0 {rg['label']} {_vec(rg['position'])} "
            f"{_vec(rg['lo'])} {_vec(rg['hi'])} 0 0 0 0 0"
        )
    for idx, cat in enumerate(categories):
        token = cat["name"].replace(" ", "_")
        lines.append(f"C {idx} {idx} {token} {idx + 3} {token} 0 0 0 0 0")
    for pano in panoramas:
        lines.append(
            f"P {pano['name']} {pano['index']} {pano['region']} 0 "
            f"{_vec(pano['position'])} 0 0 0 0 0"
        )
    for obj in objects:
        lines.append(
            f"O {obj['index']} {obj['region']} {obj['category']} {_vec(obj['center'])} "
            f"{_vec(obj['axis0'])} {_vec(obj['axis1'])} {_vec(obj['radii'])} "
            f"0 0 0 0 0 0 0 0"
        )
    return "\n".join(lines) + "\n"


def _connectivity_text(ids: list[str], positions: list[tuple[float, float, float]],
                       included: list[bool], edges: list[tuple[int, int]],
                       one_way: set[tuple[int, int]] = frozenset()) -> str:
    n = len(ids)
    unobstructed = [[False] * n for _ in range(n)]
    for i, j in edges:
        if (i, j) in one_way:
            unobstructed[i][j] = True
        else:
            unobstructed[i][j] = True
            unobstructed[j][i] = True
    entries = []
    for i, vid in enumerate(ids):
        x, y, z = positions[i]
        entries.append(
            {
                "image_id": vid,
                "pose": [1.0, 0.0, 0.0, x, 0.0, 1.0, 0.0, y, 0.0, 0.0, 1.0, z,
                         0.0, 0.0, 0.0, 1.0],
                "included": included[i],
                "unobstructed": unobstructed[i],
                "height": 1.5,
            }
        )
    return json.dumps(entries, indent=1) + "\n"


def _heading_vec(heading: float) -> tuple[float, float]:
    # Headings are clockwise from +Y, so x carries the sine.
    return math.sin(heading), math.cos(heading)


def _edge_object(index: int, region: int, category: int,
                 a: tuple[float, float, float], b: tuple[float, float, float],
                 side: int, offset: float, drop: float,
                 radii: tuple[float, float, float]) -> dict:
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    px, py = side * uy, -side * ux
    mid = ((a[0] + b[0]) / 2 + px * offset, (a[1] + b[1]) / 2 + py * offset,
           (a[2] + b[2]) / 2 - drop)
    return {
        "index": index,
        "region": region,
        "category": category,
        "center": mid,
        "axis0": (ux, uy, 0.0),
        "axis1": (-uy, ux, 0.0),
        "radii": radii,
    }


def _region_bounds(positions: list[tuple[float, float, float]], members: list[int]) -> tuple:
    xs = [positions[i][0] for i in members]
    ys = [positions[i][1] for i in members]
    zs = [positions[i][2] for i in members]
    lo = (min(xs) - 4.0, min(ys) - 4.0, 0.0)
    hi = (max(xs) + 4.0, max(ys) + 4.0, max(zs) + 2.0)
    center = ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, (lo[2] + hi[2]) / 2)
    return center, lo, hi


def _assemble(name: str, positions, included, edges, node_regions, region_levels,
              region_labels, categories, objects, one_way=frozenset()) -> FixtureScene:
    ids = [f"{name}_vp{i:02d}" for i in range(len(positions))]
    n_regions = max(r for r in node_regions if r >= 0) + 1
    regions = []
    for r in range(n_regions):
        members = [i for i, reg in enumerate(node_regions) if reg == r]
        center, lo, hi = _region_bounds(positions, members)
        regions.append({"index": r, "level": region_levels[r], "label": region_labels[r],
                        "position": center, "lo": lo, "hi": hi})
    n_levels = max(region_levels) + 1
    levels = []
    for lv in range(n_levels):
        members = [i for i, reg in enumerate(node_regions)
                   if reg >= 0 and region_levels[reg] == lv]
        center, lo, hi = _region_bounds(positions, members)
        levels.append({"index": lv, "n_regions": region_levels.count(lv),
                       "position": center, "lo": lo, "hi": hi})
    panoramas = [
        {"name": ids[i], "index": i, "region": node_regions[i], "position": positions[i]}
        for i in range(len(positions))
    ]
    house = _house_text(name, levels, regions,
                        [{"name": c} for c in categories], panoramas, objects)
    connectivity = _connectivity_text(ids, positions, included, edges, one_way)
    return FixtureScene(name, house, connectivity)


# ---------------------------------------------------------------------------
# loop0
# ---------------------------------------------------------------------------

_LOOP_CATEGORIES = [
    "bed", "sofa", "table", "chair", "painting", "mirror", "lamp", "television",
    "bookshelf", "cabinet", "dresser", "desk", "plant", "cushion", "curtain",
    "refrigerator", "stove", "sink", "bathtub", "toilet", "piano", "bench",
    "wardrobe", "nightstand", "floor", "vase",
]


def loop_scene() -> FixtureScene:
    n = 24
    positions = []
    for i in range(n):
        phi = 2.0 * math.pi * i / n
        radius = 7.0 + 1.1 * math.sin(3.0 * phi + 0.35)
        positions.append(
            (radius * math.cos(phi), radius * math.sin(phi),
             1.52 + 0.03 * math.sin(7.0 * phi + 1.3))
        )
    positions.append((1.0, 1.0, 1.5))  # excluded viewpoint, keeps its panorama
    included = [True] * n + [False]
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.append((24, 0))  # dropped because vp24 is excluded
    one_way = {(0, 1), (5, 6), (10, 11), (15, 16), (20, 21)}
    node_regions = [0 if i < n // 2 else 1 for i in range(n)] + [-1]

    objects = []
    for k in range(n):
        a, b = positions[k], positions[(k + 1) % n]
        side = 1 if k % 2 == 0 else -1
        radii = (0.55, 0.4, 0.35 + 0.05 * (k % 3))
        objects.append(_edge_object(k, node_regions[k], k, a, b, side, 1.25, 0.1, radii))
    for j, phi_deg in enumerate((10.0, 130.0, 250.0)):
        phi = math.radians(phi_deg)
        objects.append({
            "index": n + j,
            "region": -1 if j == 0 else (0 if phi_deg < 180 else 1),
            "category": 24,  # floor
            "center": (6.0 * math.cos(phi), 6.0 * math.sin(phi), 0.05),
            "axis0": (1.0, 0.0, 0.0),
            "axis1": (0.0, 1.0, 0.0),
            "radii": (1.5, 1.5, 0.05),
        })
    near = positions[5]
    objects.append({
        "index": n + 3,
        "region": 0,
        "category": 25,  # vase, projected area below the default threshold
        "center": (near[0] * 0.85, near[1] * 0.85, near[2] - 0.2),
        "axis0": (1.0, 0.0, 0.0),
        "axis1": (0.0, 1.0, 0.0),
        "radii": (0.2, 0.15, 0.12),
    })
    return _assemble("loop0", positions, included, edges, node_regions,
                     region_levels=[0, 0], region_labels=["h", "l"],
                     categories=_LOOP_CATEGORIES, objects=objects, one_way=one_way)


# ---------------------------------------------------------------------------
# stairs0
# ---------------------------------------------------------------------------

_STAIRS_EDGE_HEADINGS_DEG = [
    96, 104, 117, 108, 95, 88, 97, 99, 101, 113, 126,
    135, 124, 111, 99, 92, 85, 73, 62, 55, 63,
]
_STAIRS_NODE_Z = (
    [1.45] * 8 + [2.55, 3.65] + [3.65] * 6 + [2.70] * 6
)
_STAIRS_CATEGORIES = [
    "painting", "bookshelf", "lamp", "sofa", "chest of drawers", "television",
    "mirror", "cabinet", "refrigerator", "bench", "desk", "towel", "wall",
]


def stairs_scene() -> FixtureScene:
    step = 1.78
    headings = [math.radians(d + 0.37) for d in _STAIRS_EDGE_HEADINGS_DEG]
    positions = [(0.0, 0.0, _STAIRS_NODE_Z[0])]
    for k, h in enumerate(headings):
        x, y, _ = positions[-1]
        ux, uy = _heading_vec(h)
        positions.append((x + step * ux, y + step * uy, _STAIRS_NODE_Z[k + 1]))
    n = len(positions)
    included = [True] * n
    edges = [(i, i + 1) for i in range(n - 1)]

    def region_of(i: int) -> int:
        if i <= 7:
            return 0
        if i == 8:
            return 1
        if i <= 15:
            return 2
        return 3

    node_regions = [region_of(i) for i in range(n)]

    objects = []
    for j, node in enumerate(range(1, n, 2)):  # nodes 1, 3, ..., 21
        a = positions[node - 1]
        b = positions[node]
        side = 1 if j % 2 == 0 else -1
        objects.append(_edge_object(j, node_regions[node], j, a, b, side, 1.15, -0.05,
                                    (0.5, 0.42, 0.3 + 0.04 * (j % 2))))
    for idx, (node, side) in enumerate(((0, -1), (20, 1))):
        a, b = positions[node], positions[node + 1]
        objects.append(_edge_object(11 + idx, node_regions[node], 11, a, b, side,
                                    1.2, 0.0, (0.45, 0.3, 0.25)))
    a, b = positions[10], positions[11]
    objects.append(_edge_object(13, node_regions[10], 12, a, b, 1, 1.3, 0.0,
                                (1.8, 0.12, 1.2)))
    return _assemble("stairs0", positions, included, edges, node_regions,
                     region_levels=[0, 0, 1, 1], region_labels=["a", "s", "b", "c"],
                     categories=_STAIRS_CATEGORIES, objects=objects)


# ---------------------------------------------------------------------------
# hub0
# ---------------------------------------------------------------------------

_HUB_SPOKE_HEADINGS = (0.31, 2.42, 4.49)
_HUB_CATEGORIES = [
    "piano", "fireplace", "aquarium",
    "bed", "wardrobe", "nightstand",
    "toilet", "sink", "bathtub",
    "television", "bookshelf", "cushion",
]
_HUB_ANCHORS = (  # (heading offset, distance, z, radii) per spoke
    (0.14, 2.05, 1.44, (0.72, 0.48, 0.40)),
    (-0.12, 2.10, 1.47, (0.75, 0.50, 0.42)),
    (0.155, 1.95, 1.42, (0.60, 0.50, 0.38)),
)


def hub_scene() -> FixtureScene:
    hub = (0.0, 0.0, 1.5)
    positions = [hub]
    spokes: list[list[int]] = []
    for s, base in enumerate(_HUB_SPOKE_HEADINGS):
        nodes = []
        x, y, _ = hub
        phase = 0.3 + 0.8 * s
        for k in range(1, 8):
            heading = base + 0.17 * math.sin(0.8 * k + phase)
            ux, uy = _heading_vec(heading)
            x, y = x + 1.76 * ux, y + 1.76 * uy
            nodes.append(len(positions))
            positions.append((x, y, 1.5 + 0.03 * math.sin(k + phase)))
        spokes.append(nodes)
    n = len(positions)
    included = [True] * n
    edges = []
    for nodes in spokes:
        edges.append((0, nodes[0]))
        edges.extend((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
    node_regions = [0] + [1 + s for s in range(3) for _ in range(7)]

    objects = []
    for s, (offset, dist, z, radii) in enumerate(_HUB_ANCHORS):
        heading = _HUB_SPOKE_HEADINGS[s] + offset
        ux, uy = _heading_vec(heading)
        objects.append({
            "index": s,
            "region": 0,
            "category": s,
            "center": (hub[0] + dist * ux, hub[1] + dist * uy, z),
            "axis0": (uy, -ux, 0.0),
            "axis1": (ux, uy, 0.0),
            "radii": radii,
        })
    idx = 3
    for s, nodes in enumerate(spokes):
        for j, node in enumerate((nodes[1], nodes[3], nodes[5])):
            a = positions[node - 1]
            b = positions[node]
            side = 1 if (s + j) % 2 == 0 else -1
            objects.append(_edge_object(idx, 1 + s, idx, a, b, side, 1.18, -0.03,
                                        (0.52, 0.4, 0.3)))
            idx += 1
    return _assemble("hub0", positions, included, edges, node_regions,
                     region_levels=[0, 0, 0, 0], region_labels=["x", "a", "b", "c"],
                     categories=_HUB_CATEGORIES, objects=objects)


def all_scenes() -> list[FixtureScene]:
    return [loop_scene(), stairs_scene(), hub_scene()]


def write_scene_files(fixture: FixtureScene, directory: str) -> tuple[str, str]:
    """Write <name>.house and <name>_connectivity.json; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    house_path = os.path.join(directory, f"{fixture.name}.house")
    conn_path = os.path.join(directory, f"{fixture.name}_connectivity.json")
    with open(house_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(fixture.house_text)
    with open(conn_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(fixture.connectivity_text)
    return house_path, conn_path


# ---------------------------------------------------------------------------
# Small handwritten scene and malformed variants
# ---------------------------------------------------------------------------

TINY_HOUSE = """\
H tiny tiny 0 4 0 0 0 3 2 2 0 1 0 0 0 0 0
L 0 2 0 0.000000 0.000000 0.000000 -5.000000 -5.000000 0.000000 5.000000 5.000000 3.000000 0 0 0 0 0
R 0 0 0 0 b 0.000000 0.000000 0.000000 -5.000000 -5.000000 0.000000 0.000000 5.000000 3.000000 0 0 0 0 0
R 1 0 0 0 h 2.000000 0.000000 0.000000 0.000000 -5.000000 0.000000 5.000000 5.000000 3.000000 0 0 0 0 0
C 0 0 king_bed 7 bed 0 0 0 0 0
C 1 1 coffee_table 5 table 0 0 0 0 0
P p000 0 0 0 -1.000000 0.000000 1.500000 0 0 0 0 0
P p001 1 0 0 -2.500000 1.000000 1.500000 0 0 0 0 0
P p002 2 1 0 2.000000 0.500000 1.500000 0 0 0 0 0
P p003 3 -1 0 4.000000 -1.000000 1.500000 0 0 0 0 0
O 0 0 0 -1.500000 1.200000 0.600000 1.000000 0.000000 0.000000 0.000000 1.000000 0.000000 1.000000 0.800000 0.500000 0 0 0 0 0 0 0 0
O 1 1 1 2.500000 1.500000 0.400000 0.707107 0.707107 0.000000 -0.707107 0.707107 0.000000 0.600000 0.500000 0.300000 0 0 0 0 0 0 0 0
O 2 -1 0 3.900000 -0.800000 0.500000 0.000000 1.000000 0.000000 1.000000 0.000000 0.000000 0.900000 0.700000 0.400000 0 0 0 0 0 0 0 0
"""


def _mutate_line(text: str, line_no: int, fn) -> str:
    """``text`` with line ``line_no`` replaced by ``fn`` of it. Lines end at
    LF only, as ``numbered_lines`` numbers them."""
    lines = text.split("\n")
    lines[line_no - 1] = fn(lines[line_no - 1])
    return "\n".join(lines)


def _set_token(line: str, position: int, value: str) -> str:
    tokens = line.split()
    tokens[position] = value
    return " ".join(tokens)


def malformed_house_cases() -> list[tuple[str, str, int]]:
    """(label, text, line number expected in the parse error) triples."""
    base = TINY_HOUSE
    cases = [
        ("header-token-count",
         _mutate_line(base, 1, lambda s: " ".join(s.split()[:-1])), 1),
        ("level-bad-number",
         _mutate_line(base, 2, lambda s: _set_token(s, 4, "q0.0")), 2),
        ("region-token-count",
         _mutate_line(base, 3, lambda s: s + " 7"), 3),
        ("category-bad-integer",
         _mutate_line(base, 5, lambda s: _set_token(s, 1, "zero")), 5),
        ("panorama-token-count",
         _mutate_line(base, 7, lambda s: " ".join(s.split()[:-1])), 7),
        ("object-bad-number",
         _mutate_line(base, 11, lambda s: _set_token(s, 4, "abc")), 11),
        ("unknown-record-type", base + "X 1 2 3\n", 14),
        ("axis-not-unit",
         _mutate_line(base, 12, lambda s: _set_token(s, 7, "2.000000")), 12),
        ("negative-radius",
         _mutate_line(base, 13, lambda s: _set_token(s, 14, "-0.700000")), 13),
        ("duplicate-object-index",
         _mutate_line(base, 13, lambda s: _set_token(s, 1, "0")), 13),
    ]
    return cases


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/scenes.py DIRECTORY")
    for scene in all_scenes():
        write_scene_files(scene, sys.argv[1])
