"""Seeded synthetic inputs: Matterport-style scans and R2R-shaped datasets.

Everything here draws from its own ``random.Random`` streams and imports no
navscribe code, so a change to the program can never change the inputs the
benchmark feeds it. The same seed always gives the same bytes.

A scan is a few storeys of rooms laid on a jittered 2 m viewpoint grid.
Rooms are 3x3 blocks of grid cells; a random spanning tree over grid
neighbours keeps every storey connected, extra edges are added inside rooms
(often) and through walls (rarely), and stair edges join storeys across
regions. Objects fall uniformly inside the room of a random viewpoint, with
categories drawn from a skewed list that holds multi-word names and the
structural surfaces the saliency filter blacklists. Panorama (``P``)
positions in the ``.house`` text sit a few centimetres off the connectivity
poses, as two separately aligned files do in real scans.
"""
from __future__ import annotations

import json
import math
import os
import random

SPACING = 2.0          # grid pitch between neighbouring viewpoints, metres
JITTER = 0.35          # max offset of a viewpoint from its grid point
ROOM_CELLS = 3         # rooms are ROOM_CELLS x ROOM_CELLS grid blocks
STOREY = 3.0           # floor-to-floor height
CAMERA = 1.5           # camera height above the floor
PANO_OFFSET = 0.05     # max disagreement between P record and connectivity pose
STAIRS_PER_FLIGHT = 2  # stair edges between consecutive storeys

# (name, weight). Skewed so that a few categories are rare enough to be the
# only one of their kind in view; the first eight are blacklisted surfaces.
CATEGORIES = [
    ("wall", 9.0), ("floor", 6.0), ("ceiling", 5.0), ("column", 1.0),
    ("beam", 0.8), ("misc", 2.0), ("void", 0.5), ("unlabeled", 1.5),
    ("chair", 6.0), ("door", 5.0), ("picture frame", 4.0), ("cabinet", 4.0),
    ("cushion", 3.5), ("table", 3.5), ("window", 3.0), ("lamp", 3.0),
    ("sofa", 2.5), ("bed", 2.0), ("curtain", 2.0), ("shelving", 2.0),
    ("coffee table", 1.6), ("kitchen counter", 1.4), ("potted plant", 1.3),
    ("mirror", 1.2), ("towel", 1.1), ("sink", 1.0), ("tv stand", 0.9),
    ("chest of drawers", 0.8), ("toilet", 0.7), ("bath tub", 0.6),
    ("fireplace", 0.5), ("office chair", 0.45), ("dining table", 0.4),
    ("refrigerator", 0.35), ("piano", 0.3), ("washing machine", 0.25),
    ("grandfather clock", 0.2), ("exercise bike", 0.18), ("pool table", 0.15),
    ("stuffed animal", 0.12), ("fish tank", 0.1), ("shoe rack", 0.1),
]
BLACKLIST = frozenset(name for name, _ in CATEGORIES[:8])
ROOM_LABELS = "abdefhiklot"   # MP3D region letters: bathroom, bedroom, ...


def _f(x: float) -> str:
    return format(x, ".6f")


def _r6(x: float) -> float:
    """The value a reader gets back from the 6-decimal text."""
    return float(_f(x))


def _vec(v) -> str:
    return " ".join(_f(c) for c in v)


class _Components:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def make_scan(scan_id: str, seed: str, n_viewpoints: int, n_objects: int,
              n_categories: int, n_levels: int) -> dict:
    """Build one scan. Returns the two file texts plus the ground truth
    the oracle checks against: rounded positions, edges and counts."""
    if not 1 <= n_categories <= len(CATEGORIES):
        raise ValueError(f"n_categories must be in 1..{len(CATEGORIES)}")
    rng = random.Random(f"scan:{seed}:{scan_id}")
    ids: list[str] = []
    while len(ids) < n_viewpoints:
        vid = format(rng.getrandbits(64), "016x")
        if vid not in ids:
            ids.append(vid)

    # Viewpoints: row-major over each storey's grid.
    per_level = [n_viewpoints // n_levels + (1 if lv < n_viewpoints % n_levels else 0)
                 for lv in range(n_levels)]
    cols = max(3, round(math.sqrt(max(per_level) * 1.6)))
    cells: list[tuple[int, int, int]] = []          # (level, row, col) per viewpoint
    for lv, count in enumerate(per_level):
        cells.extend((lv, k // cols, k % cols) for k in range(count))
    index_of = {cell: i for i, cell in enumerate(cells)}
    pose = []
    for lv, row, col in cells:
        pose.append((_r6(col * SPACING + rng.uniform(-JITTER, JITTER)),
                     _r6(row * SPACING + rng.uniform(-JITTER, JITTER)),
                     _r6(lv * STOREY + CAMERA + rng.uniform(-0.02, 0.02))))

    # Regions: one per occupied room block, numbered in viewpoint order.
    room_of_cell = {}
    region_of: list[int] = []
    for lv, row, col in cells:
        key = (lv, row // ROOM_CELLS, col // ROOM_CELLS)
        room_of_cell.setdefault(key, len(room_of_cell))
        region_of.append(room_of_cell[key])
    rooms = sorted(room_of_cell.items(), key=lambda kv: kv[1])

    # Edges inside each storey.
    grid_pairs, diagonal_pairs = [], []
    for i, (lv, row, col) in enumerate(cells):
        for dr, dc, bucket in ((0, 1, grid_pairs), (1, 0, grid_pairs),
                               (1, 1, diagonal_pairs), (1, -1, diagonal_pairs)):
            j = index_of.get((lv, row + dr, col + dc))
            if j is not None:
                bucket.append((i, j))
    rng.shuffle(grid_pairs)
    comps = _Components(n_viewpoints)
    edges: set[tuple[int, int]] = set()
    for i, j in grid_pairs:
        if comps.union(i, j):
            edges.add((i, j))
    for i, j in grid_pairs:
        same_room = region_of[i] == region_of[j]
        if rng.random() < (0.7 if same_room else 0.1):
            edges.add((i, j))
    for i, j in diagonal_pairs:
        if region_of[i] == region_of[j] and rng.random() < 0.2:
            edges.add((i, j))

    # Stairs: from a cell on one storey to the next cell over, one storey up.
    for lv in range(n_levels - 1):
        flights = [(i, index_of[(lv + 1, row, col + 1)])
                   for i, (l0, row, col) in enumerate(cells)
                   if l0 == lv and (lv + 1, row, col + 1) in index_of]
        for i, j in rng.sample(flights, min(STAIRS_PER_FLIGHT, len(flights))):
            edges.add((i, j))

    # Objects inside the room of a random viewpoint.
    names = CATEGORIES[:n_categories]
    weights = [w for _, w in names]
    room_box = {}
    for (lv, rr, rc), region in rooms:
        members = [i for i in range(n_viewpoints) if region_of[i] == region]
        xs = [pose[i][0] for i in members]
        ys = [pose[i][1] for i in members]
        room_box[region] = ((min(xs) - 1.0, min(ys) - 1.0, lv * STOREY),
                            (max(xs) + 1.0, max(ys) + 1.0, (lv + 1) * STOREY))
    objects = []
    for k in range(n_objects):
        region = region_of[rng.randrange(n_viewpoints)]
        lo, hi = room_box[region]
        center = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]),
                  lo[2] + rng.uniform(0.1, 2.4))
        theta = rng.uniform(0.0, math.pi)
        axis0 = (math.cos(theta), math.sin(theta), 0.0)
        axis1 = (-math.sin(theta), math.cos(theta), 0.0)
        radii = (rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9))
        category = rng.choices(range(n_categories), weights)[0]
        objects.append(f"O {k} {region} {category} {_vec(center)} {_vec(axis0)} "
                       f"{_vec(axis1)} {_vec(radii)} 0 0 0 0 0 0 0 0")

    lines = [f"H {scan_id} {scan_id} 0 {n_viewpoints} 0 0 0 {n_objects} "
             f"{n_categories} {len(rooms)} 0 {n_levels} 0 0 0 0 0"]
    for lv in range(n_levels):
        boxes = [room_box[r] for (l0, _, _), r in rooms if l0 == lv]
        lo = tuple(min(b[0][a] for b in boxes) for a in range(3))
        hi = tuple(max(b[1][a] for b in boxes) for a in range(3))
        mid = tuple((lo[a] + hi[a]) / 2 for a in range(3))
        lines.append(f"L {lv} {len(boxes)} 0 {_vec(mid)} {_vec(lo)} {_vec(hi)} 0 0 0 0 0")
    for (lv, _, _), region in rooms:
        lo, hi = room_box[region]
        mid = tuple((lo[a] + hi[a]) / 2 for a in range(3))
        label = rng.choice(ROOM_LABELS)
        lines.append(f"R {region} {lv} 0 0 {label} {_vec(mid)} {_vec(lo)} {_vec(hi)} 0 0 0 0 0")
    for k, (name, _) in enumerate(names):
        token = name.replace(" ", "_")
        lines.append(f"C {k} {k} {token} {k % 40 + 1} {token} 0 0 0 0 0")
    for i, vid in enumerate(ids):
        p = tuple(c + rng.uniform(-PANO_OFFSET, PANO_OFFSET) for c in pose[i])
        lines.append(f"P {vid} {i} {region_of[i]} 0 {_vec(p)} 0 0 0 0 0")
    lines.extend(objects)
    house = "\n".join(lines) + "\n"

    unobstructed = [[False] * n_viewpoints for _ in range(n_viewpoints)]
    for i, j in edges:
        unobstructed[i][j] = unobstructed[j][i] = True
    connectivity = json.dumps([
        {"image_id": vid,
         "pose": [1.0, 0.0, 0.0, pose[i][0], 0.0, 1.0, 0.0, pose[i][1],
                  0.0, 0.0, 1.0, pose[i][2], 0.0, 0.0, 0.0, 1.0],
         "included": True,
         "unobstructed": unobstructed[i],
         "height": CAMERA}
        for i, vid in enumerate(ids)
    ]) + "\n"

    return {
        "house": house,
        "connectivity": connectivity,
        "truth": {
            "scan_id": scan_id,
            "positions": {vid: pose[i] for i, vid in enumerate(ids)},
            "edges": sorted(sorted((ids[i], ids[j])) for i, j in edges),
            "counts": {"panoramas": n_viewpoints, "objects": n_objects,
                       "categories": n_categories, "regions": len(rooms)},
            "head_nouns": sorted({name.split()[-1] for name, _ in names
                                  if name not in BLACKLIST}),
        },
    }


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

INSTRUCTIONS_PER_RECORD = 3
_SYLLABLES = ["zor", "vek", "quil", "brum", "tash", "plo", "gri", "mux",
              "dov", "yen", "skar", "fli"]


def _vocabulary() -> list[str]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vocab.txt")
    with open(path, encoding="utf-8") as fh:
        return [w for w in (line.strip() for line in fh) if w and not w.startswith("#")]


def make_dataset(seed: str, n_records: int) -> str:
    """R2R-shaped dataset JSON whose text mixes lexicon words, invented
    words the lexicon does not know, capitals and punctuation."""
    rng = random.Random(f"dataset:{seed}")
    vocab = _vocabulary()
    known = set(vocab)
    invented = sorted({a + b for a in _SYLLABLES for b in _SYLLABLES} - known)
    scans = [format(rng.getrandbits(48), "012x") for _ in range(60)]

    def sentence() -> str:
        words = []
        for _ in range(rng.randint(4, 14)):
            word = rng.choice(invented) if rng.random() < 0.12 else rng.choice(vocab)
            roll = rng.random()
            if roll < 0.10:
                word += ","
            elif roll < 0.12:
                word = f'"{word}"'
            elif roll < 0.14:
                word += "'s"
            words.append(word)
        words[0] = words[0][0].upper() + words[0][1:]
        return " ".join(words) + rng.choice(".....!?;")

    records = []
    for path_id in range(n_records):
        hops = rng.randint(4, 7)
        records.append({
            "path_id": path_id,
            "scan": rng.choice(scans),
            "heading": rng.randrange(12) * math.pi / 6.0,
            "path": [format(rng.getrandbits(64), "016x") for _ in range(hops + 1)],
            "instructions": [" ".join(sentence() for _ in range(rng.randint(1, 3)))
                             for _ in range(INSTRUCTIONS_PER_RECORD)],
            "distance": round(rng.uniform(5.0, 20.0), 4),
        })
    return json.dumps(records, indent=1) + "\n"
