"""Parse indoor-scene metadata files and serialize scenes canonically.

The accepted text format is line oriented; every line is one record and the
first line must be the header. Records (tokens separated by whitespace):

    H <name> <label> 0 <#panoramas> 0 0 0 <#objects> <#categories> <#regions> 0 <#levels> 0 0 0 0 0
    L <level_index> <#regions> <label> <px> <py> <pz> <xlo> <ylo> <zlo> <xhi> <yhi> <zhi> 0 0 0 0 0
    R <region_index> <level_index> 0 0 <label_char> <px> <py> <pz> <xlo> <ylo> <zlo> <xhi> <yhi> <zhi> 0 0 0 0 0
    C <category_index> <mapping_index> <name> <mpcat40_index> <mpcat40_name> 0 0 0 0 0
    P <name> <panorama_index> <region_index> 0 <px> <py> <pz> 0 0 0 0 0
    O <object_index> <region_index> <category_index> <px> <py> <pz> <a0x> <a0y> <a0z> <a1x> <a1y> <a1z> <r0> <r1> <r2> 0 0 0 0 0 0 0 0

Padding tokens must be the literal ``0``. Multiword names are stored with
underscores and come back with single spaces. Record counts must match the
header and every cross index must resolve; violating files are rejected, not
repaired. Parsing ignores record order: lists come back sorted by index.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import jsonio
from .jsonio import JsonSchemaError as SceneJsonError  # the scene reader's name for it
from .view_geometry import Vec3

# Tolerances for oriented-box sanity: axis norms and their mutual dot product.
AXIS_TOL = 1e-3


class HouseParseError(ValueError):
    """Malformed or inconsistent scene metadata text."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Category:
    index: int
    mapping_index: int
    name: str
    mpcat40_index: int
    mpcat40_name: str


@dataclass(frozen=True)
class Region:
    index: int
    level_index: int
    label: str
    position: Vec3
    bbox_lo: Vec3
    bbox_hi: Vec3


@dataclass(frozen=True)
class SceneObject:
    index: int
    region_index: int
    category_index: int
    center: Vec3
    axis0: Vec3
    axis1: Vec3
    radii: Vec3

    def axis2(self) -> Vec3:
        """Third box axis, the cross product of axis0 and axis1."""
        a, b = self.axis0, self.axis1
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )


@dataclass(frozen=True)
class Panorama:
    name: str
    index: int
    region_index: int
    position: Vec3


@dataclass(frozen=True)
class SceneModel:
    scan_id: str
    categories: tuple[Category, ...]
    regions: tuple[Region, ...]
    objects: tuple[SceneObject, ...]
    panoramas: tuple[Panorama, ...]


# ---------------------------------------------------------------------------
# House text parsing
# ---------------------------------------------------------------------------

_TOKEN_COUNTS = {"H": 18, "L": 18, "R": 20, "C": 11, "P": 13, "O": 24}


def _int_token(tok: str, line: int, kind: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise HouseParseError(f"{kind} record: invalid integer {tok!r} for {what}", line) from None


def _float_token(tok: str, line: int, kind: str, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise HouseParseError(f"{kind} record: invalid number {tok!r} for {what}", line) from None
    if not math.isfinite(value):
        raise HouseParseError(f"{kind} record: non-finite number for {what}", line)
    return value


def _vec3(tokens: list[str], start: int, line: int, kind: str, what: str) -> Vec3:
    return (
        _float_token(tokens[start], line, kind, what),
        _float_token(tokens[start + 1], line, kind, what),
        _float_token(tokens[start + 2], line, kind, what),
    )


def _require_zeros(tokens: list[str], positions: Iterable[int], line: int, kind: str) -> None:
    for pos in positions:
        if tokens[pos] != "0":
            raise HouseParseError(
                f"{kind} record: expected literal '0' padding at token {pos}, found {tokens[pos]!r}",
                line,
            )


def _clean_name(token: str, line: int, kind: str, *, lower: bool) -> str:
    parts = [p for p in token.split("_") if p]
    if not parts:
        raise HouseParseError(f"{kind} record: empty name {token!r}", line)
    name = " ".join(parts)
    return name.lower() if lower else name


def parse_house(text: str) -> SceneModel:
    """Parse scene metadata text into a validated SceneModel.

    Raises HouseParseError naming the 1-based line number for malformed
    lines, count mismatches against the header, dangling cross indices and
    geometric invariant violations.
    """
    header: tuple[int, ...] | None = None
    scan_id = ""
    n_levels_seen = 0
    categories: list[tuple[int, Category]] = []
    regions: list[tuple[int, Region]] = []
    objects: list[tuple[int, SceneObject]] = []
    panoramas: list[tuple[int, Panorama]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        tokens = raw.split()
        kind = tokens[0]
        if header is None and kind != "H":
            raise HouseParseError("expected the H header record first", line_no)
        if kind not in _TOKEN_COUNTS:
            raise HouseParseError(f"unknown record type {kind!r}", line_no)
        expected = _TOKEN_COUNTS[kind]
        if len(tokens) != expected:
            raise HouseParseError(
                f"{kind} record: expected {expected} tokens, found {len(tokens)}", line_no
            )

        if kind == "H":
            if header is not None:
                raise HouseParseError("duplicate H header record", line_no)
            _require_zeros(tokens, range(5, 8), line_no, "H")
            _require_zeros(tokens, (3, 11), line_no, "H")
            _require_zeros(tokens, range(13, 18), line_no, "H")
            scan_id = tokens[1]
            counts = tuple(
                _int_token(tokens[pos], line_no, "H", what)
                for pos, what in ((4, "panorama count"), (8, "object count"),
                                  (9, "category count"), (10, "region count"),
                                  (12, "level count"))
            )
            if any(c < 0 for c in counts):
                raise HouseParseError("H record: negative count", line_no)
            header = counts
        elif kind == "L":
            _int_token(tokens[1], line_no, "L", "level index")
            _int_token(tokens[2], line_no, "L", "region count")
            _vec3(tokens, 4, line_no, "L", "position")
            _vec3(tokens, 7, line_no, "L", "bbox low")
            _vec3(tokens, 10, line_no, "L", "bbox high")
            _require_zeros(tokens, range(13, 18), line_no, "L")
            n_levels_seen += 1
        elif kind == "R":
            _require_zeros(tokens, range(3, 5), line_no, "R")
            _require_zeros(tokens, range(15, 20), line_no, "R")
            label = tokens[5]
            if len(label) != 1:
                raise HouseParseError(
                    f"R record: label must be a single character, found {label!r}", line_no
                )
            region = Region(
                index=_int_token(tokens[1], line_no, "R", "region index"),
                level_index=_int_token(tokens[2], line_no, "R", "level index"),
                label=label,
                position=_vec3(tokens, 6, line_no, "R", "position"),
                bbox_lo=_vec3(tokens, 9, line_no, "R", "bbox low"),
                bbox_hi=_vec3(tokens, 12, line_no, "R", "bbox high"),
            )
            regions.append((line_no, region))
        elif kind == "C":
            _require_zeros(tokens, range(6, 11), line_no, "C")
            category = Category(
                index=_int_token(tokens[1], line_no, "C", "category index"),
                mapping_index=_int_token(tokens[2], line_no, "C", "mapping index"),
                name=_clean_name(tokens[3], line_no, "C", lower=True),
                mpcat40_index=_int_token(tokens[4], line_no, "C", "mpcat40 index"),
                mpcat40_name=_clean_name(tokens[5], line_no, "C", lower=False),
            )
            categories.append((line_no, category))
        elif kind == "P":
            _require_zeros(tokens, (4,), line_no, "P")
            _require_zeros(tokens, range(8, 13), line_no, "P")
            panorama = Panorama(
                name=tokens[1],
                index=_int_token(tokens[2], line_no, "P", "panorama index"),
                region_index=_int_token(tokens[3], line_no, "P", "region index"),
                position=_vec3(tokens, 5, line_no, "P", "position"),
            )
            panoramas.append((line_no, panorama))
        else:  # O
            _require_zeros(tokens, range(16, 24), line_no, "O")
            obj = SceneObject(
                index=_int_token(tokens[1], line_no, "O", "object index"),
                region_index=_int_token(tokens[2], line_no, "O", "region index"),
                category_index=_int_token(tokens[3], line_no, "O", "category index"),
                center=_vec3(tokens, 4, line_no, "O", "center"),
                axis0=_vec3(tokens, 7, line_no, "O", "axis0"),
                axis1=_vec3(tokens, 10, line_no, "O", "axis1"),
                radii=_vec3(tokens, 13, line_no, "O", "radii"),
            )
            objects.append((line_no, obj))

    if header is None:
        raise HouseParseError("empty document: missing H header record", 1)

    n_panoramas, n_objects, n_categories, n_regions, n_levels = header
    for what, declared, found in (
        ("panorama", n_panoramas, len(panoramas)),
        ("object", n_objects, len(objects)),
        ("category", n_categories, len(categories)),
        ("region", n_regions, len(regions)),
        ("level", n_levels, n_levels_seen),
    ):
        if declared != found:
            raise HouseParseError(
                f"{what} count mismatch: header declares {declared}, found {found}"
            )

    sections = [[r for _, r in numbered] for numbered in (categories, regions, objects, panoramas)]
    _validate_records(
        *sections,
        n_levels,
        lambda kind, pos, msg: HouseParseError(
            f"{kind} record: {msg}",
            {"category": categories, "region": regions, "object": objects,
             "panorama": panoramas}[kind][pos][0],
        ),
    )

    return _index_sorted(SceneModel(scan_id, *sections))


def _index_sorted(scene: SceneModel) -> SceneModel:
    """The same scene with each record list a tuple sorted by index."""
    sections = (scene.categories, scene.regions, scene.objects, scene.panoramas)
    return SceneModel(scene.scan_id, *(tuple(sorted(s, key=lambda r: r.index)) for s in sections))


def _norm(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _validate_records(categories, regions, objects, panoramas, n_levels, err) -> None:
    """Semantic checks shared by the text parser and the JSON reader.

    ``err(kind, position, message)`` must build the exception to raise, so
    each caller can attach its own location info (line number or JSON path).
    ``n_levels`` of None skips the level cross-index upper bound (the JSON
    schema does not carry levels).
    """
    n_categories, n_regions = len(categories), len(regions)

    seen: set[int] = set()
    for pos, cat in enumerate(categories):
        if not 0 <= cat.index < n_categories:
            raise err("category", pos, f"index {cat.index} out of range ({n_categories} categories)")
        if cat.index in seen:
            raise err("category", pos, f"duplicate index {cat.index}")
        seen.add(cat.index)
        if not cat.name.strip():
            raise err("category", pos, "empty name")
        # Crafted text splits clauses at ". " and reads a stop clause's
        # relation from its start, so such names would not parse back.
        if ". " in cat.name or cat.name.startswith(("left of the ", "right of the ")):
            raise err("category", pos, f"name {cat.name!r} would not parse back from crafted text")

    seen = set()
    for pos, region in enumerate(regions):
        if not 0 <= region.index < n_regions:
            raise err("region", pos, f"index {region.index} out of range ({n_regions} regions)")
        if region.index in seen:
            raise err("region", pos, f"duplicate index {region.index}")
        seen.add(region.index)
        if region.level_index < 0 or (n_levels is not None and region.level_index >= n_levels):
            raise err("region", pos, f"level index {region.level_index} does not resolve")
        for lo, hi in zip(region.bbox_lo, region.bbox_hi):
            if lo > hi:
                raise err("region", pos, "bbox low exceeds bbox high")

    seen = set()
    names: set[str] = set()
    for pos, pano in enumerate(panoramas):
        if not 0 <= pano.index < len(panoramas):
            raise err("panorama", pos, f"index {pano.index} out of range ({len(panoramas)} panoramas)")
        if pano.index in seen:
            raise err("panorama", pos, f"duplicate index {pano.index}")
        seen.add(pano.index)
        if pano.name in names:
            raise err("panorama", pos, f"duplicate name {pano.name!r}")
        names.add(pano.name)
        if pano.region_index < -1 or pano.region_index >= n_regions:
            raise err("panorama", pos, f"region index {pano.region_index} does not resolve")

    seen = set()
    for pos, obj in enumerate(objects):
        if not 0 <= obj.index < len(objects):
            raise err("object", pos, f"index {obj.index} out of range ({len(objects)} objects)")
        if obj.index in seen:
            raise err("object", pos, f"duplicate index {obj.index}")
        seen.add(obj.index)
        if obj.region_index < -1 or obj.region_index >= n_regions:
            raise err("object", pos, f"region index {obj.region_index} does not resolve")
        if not 0 <= obj.category_index < n_categories:
            raise err("object", pos, f"category index {obj.category_index} does not resolve")
        for axis_name, axis in (("axis0", obj.axis0), ("axis1", obj.axis1)):
            if abs(_norm(axis) - 1.0) > AXIS_TOL:
                raise err("object", pos, f"{axis_name} is not unit length (norm {_norm(axis):.6f})")
        if abs(_dot(obj.axis0, obj.axis1)) > AXIS_TOL:
            raise err("object", pos, "axis0 and axis1 are not orthogonal")
        if any(r < 0.0 for r in obj.radii):
            raise err("object", pos, f"negative radius in {obj.radii}")


# ---------------------------------------------------------------------------
# Category helpers
# ---------------------------------------------------------------------------


def category_name(scene: SceneModel, object_index: int) -> str:
    """Lowercase single-spaced category name of the given object."""
    if not 0 <= object_index < len(scene.objects):
        raise ValueError(
            f"object index {object_index} out of range ({len(scene.objects)} objects)"
        )
    obj = scene.objects[object_index]
    return " ".join(scene.categories[obj.category_index].name.split())


def head_noun(name: str) -> str:
    """Last whitespace-separated token of a category name."""
    tokens = name.split()
    if not tokens:
        raise ValueError("empty category name has no head noun")
    return tokens[-1]


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def write_scene_json(scene: SceneModel) -> str:
    """Serialize canonically: fields in declaration order, index-sorted lists,
    6-decimal numbers."""
    return jsonio.dumps(_index_sorted(scene))


_SCENE_SCHEMA = jsonio.record(
    SceneModel,
    scan_id=jsonio.string,
    categories=jsonio.array(jsonio.record(
        Category, index=jsonio.integer, mapping_index=jsonio.integer, name=jsonio.string,
        mpcat40_index=jsonio.integer, mpcat40_name=jsonio.string)),
    regions=jsonio.array(jsonio.record(
        Region, index=jsonio.integer, level_index=jsonio.integer, label=jsonio.string,
        position=jsonio.vec3, bbox_lo=jsonio.vec3, bbox_hi=jsonio.vec3)),
    objects=jsonio.array(jsonio.record(
        SceneObject, index=jsonio.integer, region_index=jsonio.integer,
        category_index=jsonio.integer, center=jsonio.vec3, axis0=jsonio.vec3,
        axis1=jsonio.vec3, radii=jsonio.vec3)),
    panoramas=jsonio.array(jsonio.record(
        Panorama, name=jsonio.string, index=jsonio.integer, region_index=jsonio.integer,
        position=jsonio.vec3)),
)


def read_scene_json(text: str) -> SceneModel:
    """Parse and validate a canonical scene JSON document."""
    scene = jsonio.load(text, _SCENE_SCHEMA)
    # Same canonical form as .house names, so the blacklist matches on both paths.
    for i, c in enumerate(scene.categories):
        if c.name != " ".join(c.name.lower().split()):
            raise SceneJsonError(f"category name {c.name!r} is not lowercase and "
                                 "single-spaced", f"$.categories[{i}].name")

    section_of = {"category": "categories", "region": "regions",
                  "object": "objects", "panorama": "panoramas"}
    _validate_records(
        scene.categories, scene.regions, scene.objects, scene.panoramas, None,
        lambda kind, pos, msg: SceneJsonError(msg, f"$.{section_of[kind]}[{pos}]"),
    )
    return _index_sorted(scene)
