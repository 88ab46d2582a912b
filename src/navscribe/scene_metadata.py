"""Parse indoor-scene metadata files and serialize scenes canonically.

The accepted text format is line oriented; every line is one record of
whitespace-separated tokens, and the first line must be the H header. The
record kinds are H (header with declared counts), L (level), R (region),
C (category), P (panorama) and O (object); ``_LAYOUTS`` states each kind's
tokens in order.

Padding tokens must be the literal ``0``. Multiword names are stored with
underscores and come back with single spaces. Record counts must match the
header and every cross index must resolve; violating files are rejected, not
repaired. Parsing ignores record order: lists come back sorted by index.

Both readers check first and locate only on failure. ``parse_house`` reads
the lines in one loop that states the line rules once and collects each
kind's records in batches. ``_convert`` converts a batch column by column,
with ``int`` and ``float`` over precomputed token positions, one padding
comparison and one ``math.isfinite`` sweep, and goes row by row with the
converters only when that refuses. Reading stops at the first fault; the
batches still pending are converted too, and the lowest faulty line is
raised. ``_validate_records`` states each scene rule once, as a sweep of
one column that walks it only when the sweep refuses, and raises the first
fault by kind, record and rule, with its line number or JSON path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import attrgetter, le, or_

from . import jsonio
from .jsonio import JsonSchemaError as SceneJsonError  # the scene reader's name for it
from .jsonio import _within
from .view_geometry import Vec3

# Tolerances for oriented-box sanity: axis norms and their mutual dot product.
AXIS_TOL = 1e-3


class LineError(ValueError):
    """Malformed line-oriented text (a .house file, a config, a lexicon),
    located by ``line_number`` when one line is at fault."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


HouseParseError = LineError  # the .house reader's name for it


def numbered_lines(text: str):
    """(1-based line number, line) pairs. Lines end at LF only, and one
    carriage return before it is dropped, so no other character such as
    U+0085 or U+2028 starts a line."""
    return enumerate((line.removesuffix("\r") for line in text.split("\n")), start=1)


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


# The record kind letter each declared count is checked against, in the
# order of the H line's counts.
_KIND_OF = {"panorama": "P", "object": "O", "category": "C", "region": "R", "level": "L"}


def _header(scan_id: str, label: str, *counts: int) -> tuple[str, dict[str, int]]:
    """The scan name and the record counts the H line declares, by name."""
    if min(counts) < 0:
        raise ValueError("negative count")
    return scan_id, dict(zip(_KIND_OF, counts))


# Converters: (tokens, start, name used in errors) -> value. A ValueError
# message is reported after the "<kind> record: " prefix.

def _raw(tokens: list[str], at: int, what: str) -> str:
    return tokens[at]


def _integer(tokens: list[str], at: int, what: str) -> int:
    try:
        return int(tokens[at])
    except ValueError:
        raise ValueError(f"invalid integer {tokens[at]!r} for {what}") from None


def _finite(tok: str, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ValueError(f"invalid number {tok!r} for {what}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number for {what}")
    return value


def _xyz(tokens: list[str], at: int, what: str) -> Vec3:
    return _finite(tokens[at], what), _finite(tokens[at + 1], what), _finite(tokens[at + 2], what)


def _char(tokens: list[str], at: int, what: str) -> str:
    if len(tokens[at]) != 1:
        raise ValueError(f"{what} must be a single character, found {tokens[at]!r}")
    return tokens[at]


def _name(tokens: list[str], at: int, what: str) -> str:
    """Underscore-joined words back as single-spaced text."""
    name = " ".join(p for p in tokens[at].split("_") if p)
    if not name:
        raise ValueError(f"empty {what} {tokens[at]!r}")
    return name


def _lower_name(tokens: list[str], at: int, what: str) -> str:
    return _name(tokens, at, what).lower()


def _compile(build, *layout):
    """(builder, token count, padding positions, fields with start positions)."""
    padding, fields, at = [], [], 1
    for entry in layout:
        if entry == 0:
            padding.append(at)
            at += 1
        else:
            fields.append((*entry, at))
            at += 3 if entry[1] is _xyz else 1
    return build, at, tuple(padding), tuple(fields)


# Each record kind's builder, then its tokens after the kind letter in
# order: a literal 0 is one padding token that must read "0", a field is
# (name used in errors, converter) and is passed to the builder in this
# order. L records are checked and counted; the scene model keeps no levels.
_LAYOUTS = {
    "H": _compile(
        _header, ("name", _raw), ("label", _raw), 0, ("panorama count", _integer), 0, 0, 0,
        ("object count", _integer), ("category count", _integer), ("region count", _integer),
        0, ("level count", _integer), 0, 0, 0, 0, 0),
    "L": _compile(
        lambda *fields: fields, ("level index", _integer), ("region count", _integer),
        ("label", _raw), ("position", _xyz), ("bbox low", _xyz), ("bbox high", _xyz),
        0, 0, 0, 0, 0),
    "R": _compile(
        Region, ("region index", _integer), ("level index", _integer), 0, 0,
        ("label", _char), ("position", _xyz), ("bbox low", _xyz), ("bbox high", _xyz),
        0, 0, 0, 0, 0),
    "C": _compile(
        Category, ("category index", _integer), ("mapping index", _integer),
        ("name", _lower_name), ("mpcat40 index", _integer), ("name", _name), 0, 0, 0, 0, 0),
    "P": _compile(
        Panorama, ("name", _raw), ("panorama index", _integer), ("region index", _integer), 0,
        ("position", _xyz), 0, 0, 0, 0, 0),
    "O": _compile(
        SceneObject, ("object index", _integer), ("region index", _integer),
        ("category index", _integer), ("center", _xyz), ("axis0", _xyz), ("axis1", _xyz),
        ("radii", _xyz), 0, 0, 0, 0, 0, 0, 0, 0),
}

# Records of one kind converted together at most; a bound on the token
# lists held at once.
_BATCH = 128


def parse_house(text: str) -> SceneModel:
    """Parse scene metadata text into a validated SceneModel.

    Raises HouseParseError naming the 1-based line number for malformed
    lines, dangling cross indices and geometric invariant violations; a
    count that disagrees with the header names the H line.
    """
    records: dict[str, list] = {kind: [] for kind in _LAYOUTS}
    lines: dict[str, list[int]] = {kind: [] for kind in _LAYOUTS}
    rows: dict[str, list[list[str]]] = {kind: [] for kind in _LAYOUTS}  # not yet converted
    fault = None
    # str.split drops the carriage return numbered_lines strips, so tokens
    # and line numbers are those of numbered_lines.
    for line_no, tokens in enumerate(map(str.split, text.split("\n")), start=1):
        if not tokens:
            continue
        kind = tokens[0]
        layout = _LAYOUTS.get(kind)
        if not lines["H"] and kind != "H":
            fault = HouseParseError("expected the H header record first", line_no)
        elif layout is None:
            fault = HouseParseError(f"unknown record type {kind!r}", line_no)
        elif len(tokens) != layout[1]:
            fault = HouseParseError(
                f"{kind} record: expected {layout[1]} tokens, found {len(tokens)}", line_no)
        elif kind == "H" and lines["H"]:
            fault = HouseParseError("duplicate H header record", line_no)
        else:
            pending = rows[kind]
            pending.append(tokens)
            lines[kind].append(line_no)
            if len(pending) < _BATCH:
                continue
            fault = _convert(kind, pending, lines[kind], records[kind])
            pending.clear()
        if fault is not None:
            break
    # The batches still pending hold only lines before any fault found.
    faults = [_convert(kind, pending, lines[kind], records[kind])
              for kind, pending in rows.items() if pending]
    fault = min(filter(None, [fault, *faults]), key=attrgetter("line_number"), default=None)
    if fault is not None:
        raise fault
    if not lines["H"]:
        raise HouseParseError("empty document: missing H header record", 1)

    [(scan_id, counts)] = records["H"]
    for what, declared in counts.items():
        found = len(records[_KIND_OF[what]])
        if declared != found:
            raise HouseParseError(
                f"{what} count mismatch: header declares {declared}, found {found}", lines["H"][0]
            )

    sections = [records[kind] for kind in "CROP"]
    _validate_records(
        *sections,
        counts["level"],
        lambda kind, pos, msg: HouseParseError(f"{kind} record: {msg}",
                                               lines[_KIND_OF[kind]][pos]),
    )

    return _index_sorted(SceneModel(scan_id, *sections))


def _convert(kind: str, rows: list[list[str]], lines: list[int],
             out: list) -> HouseParseError | None:
    """Append the records of ``rows``, token lists of ``kind`` whose line
    numbers end ``lines``, to ``out``; the error of the first malformed one,
    if any. Columns of tokens go through ``int`` and ``float``, the builtins
    ``_integer`` and ``_finite`` call, and one ``math.isfinite`` sweep. Only
    if that refuses are the rows converted one by one, to find the fault."""
    build, _, padding, fields = _LAYOUTS[kind]
    columns = list(zip(*rows))
    zeros = ("0",) * len(rows)
    values, floats = [], []
    try:
        if all(columns[at] == zeros for at in padding):
            for what, convert, at in fields:
                if convert is _integer:
                    values.append(map(int, columns[at]))
                elif convert is _xyz:
                    xyz = [list(map(float, columns[at + k])) for k in range(3)]
                    floats += xyz
                    values.append(zip(*xyz))
                elif convert is _raw:
                    values.append(columns[at])
                else:  # names and labels, of the few C and R records: one call each
                    values.append([convert(tokens, at, what) for tokens in rows])
            if all(map(math.isfinite, chain.from_iterable(floats))):
                out += list(map(build, *values))  # all or none: a builder may refuse
                return None
    except ValueError:
        pass
    for tokens, line_no in zip(rows, lines[-len(rows):]):
        try:  # padding first, then the fields in token order
            for at in padding:
                if tokens[at] != "0":
                    raise ValueError(
                        f"expected literal '0' padding at token {at}, found {tokens[at]!r}")
            out.append(build(*[convert(tokens, at, what) for what, convert, at in fields]))
        except ValueError as exc:
            return HouseParseError(f"{kind} record: {exc}", line_no)
    return None


def _index_sorted(scene: SceneModel) -> SceneModel:
    """The same scene with each record list a tuple sorted by index."""
    sections = (scene.categories, scene.regions, scene.objects, scene.panoramas)
    return SceneModel(scene.scan_id, *(tuple(sorted(s, key=_INDEX)) for s in sections))


_INDEX = attrgetter("index")


def _norm(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# Each record kind's list name, in errors and in the scene JSON.
_SECTION_OF = {"category": "categories", "region": "regions",
               "object": "objects", "panorama": "panoramas"}


def _validate_records(categories, regions, objects, panoramas, n_levels, err) -> None:
    """Semantic checks shared by the text parser and the JSON reader.

    ``err(kind, position, message)`` must build the exception to raise, so
    each caller can attach its own location info (line number or JSON path).
    ``n_levels`` of None skips the level cross-index upper bound (the JSON
    schema does not carry levels).

    Each rule is stated once: a C-level sweep of one column gives the first
    record that breaks it, or None, and the message is built from that
    record. The error raised is from the first kind with a fault, in the
    order below, at its lowest faulty position, and from the first of its
    rules there: index range, duplicate index, then the kind's own.
    """
    names = _column(categories, "name")
    axes0, axes1 = _column(objects, "axis0"), _column(objects, "axis1")
    top_region = len(regions) - 1
    for kind, records, own_rules in (
        ("category", categories, [
            (_outside(list(map(len, map(str.strip, names))), 1, math.inf),
             lambda cat: "empty name"),
            # Crafted text splits clauses at ". " and reads a stop clause's relation
            # from its start, so names flagged True (1) here would not parse back.
            (_outside(list(map(or_, map(str.__contains__, names, repeat(". ")), map(
                str.startswith, names, repeat(("left of the ", "right of the "))))), 0, 0),
             lambda cat: f"name {cat.name!r} would not parse back from crafted text"),
        ]),
        ("region", regions, [
            (_outside(_column(regions, "level_index"), 0,
                      math.inf if n_levels is None else n_levels - 1),
             lambda region: f"level index {region.level_index} does not resolve"),
            (_outside(list(map(le, chain.from_iterable(_column(regions, "bbox_lo")),  # True: 1
                               chain.from_iterable(_column(regions, "bbox_hi")))), 1, 1, per=3),
             lambda region: "bbox low exceeds bbox high"),
        ]),
        ("panorama", panoramas, [
            (_repeated(_column(panoramas, "name")),
             lambda pano: f"duplicate name {pano.name!r}"),
            (_outside(_column(panoramas, "region_index"), -1, top_region),
             lambda pano: f"region index {pano.region_index} does not resolve"),
        ]),
        ("object", objects, [
            (_outside(_column(objects, "region_index"), -1, top_region),
             lambda obj: f"region index {obj.region_index} does not resolve"),
            (_outside(_column(objects, "category_index"), 0, len(categories) - 1),
             lambda obj: f"category index {obj.category_index} does not resolve"),
            (_not_unit(axes0),
             lambda obj: f"axis0 is not unit length (norm {_norm(obj.axis0):.6f})"),
            (_not_unit(axes1),
             lambda obj: f"axis1 is not unit length (norm {_norm(obj.axis1):.6f})"),
            (_outside(list(map(abs, map(_dot, axes0, axes1))), 0.0, AXIS_TOL),
             lambda obj: "axis0 and axis1 are not orthogonal"),
            (_outside(list(chain.from_iterable(_column(objects, "radii"))), 0.0, math.inf, per=3),
             lambda obj: f"negative radius in {obj.radii}"),
        ]),
    ):
        indices, n = _column(records, "index"), len(records)
        rules = [
            (_outside(indices, 0, n - 1),
             lambda rec: f"index {rec.index} out of range ({n} {_SECTION_OF[kind]})"),
            (_repeated(indices), lambda rec: f"duplicate index {rec.index}"),
            *own_rules,
        ]
        faults = [(pos, rule) for rule, (pos, _) in enumerate(rules) if pos is not None]
        if faults:
            pos, rule = min(faults)
            raise err(kind, pos, rules[rule][1](records[pos]))


def _column(records, name: str) -> list:
    return list(map(attrgetter(name), records))


def _outside(values: list, lo: float, hi: float, exact=None, per: int = 1) -> int | None:
    """The position of the first record, of ``per`` of ``values`` each, with
    a value below ``lo`` or above ``hi`` that ``exact(index)``, if given, also
    refuses, or None; the values are walked only when min or max lies outside."""
    if _within(values, lo, hi):
        return None
    return next((at // per for at, value in enumerate(values)
                 if (value < lo or value > hi) and (exact is None or exact(at))), None)


def _repeated(values: list) -> int | None:
    """The position of the first of ``values`` equal to an earlier one, or
    None; walked only when a set of them is smaller than the list."""
    if len(set(values)) == len(values):
        return None
    first: dict = {}  # each value's first position
    return next(pos for pos, value in enumerate(values) if first.setdefault(value, pos) != pos)


# How far inside AXIS_TOL ``_not_unit`` sweeps axis norms, which it computes
# with math.hypot instead of ``_norm``. Near unit length the two differ by a
# few ulps of 1, far less than this, so ``_norm`` judges only the axes that
# the sweep refuses: borderline ones and faults.
_AXIS_MARGIN = 1e-9


def _not_unit(axes: list) -> int | None:
    """The position of the first of ``axes`` not of unit length, or None."""
    return _outside(list(starmap(math.hypot, axes)),
                    1.0 - AXIS_TOL + _AXIS_MARGIN, 1.0 + AXIS_TOL - _AXIS_MARGIN,
                    lambda pos: abs(_norm(axes[pos]) - 1.0) > AXIS_TOL)


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

    _validate_records(
        scene.categories, scene.regions, scene.objects, scene.panoramas, None,
        lambda kind, pos, msg: SceneJsonError(msg, f"$.{_SECTION_OF[kind]}[{pos}]"),
    )
    return _index_sorted(scene)
