"""Canonical JSON emission and schema-checked JSON reading.

``dumps`` lays a value out as ``json.dumps(indent=2, ensure_ascii=False)``
does, but renders floats in one fixed format (6 decimal places by default),
which stdlib json cannot pin. It keeps dict insertion order, uses LF line
endings and ends the document with a single newline. A dataclass instance
becomes an object of its fields in declaration order. Each container is one
``join`` of its items' texts, so an array of scalars costs no recursion, and
strings go through the C string encoder stdlib json itself uses.

A list or tuple of two or more records of exactly one dataclass type, such
as a dataset or a scene's objects, always renders field by field. Each field
becomes one lazily mapped column of texts, and each record is one ``%``
against a template built once for the list. A field that holds one fast kind
throughout (an exact str, an exact int, a finite float, a non-empty array of
exact strs, or non-empty arrays of exact finite floats that all have one
length, such as a ``Vec3``) is mapped at C level; a float array's items are
formatted in one flat ``map``, and each array is one ``%`` against a template
with a slot per item. Any other field renders value by value, as an item of
an object would. ``zip`` pulls the columns record by record, so the first bad
value in document order raises, with its own type and message.

``load`` decodes with stdlib ``json`` and applies a schema composed of the
checks below (``integer``, ``number``, ``string``, ``boolean``, ``array``,
``vec3``, and ``record`` or ``open_record``, which ignores keys it does not
declare). A check takes the list of values found at one place in every item
of an array, at the top level just the document, and returns them
converted. It tests the whole list at C level: exact-type scalars with one
``set(map(type, ...))`` test (so true is no integer), numbers when all are
finite floats, arrays and ``vec3`` values as one run of all their items,
records column by column in schema order, built at the end. Only where that
test refuses does a check walk the list one value at a time. It raises the
first fault in document order, so inside one object the earlier field in
the schema wins, as a ``JsonSchemaError`` naming a ``json_path`` such as
``$[3].heading``, built only as the error unwinds.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from bisect import bisect_right
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator

Check = Callable[[Iterable], Iterable]

_quote = json.encoder.encode_basestring  # where json.dumps(s, ensure_ascii=False) ends


def dumps(value: Any, *, float_fmt: str = ".6f") -> str:
    return _render(value, "\n", float_fmt) + "\n"


def _scalar(value: Any, float_fmt: str) -> str | None:
    """The text of a finite number, a string, a boolean or None; None for
    anything else, which ``_render`` renders or rejects."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        return format(value, float_fmt) if math.isfinite(value) else None
    if isinstance(value, bool):  # before int, which bool subclasses
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "null" if value is None else None


def _render(value: Any, nl: str, float_fmt: str) -> str:
    """The text of ``value``; ``nl`` (a newline and an indent) starts the
    line of its closing bracket. Items render in order, so the first bad one
    raises; a list of records of one type renders through ``_record_texts``.
    A scalar's text is never empty, so ``_scalar(v) or _render(v)`` calls
    ``_render`` only for containers and rejected values."""
    text = _scalar(value, float_fmt)
    if text is not None:
        return text
    if isinstance(value, float):
        raise ValueError(f"non-finite number not serializable: {value}")
    if not isinstance(value, (dict, list, tuple)) and dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            text = _scalar(item, float_fmt) or _render(item, inner, float_fmt)
            items.append(f"{_quote(key)}: {text}")
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (not isinstance(value[0], _NOT_RECORDS) and len(value) > 1
                 and _record_texts(value, inner, float_fmt)
                 or [_scalar(item, float_fmt) or _render(item, inner, float_fmt)
                     for item in value])
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    raise TypeError(f"unsupported type for canonical JSON: {type(value).__name__}")


# Types whose instances _render takes as a scalar, an object or an array
# before it asks whether they are dataclasses. A list whose first item is one
# skips _record_texts at the cost of one C-level check.
_NOT_RECORDS = (str, int, float, dict, list, tuple)


def _record_texts(records: list | tuple, nl: str, float_fmt: str) -> Iterator[str] | None:
    """The texts of a list of two or more records of one dataclass type, the
    first not an instance of ``_NOT_RECORDS``, rendered field by field, each
    starting on a line indented by ``nl``. None for a list not of one
    dataclass type, a type with no fields, or a field never set, which item
    by item then raises in order."""
    cls = type(records[0])
    if not dataclasses.is_dataclass(cls) or len(set(map(type, records))) != 1:
        return None
    names = [f.name for f in dataclasses.fields(cls)]
    if not names:
        return None
    inner = nl + "  "
    try:
        columns = [_column(list(map(attrgetter(name), records)), inner, float_fmt)
                   for name in names]
    except AttributeError:
        return None
    # Field names are identifiers, so no key holds a '%'.
    slots = (f"{_quote(name)}: {slot}" for name, (slot, _) in zip(names, columns))
    template = f"{{{inner}{(',' + inner).join(slots)}{nl}}}"
    return map(template.__mod__, zip(*(texts for _, texts in columns)))


def _column(values: list, nl: str, float_fmt: str) -> tuple[str, Iterator[str]]:
    """A ``%`` slot and the lazily mapped texts of one field of every record;
    ``nl`` starts the field's line. A field of one fast kind throughout maps
    at C level; any other renders value by value."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return "%s", map(_quote, values)
    if kind is int:
        return "%s", map(str, values)
    if kind is float and all(map(math.isfinite, values)):
        return "%s", map(format, values, repeat(float_fmt))
    if (kind is list or kind is tuple) and all(values):
        inner = nl + "  "
        item_kinds = set(map(type, chain.from_iterable(values)))
        if item_kinds == {str}:
            return f"[{inner}%s{nl}]", map(("," + inner).join, map(map, repeat(_quote), values))
        lengths = set(map(len, values))
        if (item_kinds == {float} and len(lengths) == 1
                and all(map(math.isfinite, chain.from_iterable(values)))):
            # Every item formatted in one flat map, then each array one % of n of them.
            n = lengths.pop()
            texts = map(format, chain.from_iterable(values), repeat(float_fmt))
            array = f"[{inner}{(',' + inner).join(repeat('%s', n))}{nl}]"
            return "%s", map(array.__mod__, zip(*repeat(texts, n)))
    return "%s", (_scalar(value, float_fmt) or _render(value, nl, float_fmt) for value in values)


class JsonSchemaError(ValueError):
    """A JSON input that does not decode or does not match its schema."""

    def __init__(self, message: str, json_path: str = "$") -> None:
        super().__init__(message)
        self.json_path = json_path

    def __str__(self) -> str:
        return f"{self.json_path}: {self.args[0]}"


_KIND = {type(None): "null", bool: "boolean", int: "integer", float: "number",
         str: "string", list: "array", dict: "object"}


# A check's error carries the position of its value in ``_at`` and a path
# relative to that value. Each enclosing check turns the position into its
# own segment as the error unwinds, and ``load`` prepends the root.
def _at(position: int, exc: JsonSchemaError) -> JsonSchemaError:
    exc._at = position
    return exc


def _expected(what: str, value: Any) -> JsonSchemaError:
    return JsonSchemaError(f"expected {what}, found {_KIND[type(value)]}", "")


def load(text: str, schema: Check) -> Any:
    """Decode ``text`` and return what ``schema`` builds from the document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise JsonSchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise JsonSchemaError("invalid JSON: nested too deeply") from None
    try:
        return schema([doc])[0]
    except JsonSchemaError as exc:
        exc.json_path = "$" + exc.json_path
        raise


def _exact(kind: type, what: str) -> Check:
    """The check of values of exactly ``kind``, returned as they are."""

    def check(values: Iterable) -> Iterable:
        if set(map(type, values)) <= {kind}:
            return values
        position, value = next((at, value) for at, value in enumerate(values)
                               if type(value) is not kind)
        raise _at(position, _expected(what, value))

    return check


integer = _exact(int, "an integer")  # true and false are not integers
string = _exact(str, "a string")
boolean = _exact(bool, "a boolean")

# A JSON number x is finite as a float exactly when -_FLOAT_MAX <= x <= _FLOAT_MAX;
# NaN, the infinities and integers that float() overflows on all fail it.
_FLOAT_MAX = sys.float_info.max


def number(values: Iterable) -> Iterable:
    """Finite numbers, as floats."""
    # Exact floats only: an int goes value by value, as math.isfinite would
    # overflow on a huge one.
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return values
    out = []
    for position, value in enumerate(values):
        if type(value) is not float and type(value) is not int:
            raise _at(position, _expected("a number", value))
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            found = value if type(value) is float else "an integer out of range"
            raise _at(position, JsonSchemaError(f"expected a finite number, found {found}", ""))
        out.append(float(value))
    return out


def _misfits(values: Iterable, misfit: Callable[[Any], JsonSchemaError | None]
             ) -> tuple[Iterable, JsonSchemaError | None]:
    """The values before the first one that ``misfit`` finds at fault, and
    that fault; all values and None if there is none."""
    for position, value in enumerate(values):
        fault = misfit(value)
        if fault is not None:
            return list(islice(values, position)), _at(position, fault)
    return values, None


def array(item: Check, min_len: int = 0) -> Check:
    """Arrays of at least ``min_len`` values, each checked by ``item``, as tuples."""

    def misfit(value: Any) -> JsonSchemaError | None:
        if type(value) is not list:
            return _expected("an array", value)
        if len(value) < min_len:
            return JsonSchemaError(f"expected at least {min_len} item(s), found {len(value)}", "")
        return None

    return lambda values: _arrays(values, item, min_len, math.inf, misfit)


def _not_vec3(value: Any) -> JsonSchemaError | None:
    if type(value) is not list or len(value) != 3:
        return JsonSchemaError("expected an array of 3 numbers", "")
    return None


def vec3(values: Iterable) -> list:
    """Exactly three finite numbers, as tuples of floats."""
    return _arrays(values, number, 3, 3, _not_vec3)


def _arrays(values: Iterable, item: Check, min_len: int, max_len: float,
            misfit: Callable[[Any], JsonSchemaError | None]) -> list:
    """``values``, arrays of ``min_len`` to ``max_len`` items, as tuples of
    their items, which ``item`` checks as one run. Past the first value that
    ``misfit`` refuses, nothing is checked; a fault in an earlier array's
    items comes first."""
    fault = None
    if not set(map(type, values)) <= {list} or not _within(set(map(len, values)), min_len, max_len):
        values, fault = _misfits(values, misfit)
    flat = _Items(values)
    try:
        items = item(flat)
    except JsonSchemaError as exc:  # from the run's index back to array and item
        ends = list(accumulate(map(len, values)))
        position = bisect_right(ends, exc._at)
        exc.json_path = f"[{exc._at - (ends[position - 1] if position else 0)}]{exc.json_path}"
        raise _at(position, exc) from None
    if fault is not None:
        raise fault
    if items is flat:  # the items are the values themselves
        return list(map(tuple, values))
    rest = iter(items)
    return [tuple(islice(rest, n)) for n in map(len, values)]


class _Items:
    """The items of a list of arrays, in order, without a copy: what
    ``_arrays`` passes its item check, which only iterates over it."""

    __slots__ = ("arrays",)

    def __init__(self, arrays: list) -> None:
        self.arrays = arrays

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self.arrays)


def _within(values, lo: float, hi: float) -> bool:
    """Whether every one of ``values``, a list or a set, lies in [lo, hi]."""
    return not values or (lo <= min(values) and max(values) <= hi)


def record(build: Callable[..., Any], **fields: Check) -> Check:
    """Objects with exactly the keys of ``fields``, each returned as ``build``
    called with its checked fields, positionally in the order given. A
    ValueError from ``build``, which holds the rules across fields, fails the
    check at the object itself."""
    return _record(build, fields, closed=True)


def open_record(build: Callable[..., Any], **fields: Check) -> Check:
    """As ``record``, but keys beyond those of ``fields`` are ignored."""
    return _record(build, fields, closed=False)


def _record(build: Callable[..., Any], fields: dict[str, Check], closed: bool) -> Check:
    def misfit(value: Any) -> JsonSchemaError | None:
        if type(value) is not dict:
            return _expected("an object", value)
        if value.keys() != fields.keys():
            missing = [key for key in fields if key not in value]
            if missing or closed:
                problem = "missing" if missing else "unexpected"
                key = (missing or [key for key in value if key not in fields])[0]
                return JsonSchemaError(f"{problem} key {key!r}", "")
        return None

    def check(values: Iterable) -> list:
        fault = None
        try:
            raw = [list(map(itemgetter(name), values)) for name in fields]
        except (KeyError, TypeError):  # a value that is no object, or lacks a key
            raw = None
        if raw is None or closed and not set(map(len, values)) <= {len(fields)}:
            values, fault = _misfits(values, misfit)
            raw = [list(map(itemgetter(name), values)) for name in fields]
        columns = []
        for (name, field), column in zip(fields.items(), raw):
            if fault is not None:  # only the objects before the earliest fault so far
                column = column[:fault._at]
            try:
                columns.append(field(column))
            except JsonSchemaError as exc:
                exc.json_path = f".{name}{exc.json_path}"
                fault = exc
                columns.append(field(column[:exc._at]))  # the objects before it pass
        out = []
        try:
            # Up to the shortest column, the last; map needs one to build from.
            out.extend(map(build, *columns) if columns else map(lambda _: build(), values))
        except ValueError as exc:
            fault = _at(len(out), JsonSchemaError(str(exc), ""))
        if fault is not None:
            raise fault
        return out

    return check
