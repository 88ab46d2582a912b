"""Canonical JSON emission and schema-checked JSON reading.

``dumps`` lays a value out as ``json.dumps(indent=2, ensure_ascii=False)``
does, but renders floats in one fixed format (6 decimal places by default),
which stdlib json cannot pin. It keeps dict insertion order, uses LF line
endings and ends the document with a single newline. A dataclass instance
becomes an object of its fields in declaration order. Each container is one
``join`` of its items' texts, so an array of scalars costs no recursion, and
strings go through the C string encoder stdlib json itself uses.

A list or tuple of two or more records of exactly one dataclass type, such
as a dataset, renders field by field when every field holds one kind of
value across the list: an exact str, an exact int, a finite float, or a
non-empty array of exact strs. Each field then becomes one lazily mapped
column of texts built by C-level ``map`` and ``join``, and each record is
one ``%`` against a template built once for the list. ``zip`` pulls the
columns record by record, so an int too long for ``str``, the one such value
that can fail, raises where it would item by item. Any other list goes item
by item, bools, None, subclasses, nested records, empty arrays, arrays of
numbers, mixed kinds and non-finite floats among them, so errors keep their
types and document order.

``load`` decodes with stdlib ``json`` and applies a schema composed of the
checks below (``integer``, ``number``, ``string``, ``boolean``, ``array``,
``vec3``, and ``record`` or ``open_record``, which ignores keys it does not
declare), each returning its converted value; a failed check raises
``JsonSchemaError`` naming a ``json_path`` such as ``$[3].heading``, built
only as the failure unwinds.

Reading checks first and locates only on failure. The checks here also
carry a bulk form, their ``bulk`` attribute, which takes a whole list of
values at C level: exact-type scalars with one ``set(map(type, ...))`` test (so true is
no integer), numbers when all are finite floats, with one
``math.isfinite`` sweep, arrays and ``vec3`` values as one run of their
items, and records column by column, built positionally at the end.
``array`` tries its item's bulk form on the whole array first. The form
refuses with None on any fault, and on any value that only the per-item
check accepts, such as an integer where a number goes; ``array`` then maps
the per-item check, which raises the located error. A bulk form only has to
be sound: what it accepts, the per-item check accepts with the same result.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterator

Check = Callable[[Any], Any]

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
    raises. A scalar's text is never empty, so ``_scalar(v) or _render(v)``
    calls ``_render`` only for containers and rejected values."""
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
    first not an instance of ``_NOT_RECORDS``, rendered field by field; None
    unless every record has that type and every field holds one kind that
    ``_column`` renders. Each record starts on a line indented by ``nl``."""
    cls = type(records[0])
    if not dataclasses.is_dataclass(cls) or len(set(map(type, records))) != 1:
        return None
    names = [f.name for f in dataclasses.fields(cls)]
    if not names:
        return None
    inner = nl + "  "
    try:  # the first record alone refuses most lists before any column is mapped
        if any(_column([getattr(records[0], name)], inner, float_fmt) is None for name in names):
            return None
    except AttributeError:
        return None
    columns = []
    for name in names:
        try:
            column = _column(list(map(attrgetter(name), records)), inner, float_fmt)
        except AttributeError:  # a field never set; item by item raises it in order
            return None
        if column is None:
            return None
        columns.append(column)
    # Field names are identifiers, so no key holds a '%'.
    slots = (f"{_quote(name)}: {slot}" for name, (slot, _) in zip(names, columns))
    template = f"{{{inner}{(',' + inner).join(slots)}{nl}}}"
    return map(template.__mod__, zip(*(texts for _, texts in columns)))


def _column(values: list, nl: str, float_fmt: str) -> tuple[str, Iterator[str]] | None:
    """A ``%`` slot and the lazily mapped texts of one field of every record,
    if the field holds one kind throughout: exact str, exact int or finite
    float, or a non-empty array of exact strs. ``nl`` starts the field's
    line. Anything else, such as a bool, a subclass, None, an empty array, an
    array of numbers or mixed kinds, gives None."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is str:
        return "%s", map(_quote, values)
    if kind is int:
        return "%s", map(str, values)
    if kind is float and all(map(math.isfinite, values)):
        return "%s", map(format, values, repeat(float_fmt))
    if ((kind is not list and kind is not tuple) or not all(values)
            or set(map(type, chain.from_iterable(values))) != {str}):
        return None
    inner = nl + "  "
    return f"[{inner}%s{nl}]", map(("," + inner).join, map(map, repeat(_quote), values))


class JsonSchemaError(ValueError):
    """A JSON input that does not decode or does not match its schema."""

    def __init__(self, message: str, json_path: str = "$") -> None:
        super().__init__(message)
        self.json_path = json_path

    def __str__(self) -> str:
        return f"{self.json_path}: {self.args[0]}"


_KIND = {type(None): "null", bool: "boolean", int: "integer", float: "number",
         str: "string", list: "array", dict: "object"}


# A check raises its error with an empty path; each enclosing check prepends
# its own segment as the error unwinds, and ``load`` prepends the root.
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
        return schema(doc)
    except JsonSchemaError as exc:
        exc.json_path = "$" + exc.json_path
        raise


def _bulk(form: Callable[[list], list | None], values: list) -> list | None:
    """What a bulk form makes of a whole list: every item checked and
    converted, in order, or None where it refuses, so that the per-item
    checks run and locate the error. The one place where bulk forms are
    tried; the differential tests make it always refuse."""
    return form(values)


class _Items:
    """The items of a list of arrays, in order, without a copy. Bulk forms
    only iterate over what they check, so they take it as a list."""

    __slots__ = ("arrays",)

    def __init__(self, arrays: list) -> None:
        self.arrays = arrays

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self.arrays)


def _of_type(kind: type) -> Callable[[list], list | None]:
    """The bulk form of a check that returns values of exactly ``kind``."""

    def bulk(values: list) -> list | None:
        return values if set(map(type, values)) <= {kind} else None

    return bulk


def integer(value: Any) -> int:
    if type(value) is not int:  # true and false are not integers
        raise _expected("an integer", value)
    return value


def string(value: Any) -> str:
    if type(value) is not str:
        raise _expected("a string", value)
    return value


def boolean(value: Any) -> bool:
    if type(value) is not bool:
        raise _expected("a boolean", value)
    return value


integer.bulk = _of_type(int)
string.bulk = _of_type(str)
boolean.bulk = _of_type(bool)

# A JSON number x is finite as a float exactly when -_FLOAT_MAX <= x <= _FLOAT_MAX;
# NaN, the infinities and integers that float() overflows on all fail it.
_FLOAT_MAX = sys.float_info.max


def number(value: Any) -> float:
    """A finite number, as a float."""
    if type(value) is not float and type(value) is not int:
        raise _expected("a number", value)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        found = value if type(value) is float else "an integer out of range"
        raise JsonSchemaError(f"expected a finite number, found {found}", "")
    return float(value)


def _finite_floats(values: list) -> list | None:
    # Exact floats only: an int goes item by item, as math.isfinite would
    # overflow on a huge one.
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return values
    return None


number.bulk = _finite_floats


def array(item: Check, min_len: int = 0) -> Check:
    """An array of at least ``min_len`` values, each checked by ``item``, as a
    tuple. When ``item`` has a bulk form, the whole array goes through it
    first, and item by item only if it refuses."""
    item_bulk = getattr(item, "bulk", None)

    def check(value: Any) -> tuple:
        if type(value) is not list:
            raise _expected("an array", value)
        if len(value) < min_len:
            raise JsonSchemaError(f"expected at least {min_len} item(s), found {len(value)}", "")
        if item_bulk is not None:
            out = _bulk(item_bulk, value)
            if out is not None:
                return tuple(out)
        out = []
        try:
            out.extend(map(item, value))  # keeps the items checked before a failure
        except JsonSchemaError as exc:
            exc.json_path = f"[{len(out)}]{exc.json_path}"
            raise
        return tuple(out)

    def bulk(values: list) -> list | None:
        """A list of arrays checked as one run of items."""
        if not set(map(type, values)) <= {list} or min(map(len, values), default=min_len) < min_len:
            return None
        flat = _Items(values)
        items = item_bulk(flat)
        if items is None:
            return None
        if items is flat:  # the items are the values themselves
            return list(map(tuple, values))
        rest = iter(items)
        return [tuple(islice(rest, n)) for n in map(len, values)]

    if item_bulk is not None:
        check.bulk = bulk
    return check


_numbers = array(number)


def vec3(value: Any) -> tuple[float, float, float]:
    """Exactly three finite numbers, as a tuple of floats."""
    if type(value) is not list or len(value) != 3:
        raise JsonSchemaError("expected an array of 3 numbers", "")
    x, y, z = value
    # Three finite floats, the common case, skip the per-item checks; ints
    # and every error go through ``_numbers``.
    if (type(x) is type(y) is type(z) is float and -_FLOAT_MAX <= x <= _FLOAT_MAX
            and -_FLOAT_MAX <= y <= _FLOAT_MAX and -_FLOAT_MAX <= z <= _FLOAT_MAX):
        return x, y, z
    return _numbers(value)


def _vec3s(values: list) -> list | None:
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {3}:
        items = _Items(values)
        if _finite_floats(items) is items:
            return list(map(tuple, values))
    return None


vec3.bulk = _vec3s


def record(build: Callable[..., Any], **fields: Check) -> Check:
    """An object with exactly the keys of ``fields``, returned as ``build``
    called with each checked field, positionally in the order given. A
    ValueError from ``build``, which holds the rules across fields, fails the
    check at the object itself."""
    return _record(build, fields, closed=True)


def open_record(build: Callable[..., Any], **fields: Check) -> Check:
    """As ``record``, but keys beyond those of ``fields`` are ignored."""
    return _record(build, fields, closed=False)


def _record(build: Callable[..., Any], fields: dict[str, Check], closed: bool) -> Check:
    def check(value: Any) -> Any:
        if type(value) is not dict:
            raise _expected("an object", value)
        if value.keys() != fields.keys():
            missing = [key for key in fields if key not in value]
            if missing or closed:
                problem = "missing" if missing else "unexpected"
                key = (missing or [key for key in value if key not in fields])[0]
                raise JsonSchemaError(f"{problem} key {key!r}", "")
        checked = []
        for name, field in fields.items():
            try:
                checked.append(field(value[name]))
            except JsonSchemaError as exc:
                exc.json_path = f".{name}{exc.json_path}"
                raise
        try:
            return build(*checked)
        except ValueError as exc:
            raise JsonSchemaError(str(exc), "") from None

    forms = [getattr(field, "bulk", None) for field in fields.values()]

    def bulk(values: list) -> list | None:
        """A list of objects checked column by column, then built in order.
        A missing key, and in a closed record any other key count, refuses,
        and so does a ValueError from ``build``: the failing object is then
        located item by item."""
        if not set(map(type, values)) <= {dict}:
            return None
        if closed and not set(map(len, values)) <= {len(fields)}:
            return None
        columns = []
        try:
            for name, form in zip(fields, forms):
                column = form(list(map(itemgetter(name), values)))
                if column is None:
                    return None
                columns.append(column)
            return list(map(build, *columns))
        except (KeyError, ValueError):
            return None

    if fields and None not in forms:
        check.bulk = bulk
    return check
