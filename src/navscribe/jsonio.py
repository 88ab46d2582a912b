"""Canonical JSON emission and schema-checked JSON reading.

``dumps`` lays a value out as ``json.dumps(indent=2, ensure_ascii=False)``
does, but renders floats in one fixed format (6 decimal places by default),
which stdlib json cannot pin. It keeps dict insertion order, uses LF line
endings and ends the document with a single newline. A dataclass instance
becomes an object of its fields in declaration order. Strings go through the
C string encoder stdlib json itself uses. A document is one ``join`` of its
pieces: its brackets, separators, key prefixes, scalar texts and record texts,
appended in document order to one flat list, with the final newline last. No
container's text is copied into its parent's, so ``dumps`` peaks at about the
texts of the records plus the document.

A list or tuple of two or more records of exactly one dataclass type, such
as a dataset or a scene's objects, always renders field by field. Each field
becomes one lazily mapped column of texts, and each record is one ``%``
against a template built once for the list. A field that holds one fast kind
throughout (an exact str, an exact int, a finite float, a non-empty array of
exact strs, or non-empty arrays of exact finite floats that all have one
length, such as a ``Vec3``) is mapped at C level; a float array's items are
formatted in one flat ``map``, and each array is one ``%`` against a template
with a slot per item. A field of other non-empty arrays, such as int arrays
or arrays of arrays, renders all their items as one flat column by these same
rules, and each array is one ``join`` of its share of it. Any other field,
one with an empty array among them, renders value by value, as an item of an
object would, each value's text one ``join`` of its own pieces. ``zip``
pulls the columns record by record, and each column renders lazily, so the
first bad value in document order raises, with its own type and message.

``load`` decodes with stdlib ``json`` and applies a schema composed of the
checks below (``integer``, ``number``, ``string``, ``boolean``, ``array``,
``vec3``, and ``record`` or ``open_record``, which ignores keys it does not
declare). Each check has two halves. ``fast`` takes the list of values found
at one place in every item of an array, at the top level just the document,
and tests it whole at C level: exact-type scalars with one
``set(map(type, ...))`` test (so true is no integer), numbers when all are
finite (integers become floats), arrays and ``vec3`` values as one run of all
their items, records column by column, built at the end by ``from_columns``.
It returns the
values converted, or None if any is at fault, and only then does ``load``
call ``walk`` on the document: one plain recursive pass in schema order that
raises the first fault in document order (inside one object, the earlier
field in the schema wins) as a ``JsonSchemaError`` naming a ``json_path``
such as ``$[3].heading``.

A record's fields are its builder's parameters, in order, each checked as
annotated: ``int``, ``str``, ``float`` and ``bool`` as scalars, three floats
(``Vec3``) as a ``vec3``, ``tuple[T, ...]`` as an array of T and a dataclass
as its record. A keyword overrides a field whose rule its type cannot state;
any other annotation is a TypeError when the schema is built.

``from_columns`` builds a slotted dataclass's records without its
``__init__``, whose frozen ``object.__setattr__`` per field would cost more
than the reading: it makes the instances bare, sets each field's whole
column through the field's slot at C level, then runs ``__post_init__``, if
there is one, record by record, so the first record it refuses raises what
the constructor would. Such a builder's ``__init__`` parameters must be its
fields, in order and positional; one with an ``InitVar``, an ``init=False``
or a ``kw_only`` field is a TypeError when the schema is built. Any other
builder, a function or a class, is called row by row.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys
from collections import deque
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import (Any, Callable, Iterable, Iterator, NamedTuple, get_args, get_origin,
                    get_type_hints)

_quote = json.encoder.encode_basestring  # where json.dumps(s, ensure_ascii=False) ends


def dumps(value: Any, *, float_fmt: str = ".6f") -> str:
    pieces: list[str] = []
    _render(value, "\n", float_fmt, pieces)
    pieces.append("\n")
    return "".join(pieces)


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


def _text(value: Any, nl: str, float_fmt: str) -> str:
    """The text of one value, as one join of its pieces."""
    pieces: list[str] = []
    _render(value, nl, float_fmt, pieces)
    return "".join(pieces)


def _render(value: Any, nl: str, float_fmt: str, out: list[str]) -> None:
    """Append the pieces of ``value``'s text to ``out``; ``nl`` (a newline
    and an indent) starts the line of its closing bracket. Items render in
    order, so the first bad one raises; a list of records of one type renders
    through ``_record_texts``. Each item's pieces go to ``out`` itself, so no
    container's text is ever copied into its parent's."""
    text = _scalar(value, float_fmt)
    if text is not None:
        out.append(text)
        return
    if isinstance(value, float):
        raise ValueError(f"non-finite number not serializable: {value}")
    if not isinstance(value, (dict, list, tuple)) and dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    inner = nl + "  "
    comma = "," + inner  # after each item; the closing bracket replaces the last
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{" + inner)
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            out.append(f"{_quote(key)}: ")
            _render(item, inner, float_fmt, out)
            out.append(comma)
        out[-1] = nl + "}"
        return
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[" + inner)
        records = (not isinstance(value[0], _NOT_RECORDS) and len(value) > 1
                   and _record_texts(value, inner, float_fmt))
        if records:
            out += chain.from_iterable(zip(records, repeat(comma)))
        else:
            for item in value:
                _render(item, inner, float_fmt, out)
                out.append(comma)
        out[-1] = nl + "]"
        return
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
    at C level, one of other non-empty arrays through the column of all their
    items; any other renders value by value."""
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
        # Any other items: one column of them all, each array one join of its share.
        slot, texts = _column(list(chain.from_iterable(values)), inner, float_fmt)
        if slot != "%s":
            texts = map(slot.__mod__, texts)
        return (f"[{inner}%s{nl}]",
                map(("," + inner).join, map(islice, repeat(texts), map(len, values))))
    return "%s", map(_text, values, repeat(nl), repeat(float_fmt))


class JsonSchemaError(ValueError):
    """A JSON input that does not decode or does not match its schema."""

    def __init__(self, message: str, json_path: str = "$") -> None:
        super().__init__(message)
        self.json_path = json_path

    def __str__(self) -> str:
        return f"{self.json_path}: {self.args[0]}"


_KIND = {type(None): "null", bool: "boolean", int: "integer", float: "number",
         str: "string", list: "array", dict: "object"}


class _Check(NamedTuple):
    """A schema check. ``fast`` takes the values found at one place in every
    item and returns them converted, or None if any is at fault; ``walk``
    takes one value and its ``json_path`` and returns it converted, or raises
    its first fault."""
    fast: Callable[[Iterable], Iterable | None]
    walk: Callable[[Any, str], Any]


def _expected(what: str, value: Any, json_path: str) -> JsonSchemaError:
    return JsonSchemaError(f"expected {what}, found {_KIND[type(value)]}", json_path)


def load(text: str, schema: _Check) -> Any:
    """Decode ``text`` and return what ``schema`` builds from the document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise JsonSchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise JsonSchemaError("invalid JSON: nested too deeply") from None
    built = schema.fast([doc])
    return schema.walk(doc, "$") if built is None else built[0]


def _exact(kind: type, what: str) -> _Check:
    """The check of values of exactly ``kind``, returned as they are."""

    def walk(value: Any, json_path: str) -> Any:
        if type(value) is not kind:
            raise _expected(what, value, json_path)
        return value

    return _Check(lambda values: values if set(map(type, values)) <= {kind} else None, walk)


integer = _exact(int, "an integer")  # true and false are not integers
string = _exact(str, "a string")
boolean = _exact(bool, "a boolean")

# A JSON number x is finite as a float exactly when -_FLOAT_MAX <= x <= _FLOAT_MAX;
# NaN, the infinities and integers that float() overflows on all fail it.
_FLOAT_MAX = sys.float_info.max


def _numbers(values: Iterable) -> Iterable | None:
    kinds = set(map(type, values))
    if kinds <= {float}:  # returned as they are, which spares an array of them a copy
        return values if all(map(math.isfinite, values)) else None
    if kinds <= {float, int} and all(-_FLOAT_MAX <= value <= _FLOAT_MAX for value in values):
        return list(map(float, values))
    return None


def _number(value: Any, json_path: str) -> float:
    if type(value) is not float and type(value) is not int:
        raise _expected("a number", value, json_path)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        found = value if type(value) is float else "an integer out of range"
        raise JsonSchemaError(f"expected a finite number, found {found}", json_path)
    return float(value)


number = _Check(_numbers, _number)  # finite numbers, as floats


def array(item: _Check, min_len: int = 0) -> _Check:
    """Arrays of at least ``min_len`` values, each checked by ``item``, as tuples."""

    def refuse(value: Any, json_path: str) -> None:
        if type(value) is not list:
            raise _expected("an array", value, json_path)
        if len(value) < min_len:
            raise JsonSchemaError(f"expected at least {min_len} item(s), found {len(value)}",
                                  json_path)

    return _arrays(item, min_len, math.inf, refuse)


def _refuse_vec3(value: Any, json_path: str) -> None:
    if type(value) is not list or len(value) != 3:
        raise JsonSchemaError("expected an array of 3 numbers", json_path)


def _arrays(item: _Check, min_len: int, max_len: float,
            refuse: Callable[[Any, str], None]) -> _Check:
    """The check of arrays of ``min_len`` to ``max_len`` items, as tuples of
    their items. ``fast`` checks the items of all arrays as one run; ``refuse``
    raises what is wrong with one array as a whole, if anything is."""

    def fast(values: Iterable) -> list | None:
        if not (set(map(type, values)) <= {list}
                and _within(set(map(len, values)), min_len, max_len)):
            return None
        flat = _Items(values)
        items = item.fast(flat)
        if items is None:
            return None
        if items is flat:  # the items are the values themselves
            return list(map(tuple, values))
        rest = iter(items)
        return [tuple(islice(rest, n)) for n in map(len, values)]

    def walk(value: Any, json_path: str) -> tuple:
        refuse(value, json_path)
        return tuple(item.walk(v, f"{json_path}[{at}]") for at, v in enumerate(value))

    return _Check(fast, walk)


vec3 = _arrays(number, 3, 3, _refuse_vec3)  # exactly three finite numbers, as tuples of floats


class _Items:
    """The items of a list of arrays, in order, without a copy: what an
    array check passes its item check, which only iterates over it."""

    __slots__ = ("arrays",)

    def __init__(self, arrays: list) -> None:
        self.arrays = arrays

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self.arrays)


def _within(values, lo: float, hi: float) -> bool:
    """Whether every one of ``values``, a list or a set, lies in [lo, hi]."""
    return not values or (lo <= min(values) and max(values) <= hi)


def record(build: Callable[..., Any], **overrides: _Check) -> _Check:
    """Objects with exactly the keys of ``build``'s parameters, each returned
    as ``build`` called with its checked fields positionally; a field's check
    is its override, else ``_derive``d from its annotation. A ValueError from
    ``build``, which holds the rules across fields, fails the check at the
    object itself."""
    return _record(build, _fields(build, overrides), closed=True)


def open_record(build: Callable[..., Any], **overrides: _Check) -> _Check:
    """As ``record``, but keys beyond ``build``'s parameters are ignored."""
    return _record(build, _fields(build, overrides), closed=False)


def _fields(build: Callable[..., Any], overrides: dict[str, _Check]) -> dict[str, _Check]:
    parameters = inspect.signature(build).parameters.values()
    names = [parameter.name for parameter in parameters]
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    if _slotted(build) and ([(p.name, p.kind) for p in parameters]
                            != [(f.name, positional) for f in dataclasses.fields(build)]):
        raise TypeError(f"{build.__qualname__}: __init__ parameters {names} "
                        "are not its fields, in order and positional")
    unknown = [name for name in overrides if name not in names]
    if unknown:
        raise TypeError(f"{build.__qualname__}: no field {unknown[0]!r} to override")
    hints = get_type_hints(build)
    return {name: overrides.get(name) or _derive(hints.get(name), f"{build.__qualname__}.{name}")
            for name in names}


_SCALARS = {int: integer, str: string, float: number, bool: boolean}


def _derive(kind: Any, where: str) -> _Check:
    """The check of a field annotated ``kind``, as the module docstring maps it."""
    if kind in _SCALARS:
        return _SCALARS[kind]
    if kind == tuple[float, float, float]:
        return vec3
    args = get_args(kind)
    if get_origin(kind) is tuple and len(args) == 2 and args[1] is Ellipsis:
        return array(_derive(args[0], where))
    if dataclasses.is_dataclass(kind):
        return record(kind)
    raise TypeError(f"{where}: no check derives from the annotation {kind!r}")


def _record(build: Callable[..., Any], fields: dict[str, _Check], closed: bool) -> _Check:
    def fast(values: Iterable) -> list | None:
        if not set(map(type, values)) <= {dict}:
            return None
        if closed and not set(map(len, values)) <= {len(fields)}:
            return None
        try:
            columns = [field.fast(list(map(itemgetter(name), values)))
                       for name, field in fields.items()]
            if None in columns:
                return None
            # A record of no fields has no column to count the records by.
            return from_columns(build, columns, len(columns[0]) if columns else len(list(values)))
        except (KeyError, ValueError):  # a missing key, or a value build refuses
            return None

    def walk(value: Any, json_path: str) -> Any:
        if type(value) is not dict:
            raise _expected("an object", value, json_path)
        if value.keys() != fields.keys():
            missing = [key for key in fields if key not in value]
            if missing or closed:
                problem = "missing" if missing else "unexpected"
                key = (missing or [key for key in value if key not in fields])[0]
                raise JsonSchemaError(f"{problem} key {key!r}", json_path)
        checked = [field.walk(value[name], f"{json_path}.{name}")
                   for name, field in fields.items()]
        try:
            return build(*checked)
        except ValueError as exc:
            raise JsonSchemaError(str(exc), json_path) from None

    return _Check(fast, walk)


def _slotted(build: Callable[..., Any]) -> bool:
    """Whether ``build`` is a dataclass that declares its fields' slots."""
    return (isinstance(build, type) and dataclasses.is_dataclass(build)
            and "__slots__" in vars(build))


def from_columns(build: Callable[..., Any], columns: list[Iterable], n: int) -> list:
    """``list(map(build, *columns))``: ``n`` records, from ``build``'s
    columns in the order of its fields (or arguments), each an iterable of
    ``n`` items. A slotted dataclass's records are built as the module
    docstring says; any other builder is called row by row. A builder that
    refuses any record raises, so a caller gets all the records or none."""
    if not _slotted(build):
        return list(map(build, *columns)) if columns else [build() for _ in range(n)]
    records = list(map(object.__new__, repeat(build, n)))
    for field, column in zip(dataclasses.fields(build), columns):
        deque(map(getattr(build, field.name).__set__, records, column), 0)
    post_init = getattr(build, "__post_init__", None)
    if post_init is not None:
        deque(map(post_init, records), 0)
    return records
