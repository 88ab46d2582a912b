"""Canonical JSON emission and schema-checked JSON reading.

Stdlib json cannot pin float formatting, so this tiny emitter renders floats
with a fixed format (6 decimal places by default), keeps dict insertion
order, indents like ``json.dumps(indent=2)``, uses LF line endings and ends
the document with a single newline. A dataclass instance becomes an object
of its fields in declaration order. ``load`` decodes with stdlib ``json`` and
applies a schema composed of the checks below, each returning its converted
value; a failed check raises ``JsonSchemaError`` naming a ``json_path`` such
as ``$[3].heading``, built only as the failure unwinds.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from typing import Any, Callable

Check = Callable[[Any], Any]


def dumps(value: Any, *, float_fmt: str = ".6f") -> str:
    out: list[str] = []
    _emit(value, 0, out, float_fmt)
    out.append("\n")
    return "".join(out)


def _emit(value: Any, depth: int, out: list[str], float_fmt: str) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number not serializable: {value}")
        out.append(format(value, float_fmt))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, dict):
        _emit_dict(value, depth, out, float_fmt)
    elif isinstance(value, (list, tuple)):
        _emit_list(value, depth, out, float_fmt)
    elif dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        _emit_dict(fields, depth, out, float_fmt)
    else:
        raise TypeError(f"unsupported type for canonical JSON: {type(value).__name__}")


def _emit_dict(value: dict, depth: int, out: list[str], float_fmt: str) -> None:
    if not value:
        out.append("{}")
        return
    pad, inner = "  " * depth, "  " * (depth + 1)
    out.append("{\n")
    for i, (key, item) in enumerate(value.items()):
        if not isinstance(key, str):
            raise TypeError(f"non-string key: {key!r}")
        out.append(f"{inner}{json.dumps(key, ensure_ascii=False)}: ")
        _emit(item, depth + 1, out, float_fmt)
        out.append(",\n" if i < len(value) - 1 else "\n")
    out.append(pad + "}")


def _emit_list(value: list | tuple, depth: int, out: list[str], float_fmt: str) -> None:
    if not value:
        out.append("[]")
        return
    pad, inner = "  " * depth, "  " * (depth + 1)
    out.append("[\n")
    for i, item in enumerate(value):
        out.append(inner)
        _emit(item, depth + 1, out, float_fmt)
        out.append(",\n" if i < len(value) - 1 else "\n")
    out.append(pad + "]")


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


def integer(value: Any) -> int:
    if type(value) is not int:  # true and false are not integers
        raise _expected("an integer", value)
    return value


def string(value: Any) -> str:
    if type(value) is not str:
        raise _expected("a string", value)
    return value


_FLOAT_MAX = int(sys.float_info.max)  # float() of a larger integer overflows


def number(value: Any) -> float:
    """A finite number, as a float."""
    if type(value) is int:
        if abs(value) > _FLOAT_MAX:
            raise JsonSchemaError("expected a finite number, found an integer out of range", "")
        value = float(value)
    elif type(value) is not float:
        raise _expected("a number", value)
    if not math.isfinite(value):
        raise JsonSchemaError(f"expected a finite number, found {value}", "")
    return value


def array(item: Check, min_len: int = 0) -> Check:
    """An array of at least ``min_len`` values, each checked by ``item``, as a tuple."""

    def check(value: Any) -> tuple:
        if type(value) is not list:
            raise _expected("an array", value)
        if len(value) < min_len:
            raise JsonSchemaError(f"expected at least {min_len} item(s), found {len(value)}", "")
        out: list = []
        try:
            out.extend(map(item, value))  # keeps the items checked before a failure
        except JsonSchemaError as exc:
            exc.json_path = f"[{len(out)}]{exc.json_path}"
            raise
        return tuple(out)

    return check


_numbers = array(number)


def vec3(value: Any) -> tuple[float, float, float]:
    """Exactly three finite numbers, as a tuple of floats."""
    if type(value) is not list or len(value) != 3:
        raise JsonSchemaError("expected an array of 3 numbers", "")
    return _numbers(value)


def record(build: Callable[..., Any], **fields: Check) -> Check:
    """An object with exactly the keys of ``fields``, returned as ``build``
    called with each checked field. A ValueError from ``build``, which holds
    the rules across fields, fails the check at the object itself."""

    def check(value: Any) -> Any:
        if type(value) is not dict:
            raise _expected("an object", value)
        if value.keys() != fields.keys():
            missing = [key for key in fields if key not in value]
            problem = "missing" if missing else "unexpected"
            key = (missing or [key for key in value if key not in fields])[0]
            raise JsonSchemaError(f"{problem} key {key!r}", "")
        checked = {}
        for name, field in fields.items():
            try:
                checked[name] = field(value[name])
            except JsonSchemaError as exc:
                exc.json_path = f".{name}{exc.json_path}"
                raise
        try:
            return build(**checked)
        except ValueError as exc:
            raise JsonSchemaError(str(exc), "") from None

    return check
