"""The one checked reader of outside JSON: model replies, traces and the
gold records they carry, configs, fixture payloads and script files.  Each
border passes its own exception class, and every message names what was
read: ``"{where}: {key!r} must be {expected}, got {value!r}"`` or
``"{where}: missing required field {key!r}"``.  A type is
a class, ``None`` for ``null``, or ``list[str]`` or ``list[dict]`` for a list
whose items all have that type; a bool never passes as an int.  An object
whose fields are declared in a table of :class:`Field` values, as trace
events are, is checked by :func:`check_fields`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, NamedTuple

__all__ = ["Field", "read_field", "check_fields", "check_value", "load_json"]

_NAMES: dict[Any, str] = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string",
    dict: "an object", Mapping: "an object", list: "a list", list[str]: "a list of strings",
    list[dict]: "a list of objects", None: "null",
}
_REQUIRED: Any = object()


def _is(value: Any, kind: Any) -> bool:
    if kind is None:
        return value is None
    if kind in (list[str], list[dict]):
        return isinstance(value, list) and all(_is(item, kind.__args__[0]) for item in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def check_value(value: Any, *types: Any, name: str, error: type[Exception]) -> Any:
    """`value` if it is of one of `types` (any value when none is given),
    else `error` saying what `name` must be."""
    if not types or any(_is(value, kind) for kind in types):
        return value
    expected = " or ".join(_NAMES[kind] for kind in types)
    raise error(f"{name} must be {expected}, got {value!r}")


def read_field(doc: Mapping[str, Any], key: str, *types: Any, default: Any = _REQUIRED,
               where: str, error: type[Exception]) -> Any:
    """``doc[key]`` checked against `types`, or `default` when the key is
    absent; without a default an absent key is an `error`."""
    if key not in doc:
        if default is _REQUIRED:
            raise error(f"{where}: missing required field {key!r}")
        return default
    return check_value(doc[key], *types, name=f"{where}: {key!r}", error=error)


class Field(NamedTuple):
    """A declared field: the types its value may have, as :func:`check_value`
    takes them, and whether the key must be present."""

    types: tuple[Any, ...]
    required: bool = True


def check_fields(doc: Mapping[str, Any], fields: Mapping[str, Field], *, where: str,
                 error: type[Exception]) -> None:
    """Check each of `fields` in `doc` as :func:`read_field` reads it; keys
    that `fields` does not declare are not looked at.  A value whose class is
    one of the types passes at once, so a conforming object costs one lookup
    per field."""
    for key, (types, required) in fields.items():
        if key not in doc:
            if required:
                raise error(f"{where}: missing required field {key!r}")
        elif type(doc[key]) not in types:
            check_value(doc[key], *types, name=f"{where}: {key!r}", error=error)


def load_json(path: str | Path, error: type[Exception]) -> Any:
    """The JSON document in the file at `path`; one that does not parse is an
    `error` naming the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise error(f"{path}: not JSON: {err}") from None
