"""Reading saved artifacts: a stored document holds the inputs of an object
plus fields derived from them.  A reader type-checks the inputs, rebuilds the
object from them alone, and accepts the document only if the rebuilt object
renders to the same fields.

A type ``kind`` is a Python type, a list holding the type of every item, a
dict of required keys and their kinds, or ``(kind, None)`` for a nullable
field; float accepts ints too, and int never accepts bools.
"""
from __future__ import annotations

import json
from typing import Callable, TypeVar

T = TypeVar("T")


def check_types(value, kind, where: str = "") -> None:
    """Raise ValueError naming the first field of ``value`` that is missing
    or not of type ``kind``."""
    if isinstance(kind, tuple):
        if value is None and None in kind:
            return
        kind = kind[0]
    if isinstance(kind, dict) and isinstance(value, dict):
        for key, sub in kind.items():
            name = f"{where}.{key}".lstrip(".")
            if key not in value:
                raise ValueError(f"field {name!r} is missing")
            check_types(value[key], sub, name)
    elif isinstance(kind, list) and isinstance(value, list):
        for i, item in enumerate(value):
            check_types(item, kind[0], f"{where}[{i}]")
    elif (isinstance(kind, (dict, list)) or isinstance(value, bool) != (kind is bool)
          or not isinstance(value, (int, float) if kind is float else kind)):
        raise ValueError(f"field {where!r} has the wrong type ({type(value).__name__})")


def first_difference(stored, expected, where: str = "") -> str | None:
    """Dotted name of the first field where two documents differ, or None."""
    if isinstance(stored, dict) and isinstance(expected, dict):
        for key in sorted(stored.keys() | expected.keys()):
            if key not in stored or key not in expected:
                return where + key
            if (found := first_difference(stored[key], expected[key], f"{where}{key}.")):
                return found
        return None
    same = json.dumps(stored, sort_keys=True) == json.dumps(expected, sort_keys=True)
    return None if same else where[:-1]


def read_document(stored, what: str, types: dict, build: Callable[[dict], T],
                  render: Callable[[T], dict]) -> T:
    """``build(stored)``, for a ``longtail-lab-<what>`` document at version 1
    whose fields named in ``types`` have those types and whose every field
    equals ``render`` of the built object.

    Raises ValueError that names the field at fault, prefixed with ``what``.
    """
    if not isinstance(stored, dict):
        raise ValueError(f"not a longtail-lab {what}: not a JSON object")
    if stored.get("format") != f"longtail-lab-{what}":
        raise ValueError(f"not a longtail-lab {what}: field 'format' is {stored.get('format')!r}")
    if stored.get("version") != 1:
        raise ValueError(f"unsupported {what} version: field 'version' is "
                         f"{stored.get('version')!r}")
    try:
        check_types(stored, types)
        built = build(stored)
    except ValueError as exc:
        raise ValueError(f"{what} {exc}") from None
    field = first_difference(stored, render(built))
    if field is not None:
        raise ValueError(f"{what} field {field!r} disagrees with the rebuilt {what}")
    return built
