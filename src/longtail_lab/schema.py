"""Reading saved artifacts: a stored document holds the inputs of an object
plus fields derived from them.  A reader type-checks the inputs, rebuilds the
object from them alone, and accepts the document only if the rebuilt object
renders to the same fields.  ``check_types`` also types the config document.

A type ``kind`` is a Python type, a list holding the type of every item, a
dict of required keys and their kinds, or a tuple of alternative kinds, where
``None`` admits null.  float accepts ints too but no infinity or NaN, and int
never accepts bools nor values outside the int64 range.

Checkpoints and the embedding cache are framed files (``write_framed``,
``read_framed``): a magic line, an 8-byte little-endian header length, a
compact sorted JSON header, then the raw arrays it declares and nothing more.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import stat
import sys
from typing import IO, Callable, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean",
               str: "a string", dict: "a mapping", list: "a list", None: "null"}


def _is(value, kind) -> bool:
    """Whether ``value`` is of the type, or None, ``kind``."""
    if kind is None or value is None:
        return value is kind
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_types(value, kind, where: str = "") -> None:
    """Raise ValueError naming the first field of ``value`` that is missing
    or not of type ``kind``, and the kind it must have."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    types = [type(k) if isinstance(k, (dict, list)) else k for k in kinds]
    for kind, of_type in zip(kinds, types):
        if _is(value, of_type):
            break
    else:
        shown = repr(value) if len(repr(value)) <= 40 else f"a {type(value).__name__}"
        raise ValueError(f"field {where!r} must be "
                         f"{' or '.join(_KIND_NAMES[t] for t in types)}, got {shown}")
    if isinstance(kind, dict):
        for key, sub in kind.items():
            name = f"{where}.{key}".lstrip(".")
            if key not in value:
                raise ValueError(f"field {name!r} is missing")
            check_types(value[key], sub, name)
    elif isinstance(kind, list):
        for i, item in enumerate(value):
            check_types(item, kind[0], f"{where}[{i}]")
    elif kind is int and not -2**63 <= value < 2**63:
        raise ValueError(f"field {where!r} lies outside the int64 range")


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


@contextlib.contextmanager
def replacing(path: str, mode: str, **kwargs) -> Iterator[IO]:
    """Open a new file next to ``path`` in ``mode`` (``x`` or ``xb``).  If the
    block ends without error it takes the place of ``path`` in one rename, else
    it is deleted.  A symbolic link at ``path`` stays; its target is replaced."""
    path = os.path.realpath(path)
    temporary = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(temporary, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def write_framed(path: str, magic: bytes, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write the framed file of ``header`` and ``arrays`` to ``path``, whole or
    not at all.  Each array is stored as its bytes in C order, so it must
    already have the dtype the header declares."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with replacing(path, "xb") as fh:
        fh.write(magic + len(blob).to_bytes(8, "little") + blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr))


def read_framed(path: str, magic: bytes, what: str, types: dict,
                build: Callable[[dict, IO[bytes]], T], render: Callable[[T], dict]) -> T:
    """``read_document`` of the header of the framed file at ``path``, where
    ``build(header, fh)`` reads the arrays with ``read_arrays``.  The file must
    be a regular one, as sizes are checked against its length."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # checked first: opening a FIFO waits
        raise ValueError("not a regular file")
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"not a longtail-lab {what}")
        length = fh.read(8)
        if len(length) < 8:
            raise ValueError("truncated header length field")
        header_len = int.from_bytes(length, "little")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < header_len:
            raise ValueError(f"truncated header ({left} of {header_len} bytes)")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"header is not valid JSON: {exc}") from None
        return read_document(header, what, types, lambda h: build(h, fh), render)


def read_arrays(fh: IO[bytes], entries: list[tuple[str, tuple, str]]) -> dict[str, np.ndarray]:
    """By name, the arrays ``(name, shape, dtype)`` of ``entries`` that fill
    the rest of the framed file ``fh`` in that order.  All sizes are checked
    against the file's length before an array is allocated, and each array is
    read straight into its own buffer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    for name, shape, dtype in entries:
        if min(shape, default=0) < 0:
            raise ValueError(f"parameter {name} has a negative dimension")
        left -= math.prod(shape) * np.dtype(dtype).itemsize
        if left < 0:
            raise ValueError(f"truncated parameter {name}")
    if left:
        raise ValueError(f"{left} trailing bytes after the last parameter")
    arrays = {}
    for name, shape, dtype in entries:
        arr = arrays[name] = np.empty(shape, dtype)
        if fh.readinto(arr) != arr.nbytes:
            raise ValueError(f"truncated parameter {name}")
    return arrays
