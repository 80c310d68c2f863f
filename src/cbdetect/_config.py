"""JSON between cbdetect's files and its types: a config object decodes into
a dataclass, its schema; line-delimited files have one writer and one reader,
and a bad line (or file) raises the caller's error as ``<path>:<line>: <message>``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

# Casts by declared field type (annotations are strings under postponed
# evaluation); a tuple field of any element type takes ``tuple``.
_CASTS = {"int": int, "float": float, "str": str, "tuple": tuple}


def from_fields(cls: type, data: Mapping, **converted: object):
    """Build ``cls`` from a JSON object keyed by field name.

    A missing key takes the field's default and a key naming no field is a
    ``ValueError``. Scalar and tuple fields are cast by their declared type;
    ``converted`` holds the fields the caller has already built.
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"{cls.__name__}: expected a JSON object, got {type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    values = dict(converted)
    for name in data:
        if name in converted:
            continue
        try:
            values[name] = _CASTS[types[name].partition("[")[0]](data[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**values)


def write_lines(path, items: Iterable, encode: Callable[..., str]) -> Path:
    """Stream ``encode(item)``, a line with its newline, per item to ``path``
    (UTF-8, written as given: ``\n`` on every platform)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.writelines(map(encode, items))
    return path


def read_lines(path, build: Callable[[dict], object], error: type[Exception]) -> Iterator:
    """``build`` the JSON object of each line that is not blank; only ``\\n``
    ends a line. A line that fails UTF-8, JSON or ``build`` raises ``error``."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.isspace():
                yield decode_json(build, line, error, path, number)


def read_json(path, build: Callable[[dict], object], error: type[Exception]):
    """``build`` the JSON object a whole file holds; a failure raises ``error``."""
    return decode_json(build, Path(path).read_bytes(), error, path)


def decode_json(build, data: bytes, error, path, line=None):
    """``build`` the JSON object in ``data``; a failure raises ``error`` at ``path:line``."""
    try:
        record = json.loads(data.decode("utf-8"))
        if type(record) is not dict:
            raise TypeError(f"expected a JSON object, got {type(record).__name__}")
        return build(record)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        where = path if line is None else f"{path}:{line}"
        reason = f"missing key {exc}" if type(exc) is KeyError else exc
        raise error(f"{where}: {reason}") from None
