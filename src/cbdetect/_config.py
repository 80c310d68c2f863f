"""JSON between cbdetect's files and its types: a config object decodes into
a dataclass, its schema; line-delimited files have one writer and one reader,
and a bad line (or file) raises the caller's error as ``<path>:<line>: <message>``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping

# The JSON values a field of each declared type takes (annotations are
# strings under postponed evaluation); a bool is no number.
_TAKES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string")}


def from_fields(cls: type, data: Mapping, **converted: object):
    """Build ``cls`` from a JSON object keyed by field name.

    A missing key takes the field's default and a key naming no field is a
    ``ValueError``. Each value must have its field's declared type: an int
    field takes an integer, a float field a finite number (an integer is
    widened), a str field a string and a tuple field an array of its element
    type. ``converted`` holds the fields the caller has already built.
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
            values[name] = _checked(types[name], data[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**values)


def _checked(declared: str, value):
    """``value`` as a field declared ``int``, ``float``, ``str`` or
    ``tuple[<one of those>, ...]``; a value of another type raises."""
    kind, _, item = declared.partition("[")
    if kind == "tuple":
        if type(value) is not list:
            raise TypeError(f"expected an array, got {type(value).__name__}")
        return tuple(_checked(item.partition(",")[0], v) for v in value)
    takes, name = _TAKES[kind]
    if type(value) is bool or not isinstance(value, takes):
        raise TypeError(f"expected {name}, got {type(value).__name__}")
    if kind == "float":
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value}")
    return value


def write_lines(path, items: Iterable, encode: Callable[..., str]) -> Path:
    """Stream ``encode(item)``, a line with its newline, per item to ``path``
    (UTF-8, written as given: ``\n`` on every platform)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.writelines(map(encode, items))
    return path


# bytes read per block, before the block is carried on to the next b"\n"
_BLOCK_BYTES = 1 << 16


def read_lines(path, build: Callable[[dict], object], error: type[Exception]) -> list:
    """``build`` the JSON object of each line that is not blank; only ``\\n``
    ends a line. A line that fails UTF-8, JSON or ``build`` raises ``error``.

    The file is read in blocks that end at a ``\\n`` byte, so a block holds
    whole lines and decodes on its own; each block is decoded once and each
    line's object scanned in place. Only one block's text is held at a
    time: one character beyond U+FFFF makes a whole decoded text 4 bytes a
    character. On any failure the file is read again line by line, the way
    that names the first bad line."""
    try:
        built = []
        with Path(path).open("rb") as handle:
            for block in iter(partial(handle.read, _BLOCK_BYTES), b""):
                block += handle.readline()
                built += _build_each(block.decode("utf-8"), build)
        return built
    except (StopIteration, ValueError, TypeError, KeyError, AttributeError):
        with open(path, "rb") as handle:
            return [
                decode_json(build, line, error, path, number)
                for number, line in enumerate(handle, 1)
                if not line.isspace()
            ]


# what bytes.isspace() counts as white space, bar the newline; str.isspace()
# counts more (U+0085, U+2028, ...), and such a line is not blank
_BLANK = " \t\r\x0b\x0c"
_scan = json.JSONDecoder().scan_once  # json.loads's scanner, called at an offset


def _build_each(text: str, build: Callable[[dict], object]) -> list:
    """``build`` each non-blank line's object, scanned where it stands in
    ``text``. A line must hold exactly one JSON object, at its start, and
    at most JSON white space after it; anything else raises."""
    built = []
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start)
        if end < 0:
            end = size
        try:
            record, stop = _scan(text, start)
        except StopIteration:  # no JSON value at the line's start
            if text[start:end].strip(_BLANK):
                raise ValueError("a line that is neither blank nor starts with a value") from None
            start = end + 1
            continue
        if type(record) is not dict or (
            stop != end and (stop > end or text[stop:end].strip(" \t\r"))
        ):
            raise ValueError("not one JSON object on the line")
        built.append(build(record))
        start = end + 1
    return built


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
