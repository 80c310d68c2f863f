"""Decode JSON config objects into dataclasses; the dataclass is the schema."""

from __future__ import annotations

import dataclasses
from typing import Mapping

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
