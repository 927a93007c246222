"""The one JSON codec, for configs, Markov sources and checkpoints alike.

``jsonable`` turns dataclasses into objects, enums into their values,
tuples into lists and float64 arrays into nested lists; ``decode`` inverts
it from the dataclass type hints, and ``decode_items`` does so for a
dataclass whose key-value pairs arrive one at a time.  A bad document fails with an
``InvalidInputError`` naming the dotted path (``params.w2``), and
a decoded dataclass still runs its own ``__post_init__`` checks, whose
errors a nested one prefixes with its path (``params: w2 has shape ...``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import types
import typing
from enum import Enum

import numpy as np

from .numcore import InvalidInputError


def jsonable(value):
    """``value`` as JSON data; a float array becomes a nested list of floats."""
    if dataclasses.is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value


def _leaf_types(doc) -> set[type]:
    """The types of the items of a nested list that are not lists themselves."""
    if not isinstance(doc, list):
        return {type(doc)}
    if doc and isinstance(doc[0], list):
        return set().union(*map(_leaf_types, doc))
    return set(map(type, doc))


# a handful of dataclass types, each resolved once; callers only read the hints
_type_hints = functools.cache(typing.get_type_hints)


def _required(field: dataclasses.Field) -> bool:
    return field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING


def _mismatch(where: str, expected: str, doc) -> InvalidInputError:
    return InvalidInputError(f"{where} must be {expected}, got {reprlib.repr(doc)}")


def decode(tp, doc, path: str = ""):
    """The value of type ``tp`` that the JSON data ``doc`` found at ``path`` encodes.

    A missing dataclass key takes the field default, if it has one.  An int
    may stand for a float, but a bool only for a bool.
    """
    where = path or "top-level"
    if dataclasses.is_dataclass(tp):
        if not isinstance(doc, dict):
            raise _mismatch(where, "an object", doc)
        return decode_items(tp, doc.items(), path)
    origin = typing.get_origin(tp)
    if origin is types.UnionType:  # X | None
        if doc is None:
            return None
        (tp,) = set(typing.get_args(tp)) - {type(None)}
        return decode(tp, doc, path)
    if origin is tuple:  # tuple[T, ...]
        if not isinstance(doc, list):
            raise _mismatch(where, "a list", doc)
        (item, _) = typing.get_args(tp)
        return tuple(decode(item, v, f"{path}[{i}]") for i, v in enumerate(doc))
    if origin is dict:  # dict[str, T]
        if not isinstance(doc, dict):
            raise _mismatch(where, "an object", doc)
        (_, item) = typing.get_args(tp)
        return {k: decode(item, v, f"{path}[{k!r}]") for k, v in doc.items()}
    if tp is np.ndarray:
        if not isinstance(doc, list):
            raise _mismatch(where, "a list of numbers", doc)
        bad = _leaf_types(doc) - {int, float}
        if bad:
            names = sorted(t.__name__ for t in bad)
            raise InvalidInputError(f"{where} must hold only numbers, found {names}")
        try:
            return np.array(doc, dtype=np.float64)
        except (ValueError, OverflowError) as exc:  # ragged, or an int beyond float range
            raise InvalidInputError(f"{where} must be a rectangular list of numbers") from exc
    if issubclass(tp, Enum):
        values = [m.value for m in tp]
        if doc not in values:
            raise _mismatch(where, f"one of {values}", doc)
        return tp(doc)
    numeric = (int, float) if tp is float else tp
    if isinstance(doc, bool) != (tp is bool) or not isinstance(doc, numeric):
        raise _mismatch(where, tp.__name__, doc)
    return tp(doc)


def decode_items(tp, items, path: str = ""):
    """``decode(tp, dict(items), path)`` for a dataclass ``tp``, each value
    decoded as soon as ``items`` yields its ``(key, JSON data)`` pair, so a
    caller that parses the values one at a time holds one undecoded value
    at once.

    Errors wait until ``items`` is exhausted, so one that the iterator
    raises comes first; then come unknown keys, missing keys, the first bad
    value in key order and the dataclass's own checks.  A repeated key keeps
    its first place and its last value, as in ``json.load``.
    """
    where = path or "top-level"
    prefix = f"{path}." if path else ""
    fields = dataclasses.fields(tp)
    names = {f.name for f in fields}
    hints = _type_hints(tp)
    values = {}  # key -> decoded value, or the error decoding it raised
    for key, doc in items:
        try:
            values[key] = decode(hints[key], doc, prefix + key) if key in names else None
        except InvalidInputError as exc:
            values[key] = exc
        del doc  # let ``items`` parse the next value without this one
    unknown = sorted(set(values) - names)
    if unknown:
        raise InvalidInputError(f"unknown {where} keys: {[prefix + k for k in unknown]}")
    missing = [prefix + f.name for f in fields if f.name not in values and _required(f)]
    if missing:
        raise InvalidInputError(f"missing {where} keys: {missing}")
    for value in values.values():
        if isinstance(value, InvalidInputError):
            raise value
    try:
        return tp(**values)
    except InvalidInputError as exc:
        if not path:
            raise
        raise InvalidInputError(f"{path}: {exc}") from exc


def load(tp, path):
    """Decode the JSON file at ``path`` as a ``tp``."""
    with open(path, "r", encoding="utf-8") as fh:
        return decode(tp, json.load(fh))


def dump(value, path) -> None:
    """Write ``jsonable(value)`` to ``path``: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(value), fh, sort_keys=True, indent=2)
        fh.write("\n")
