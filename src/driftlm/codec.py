"""The one JSON codec, for configs, Markov sources and checkpoints alike.

``jsonable`` turns dataclasses into objects, enums into their values,
tuples into lists and float64 arrays into nested lists; ``decode`` inverts
it from the dataclass type hints.  ``json.load`` with ``arrays_hook``
builds each object's arrays as it is parsed, and ``decode`` takes them for
array fields.  A bad document fails with an ``InvalidInputError`` naming the
dotted path (``params.w2``), and a decoded dataclass still runs its own
``__post_init__`` checks, whose errors a nested one prefixes with its path
(``params: w2 has shape ...``).
"""

from __future__ import annotations

import contextlib
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
    return InvalidInputError(f"{where} must be {expected}, got {reprlib.repr(jsonable(doc))}")


def arrays_hook(pairs) -> dict:
    """A ``json.load`` ``object_pairs_hook``: the object with each value that is
    a rectangular list of floats made a float64 array as soon as the object is
    parsed, so that its Python floats can go.

    ``decode`` takes such an array for an array field and shows it as its
    list in an error.  Floats only, so that this list is the parsed one; a
    tuple or enum field would still need the list itself.
    """
    doc = dict(pairs)
    for key, value in doc.items():
        if isinstance(value, list) and _leaf_types(value) == {float}:
            with contextlib.suppress(ValueError):  # ragged: ``decode`` names it
                doc[key] = np.array(value, dtype=np.float64)
    return doc


def decode(tp, doc, path: str = ""):
    """The value of type ``tp`` that the JSON data ``doc`` found at ``path`` encodes.

    A missing dataclass key takes the field default, if it has one.  An int
    may stand for a float, but a bool only for a bool.
    """
    where = path or "top-level"
    if dataclasses.is_dataclass(tp):
        if not isinstance(doc, dict):
            raise _mismatch(where, "an object", doc)
        prefix = f"{path}." if path else ""
        fields = dataclasses.fields(tp)
        unknown = sorted(set(doc) - {f.name for f in fields})
        if unknown:
            raise InvalidInputError(f"unknown {where} keys: {[prefix + k for k in unknown]}")
        missing = [prefix + f.name for f in fields if f.name not in doc and _required(f)]
        if missing:
            raise InvalidInputError(f"missing {where} keys: {missing}")
        hints = _type_hints(tp)
        kwargs = {k: decode(hints[k], v, prefix + k) for k, v in doc.items()}
        try:
            return tp(**kwargs)
        except InvalidInputError as exc:
            if not path:
                raise
            raise InvalidInputError(f"{path}: {exc}") from exc
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
        if isinstance(doc, np.ndarray):  # built by ``arrays_hook``
            return doc
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
    try:
        return tp(doc)
    except OverflowError as exc:  # an int beyond float range
        raise _mismatch(where, "a number within float range", doc) from exc


def load(tp, path):
    """Decode the JSON file at ``path`` as a ``tp``."""
    with open(path, "r", encoding="utf-8") as fh:
        return decode(tp, json.load(fh))


def dump(value, path) -> None:
    """Write ``jsonable(value)`` to ``path``: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(value), fh, sort_keys=True, indent=2)
        fh.write("\n")
