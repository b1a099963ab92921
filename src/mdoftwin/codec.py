"""One dict codec derived from dataclass fields, the JSON and CSV writers,
and the one rule for the seeds of numpy's generators (``check_seed``).

``to_dict`` writes every field under its name: nested dataclasses as dicts,
tuples and arrays as lists, numpy scalars as Python numbers. ``from_dict``
reads the fields back by their type hints and raises InvalidParameterError
for an unknown key, a missing field without a default, a scalar of the
wrong type, an array that does not hold numbers, or a non-finite float or
array entry (``write_json`` refuses those, so no written document holds
one). Scalars are not coerced, so ``to_dict(from_dict(doc)) == doc``.
A ``@codec`` class reads its fields by the same rules on construction, so a
constructor refuses what ``from_dict`` refuses, naming the field.
``decode`` applies the same rules to one value of a document that is not a
dataclass, such as a config section or a window sidecar field.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import operator
import os
import types
import typing
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, NumericError

_SCALARS = {float: (int, float), int: (int,), str: (str,), bool: (bool,)}

Seed = typing.NewType("Seed", int)  # a field read by ``check_seed``


def codec(cls):
    """Install ``to_dict``/``from_dict`` in the dataclass's own ``__dict__``, and
    read every field with ``decode``, under its name, on construction before the
    class's own ``__post_init__``: a constructor applies the rules of ``from_dict``."""
    post_init = cls.__post_init__

    def __post_init__(self):
        for name, hint in _hints(cls).items():
            object.__setattr__(self, name, decode(hint, getattr(self, name), name))
        post_init(self)

    def to_dict(self) -> dict:
        return _encode(self)

    def from_dict(klass, doc: dict):
        return decode(klass, doc, klass.__name__)

    cls.__post_init__ = __post_init__
    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    return cls


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _encode(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def decode(hint, value, where: str):
    """``value`` read as type ``hint`` by the rules above; ``where`` names it
    in the InvalidParameterError raised for a value of another type. An
    instance of a dataclass hint is taken as it is, a numpy scalar as the
    matching Python scalar, and a ``Seed`` by ``check_seed``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return decode(hint, value, where)
    if hint is Seed:
        return check_seed(value, where)
    if isinstance(value, np.generic):
        value = value.item()
    if dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if not isinstance(value, dict):
            raise InvalidParameterError(f"{where} must be an object")
        return _decode_fields(hint, value, where)
    if hint is np.ndarray:
        try:
            array = np.asarray(value)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"{where}: {exc}") from exc
        if array.dtype.kind not in "iuf":
            raise InvalidParameterError(f"{where} must hold numbers, got {value!r}")
        if not np.isfinite(array).all():
            raise InvalidParameterError(f"{where} must be finite, got {value!r}")
        return array.astype(float, copy=False)
    if hint is tuple or origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidParameterError(f"{where} must be a list")
        if args and args[-1] is not Ellipsis and len(args) != len(value):
            raise InvalidParameterError(f"{where} must have {len(args)} entries")
        return tuple(decode(args[0] if args else object, item, where) for item in value)
    if hint is dict or origin is dict:
        if not isinstance(value, dict):
            raise InvalidParameterError(f"{where} must be an object")
        return {key: decode(args[1] if args else object, item, f"{where}.{key}")
                for key, item in value.items()}
    if hint in _SCALARS and (not isinstance(value, _SCALARS[hint])
                             or (isinstance(value, bool) and hint is not bool)):
        raise InvalidParameterError(
            f"{where} must be of type {hint.__name__}, got {value!r}")
    if hint is float and not math.isfinite(value):
        raise InvalidParameterError(f"{where} must be finite, got {value!r}")
    return value


def _decode_fields(cls, doc: dict, where: str):
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise InvalidParameterError(f"unknown key {unknown[0]!r} in {where}")
    hints = _hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in doc:
            kwargs[f.name] = decode(hints[f.name], doc[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise InvalidParameterError(f"{where} is missing {f.name!r}")
    return cls(**kwargs)


def check_seed(seed, name: str) -> int:
    """``seed`` as an int; InvalidParameterError naming it unless it is a
    non-negative integer (a numpy integer too, a bool not), the seeds numpy's
    generators take."""
    try:
        value = -1 if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise InvalidParameterError(f"{name} must be a non-negative integer, got {seed!r}")
    return value


def write_json(path, doc) -> None:
    """Write ``doc`` as sorted, indented JSON plus a newline, atomically: a
    temporary file beside ``path``, flushed to disk, then renamed over it.
    A non-finite number, which strict JSON cannot hold, raises NumericError.
    On failure the temporary file is removed and a previous file at
    ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            try:
                json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
            except ValueError as exc:
                raise NumericError(f"cannot write {path}: {exc}") from exc
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows`` (a 2-D float table, possibly empty)
    with each value as ``repr(float)``, in the default ``csv`` dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(repr, row) for row in np.asarray(rows, dtype=float).tolist())
