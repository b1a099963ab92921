"""One dict codec derived from dataclass fields, the JSON and CSV writers,
and the one rule for the seeds of numpy's generators (``check_seed``).

``to_dict`` writes every field under its name: nested dataclasses as dicts,
tuples and arrays as lists, numpy scalars as Python numbers. A ``@codec``
class reads each field by its type hint on construction, the only reader of
a record: ``from_dict`` refuses an unknown key or a missing field without a
default and hands the raw values to the constructor. InvalidParameterError
names the field for a scalar of the wrong type, an array that does not hold
numbers, a non-finite float or array entry (``write_json`` refuses those) or
a value out of range, by its full path when read from a document
(``TwinSnapshot.config.integrator.dt must be positive``). Scalars are not
coerced, so ``to_dict(from_dict(doc)) == doc``. ``decode`` applies the same
rules to one value that is not a dataclass, such as a window sidecar field
or a ``TypedDict`` record of the twin's history, read key by key.
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
    class's own ``__post_init__``; ``from_dict`` hands a document's values to it."""
    post_init = cls.__post_init__

    def __post_init__(self):
        for name, hint in _hints(cls).items():
            object.__setattr__(self, name, decode(hint, getattr(self, name), name))
        post_init(self)

    def from_dict(klass, doc: dict):
        return decode(klass, doc, klass.__name__)

    cls.__post_init__ = __post_init__
    cls.to_dict = _encode
    cls.from_dict = classmethod(from_dict)
    return cls


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


@functools.cache
def _required(cls) -> frozenset:
    """The keys of a dataclass or ``TypedDict`` that a document must hold."""
    if typing.is_typeddict(cls):
        return cls.__required_keys__
    return frozenset(f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)


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
    in the InvalidParameterError raised for a value of another type, and the
    index of a bad list entry. An instance of a dataclass hint is taken as it
    is, a dict as its constructor's arguments, a numpy scalar or 0-d array as
    the matching Python scalar, a ``TypedDict`` as a plain dict of exactly
    its keys, and a ``Seed`` by ``check_seed``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return decode(hint, value, where)
    if hint is Seed:
        return check_seed(value, where)
    if isinstance(value, np.generic) or (isinstance(value, np.ndarray) and not value.ndim):
        value = value.item()
    if hint in _SCALARS:
        if not isinstance(value, _SCALARS[hint]) or (isinstance(value, bool) and hint is not bool):
            raise InvalidParameterError(
                f"{where} must be of type {hint.__name__}, got {value!r}")
        if hint is float and not math.isfinite(value):
            raise InvalidParameterError(f"{where} must be finite, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint) and isinstance(value, hint):
        return value
    if dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        if not isinstance(value, dict):
            raise InvalidParameterError(f"{where} must be an object")
        unknown = sorted(set(value) - set(_hints(hint)))
        if unknown:
            raise InvalidParameterError(f"{where} has unknown key {unknown[0]!r}")
        raw = dataclasses.is_dataclass(hint)  # read by its @codec constructor
        values = {}
        for key, key_hint in _hints(hint).items():
            if key in value:
                values[key] = value[key] if raw else decode(key_hint, value[key], f"{where}.{key}")
            elif key in _required(hint):
                raise InvalidParameterError(f"{where} is missing {key!r}")
        try:
            return hint(**values)  # a TypedDict makes a plain dict
        except InvalidParameterError as exc:  # it names the field under ``where``
            raise InvalidParameterError(f"{where}.{exc}") from exc
    if hint is np.ndarray:
        try:
            array = np.asarray(value)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"{where}: {exc}") from exc
        if array.dtype.kind not in "iuf":
            raise InvalidParameterError(f"{where} must hold numbers, got {value!r}")
        problem = not_finite(array, where)
        if problem is not None:
            raise InvalidParameterError(problem)
        return array.astype(float, copy=False)
    if hint in (list, tuple) or origin in (list, tuple):
        as_list = list in (hint, origin)  # a list field takes a list, a tuple either
        if not isinstance(value, list if as_list else (list, tuple)):
            raise InvalidParameterError(f"{where} must be a list")
        if origin is tuple and args[-1] is not Ellipsis and len(args) != len(value):
            raise InvalidParameterError(f"{where} must have {len(args)} entries")
        items = [decode(args[0] if args else object, item, f"{where}[{i}]")
                 for i, item in enumerate(value)]
        return items if as_list else tuple(items)
    if hint is dict or origin is dict:
        if not isinstance(value, dict):
            raise InvalidParameterError(f"{where} must be an object")
        return {key: decode(args[1] if args else object, item, f"{where}.{key}")
                for key, item in value.items()}
    return value


def not_finite(values: np.ndarray, where: str) -> str | None:
    """``"<where> is not finite at sample <i>"`` for the first sample (row)
    of ``values`` holding a non-finite number, counted from 0; None when
    every value is finite."""
    if np.isfinite(values).all():
        return None
    rows = values.reshape(values.shape[0] if values.ndim else 1, -1)
    return f"{where} is not finite at sample {int(np.argmin(np.isfinite(rows).all(axis=1)))}"


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
