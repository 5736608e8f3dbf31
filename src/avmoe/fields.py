"""Strict JSON parsing, and type and range checks of dataclass fields against their annotations.

Every JSON file the package reads (the ``--config`` file, the task spec, the
manifest records and the checkpoint header) is parsed by ``parse_json``, which
refuses what ``json.loads`` lets through: a key repeated in one object, whose
last value would silently win, and nesting too deep to parse, which would
escape as ``RecursionError``. Both are a ``ValueError``, as malformed JSON is,
so each reader turns them into its own error.

The model, MoE and training configurations and the synthetic task spec are
filled from JSON, so any field may hold any JSON value. Their ``validate``
methods call ``check_fields`` before any arithmetic on the values, so that
a wrong type or an out-of-range number is a ``ConfigError``, not whatever
exception the arithmetic would raise.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

from .errors import ConfigError

Bounds = dict[str, tuple[float | None, float | None]]


def parse_json(text: str | bytes) -> typing.Any:
    """``json.loads``, refusing a repeated key or nesting too deep to parse with ``ValueError``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("nesting too deep to parse") from None


def _unique_keys(pairs: list[tuple[str, typing.Any]]) -> dict[str, typing.Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in obj if keys.count(k) > 1)!r} appears twice")
    return obj


def check_fields(obj, bounds: Bounds | None = None) -> None:
    """Raise ``ConfigError`` unless every field of the dataclass ``obj`` fits.

    A value fits its annotation by type: a ``bool`` is not an ``int``, an
    ``int`` is a ``float``, a ``float`` must be finite, and lists and dicts
    are checked element by element. ``bounds`` maps a field name to
    inclusive ``(low, high)`` limits, ``None`` for no limit.
    """
    hints = _type_hints(type(obj))
    for field in dataclasses.fields(obj):
        name = f"{type(obj).__name__}.{field.name}"
        value = getattr(obj, field.name)
        if not _fits(value, hints[field.name]):
            raise ConfigError(f"{name} must be {_describe(hints[field.name])}, got {value!r}")
        low, high = (bounds or {}).get(field.name, (None, None))
        if value is None:
            continue
        if (low is not None and value < low) or (high is not None and value > high):
            interval = f"[{'-inf' if low is None else low}, {'inf' if high is None else high}]"
            raise ConfigError(f"{name} must lie in {interval}, got {value!r}")


@functools.cache  # resolving the string annotations costs more than the checks
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _fits(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if hint is type(None):
        return value is None
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    if origin is list:
        return isinstance(value, list) and all(_fits(item, args[0]) for item in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items()
        )
    return isinstance(value, hint)


def _describe(hint) -> str:
    if hint is float:
        return "a finite number"
    if typing.get_origin(hint) in (typing.Union, types.UnionType, list, dict):
        return f"of type {hint}".replace("typing.", "")
    return f"of type {hint.__name__}"
