"""Type and range checks of dataclass fields against their annotations.

The model, MoE and training configurations and the synthetic task spec are
filled from JSON, so any field may hold any JSON value. Their ``validate``
methods call ``check_fields`` before any arithmetic on the values, so that
a wrong type or an out-of-range number is a ``ConfigError``, not whatever
exception the arithmetic would raise.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import ConfigError

Bounds = dict[str, tuple[float | None, float | None]]


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
