"""The one reader by which a typed record comes back into the program: config
sections, scenario state records and checkpoint meta all go through it."""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

from .errors import ConfigError

# resolving a class's hints evaluates every annotation string, so once per class
_type_hints = functools.cache(typing.get_type_hints)


def build_section(name: str, cls, data):
    """One `cls` dataclass from a mapping, each field read by its type hint;
    fields left out keep their defaults. An unknown, missing or mistyped key,
    or a value `cls` rejects, raises ConfigError naming `name.key`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected a mapping, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{name}: unknown key {sorted(unknown)[0]!r}")
    hints = _type_hints(cls)
    values = {key: _read(f"{name}.{key}", hints[key], value) for key, value in data.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:  # a missing field, or __post_init__'s checks
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"{name}: {err}") from err


def _read(name: str, anno, value):
    """`value` as type `anno`: a number (never a bool), `X | None`, `list[X]`, a
    nested dataclass from a mapping, or a value already of that type."""
    if anno in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        if anno is int and not float(value).is_integer():
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        return anno(value)
    origin = typing.get_origin(anno)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if value is None else _read(name, typing.get_args(anno)[0], value)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a list, got {value!r}")
        return [_read(f"{name}[{i}]", typing.get_args(anno)[0], v) for i, v in enumerate(value)]
    if dataclasses.is_dataclass(anno) and not isinstance(value, anno):
        return build_section(name, anno, value)
    if not isinstance(value, anno):
        raise ConfigError(f"{name}: expected {anno.__name__}, got {value!r}")
    return value
