"""The one reader by which a typed record comes back into the program: the
config, scenario state records, checkpoint meta and its teacher block, teacher
memory files, replay transcripts and reflection constraints all go through
it. Prompts are not read back: each carries the records its lines show."""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing

import numpy as np

from .errors import ConfigError

# resolving a class's hints evaluates every annotation string, so once per class
_type_hints = functools.cache(typing.get_type_hints)


def build_section(name: str, cls, data):
    """One `cls` dataclass from a mapping, each field read by its type hint;
    fields left out keep their defaults. An unknown, missing or mistyped key,
    or a value `cls` rejects, raises ConfigError naming `name.key` (`cls` names
    a field by starting its error `key: `). The config root's name is ""."""
    where = name or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    prefix = f"{name}." if name else ""
    hints = _type_hints(cls)
    values = {key: _read(prefix + key, hints[key], value) for key, value in data.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:  # a missing field, or __post_init__'s checks
        if str(err).partition(": ")[0] in hints:
            raise ConfigError(f"{prefix}{err}") from err
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"{where}: {err}") from err


def _read(name: str, anno, value):
    """`value` as type `anno`: a number (never a bool), `X | None`, `list[X]`, a
    nested dataclass from a mapping, an array from a list of numbers, an enum
    member from a string the enum looks up, or a value already of that type."""
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
    if anno is np.ndarray and isinstance(value, list):
        return np.array([_read(f"{name}[{i}]", float, v) for i, v in enumerate(value)])
    if isinstance(anno, enum.EnumMeta) and isinstance(value, str):
        try:
            return anno(value)
        except ValueError:
            raise ConfigError(f"{name}: unknown {anno.__name__} {value!r}") from None
    if not isinstance(value, anno):
        raise ConfigError(f"{name}: expected {anno.__name__}, got {value!r}")
    return value
