"""Bounded episode memory with cosine retrieval and JSON persistence.

Schema 2: {"schema_version": 2, "capacity": n, "entries": [...]}, each entry
keyed by its MemoryEntry field names, with `z` a list of STATE_DIM numbers
and `action` a maneuver token such as "slow_down"."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, UsageError
from ..records import build_section
from ..sim.vehicles import MANEUVER_TOKENS, Maneuver
from .state import STATE_DIM

CAPACITY = 20
MAX_LESSON_CHARS = 2000
_SCHEMA_VERSION = 2  # 2: entry keys are the field names (`return` became `episode_return`)
OUTCOMES = ("success", "collision", "other")


@dataclass
class MemoryEntry:
    z: np.ndarray
    scenario_kind: str
    action: Maneuver
    outcome: str
    episode_return: float
    lesson: str = ""

    def __post_init__(self):
        if np.shape(self.z) != (STATE_DIM,):
            raise ConfigError(f"z: must hold {STATE_DIM} numbers, got shape {np.shape(self.z)}")
        if self.outcome not in OUTCOMES:
            raise ConfigError(f"outcome: must be one of {OUTCOMES}, got {self.outcome!r}")
        if len(self.lesson) > MAX_LESSON_CHARS:
            raise ConfigError(f"lesson: exceeds {MAX_LESSON_CHARS} characters")

    def to_dict(self) -> dict:
        return {**asdict(self), "z": [float(v) for v in self.z],
                "action": MANEUVER_TOKENS[self.action], "episode_return": float(self.episode_return)}


@dataclass(eq=False)
class MemoryRepository:
    capacity: int = CAPACITY
    entries: list[MemoryEntry] = field(default_factory=list)
    schema_version: int = _SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != _SCHEMA_VERSION:
            raise ConfigError(f"schema_version: {self.schema_version!r} is not {_SCHEMA_VERSION}")
        if self.capacity < 1:
            raise ConfigError(f"capacity: must be at least 1, got {self.capacity}")
        if len(self.entries) > self.capacity:
            raise ConfigError(f"entries: {len(self.entries)} exceed the capacity {self.capacity}")

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: MemoryEntry) -> None:
        if len(self.entries) >= self.capacity:
            self._evict()
        self.entries.append(entry)

    def _evict(self) -> None:
        # lessons earned through reflection outlive ordinary episodes; among
        # the rest the least consequential (smallest |return|) goes first
        plain = [i for i, e in enumerate(self.entries) if not e.lesson]
        del self.entries[min(plain, key=lambda i: abs(self.entries[i].episode_return), default=0)]

    def to_dict(self) -> dict:
        return {
            "schema_version": _SCHEMA_VERSION,
            "capacity": self.capacity,
            "entries": [e.to_dict() for e in self.entries],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "MemoryRepository":
        try:
            return build_section("memory", cls, json.loads(Path(path).read_text()))
        except (OSError, ValueError) as err:  # ConfigError and JSONDecodeError are ValueErrors
            raise ConfigError(f"memory file {path}: {err}") from err


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    # a zero vector has no direction; its similarity to anything is 0
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def retrieve(z: np.ndarray, memory: MemoryRepository, k: int) -> list[tuple[MemoryEntry, float]]:
    """Top-k memory entries by cosine similarity, most recent first on ties."""
    if k < 1:
        raise UsageError("retrieve needs k >= 1")
    z = np.asarray(z, dtype=float)
    scored = [
        (cosine_similarity(z, entry.z), index, entry)
        for index, entry in enumerate(memory.entries)
    ]
    scored.sort(key=lambda item: (-item[0], -item[1]))
    return [(entry, sim) for sim, _index, entry in scored[:k]]
