"""Bounded episode memory with cosine retrieval and JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError, UsageError
from ..sim.vehicles import MANEUVER_TOKENS, TOKEN_TO_MANEUVER, Maneuver

CAPACITY = 20
MAX_LESSON_CHARS = 2000
_SCHEMA_VERSION = 1
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
        self.z = np.asarray(self.z, dtype=float)
        if not isinstance(self.action, Maneuver):
            self.action = Maneuver(self.action)
        if self.outcome not in OUTCOMES:
            raise ConfigError(f"memory outcome must be one of {OUTCOMES}, got {self.outcome!r}")
        if len(self.lesson) > MAX_LESSON_CHARS:
            raise ConfigError(f"lesson exceeds {MAX_LESSON_CHARS} characters")

    def to_dict(self) -> dict:
        return {
            "z": [float(v) for v in self.z],
            "scenario_kind": self.scenario_kind,
            "action": MANEUVER_TOKENS[self.action],
            "outcome": self.outcome,
            "return": float(self.episode_return),
            "lesson": self.lesson,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryEntry":
        return cls(
            z=np.asarray(data["z"], dtype=float),
            scenario_kind=data["scenario_kind"],
            action=TOKEN_TO_MANEUVER[data["action"]],
            outcome=data["outcome"],
            episode_return=float(data["return"]),
            lesson=data.get("lesson", ""),
        )


class MemoryRepository:
    def __init__(self, capacity: int = CAPACITY):
        if capacity < 1:
            raise ConfigError("memory capacity must be at least 1")
        self.capacity = capacity
        self.entries: list[MemoryEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, entry: MemoryEntry) -> None:
        if len(self.entries) >= self.capacity:
            self._evict()
        self.entries.append(entry)

    def _evict(self) -> None:
        # lessons earned through reflection outlive ordinary episodes; among
        # the rest the least consequential (smallest |return|) goes first
        plain = [i for i, e in enumerate(self.entries) if not e.lesson]
        if plain:
            victim = min(plain, key=lambda i: abs(self.entries[i].episode_return))
        else:
            victim = 0
        del self.entries[victim]

    def to_dict(self) -> dict:
        return {
            "schema_version": _SCHEMA_VERSION,
            "capacity": self.capacity,
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryRepository":
        if data.get("schema_version") != _SCHEMA_VERSION:
            raise ConfigError(f"unsupported memory schema_version: {data.get('schema_version')!r}")
        repo = cls(capacity=int(data.get("capacity", CAPACITY)))
        for raw in data["entries"]:
            repo.add(MemoryEntry.from_dict(raw))
        return repo

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "MemoryRepository":
        return cls.from_dict(json.loads(Path(path).read_text()))


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
