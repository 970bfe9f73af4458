"""Run configuration: one YAML file with sections mirroring the module
configs, dotted-key overrides, and named presets.

The fully resolved config is what gets dumped next to a run's artifacts;
loading that dump back must rebuild an identical GlobalConfig, so every
section round-trips through plain mappings with no lossy conversion.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .records import build_section
from .risk import RiskParams
from .sim.scenarios import ScenarioConfig
from .teacher import (
    CAPACITY,
    N_SHOT,
    MemoryRepository,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    TeacherAgent,
)
from .trainer import TrainConfig

BACKEND_KINDS = ("scripted", "remote")

# desk-scale run for quick experiments and CI; everything else is defaults
_MERGE_LITE = {
    "scenario": {"kind": "merge", "n_background": 5},
    "train": {"total_steps": 20_000, "eval_interval": 1000, "rollout_size": 640},
    "out_dir": "runs/merge-lite",
}

PRESETS = {
    "merge-lite": _MERGE_LITE,
    "paper": {},  # module defaults are the paper-scale values
}


@dataclass
class TeacherConfig:
    """Backend selection and memory settings for the teacher block."""

    backend: str = "scripted"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.2
    timeout: float = 30.0
    n_shot: int = N_SHOT
    memory_capacity: int = CAPACITY  # a preloaded memory file must hold the same
    memory_path: str = ""  # optional repository dump to preload

    def validate(self) -> None:
        """Range checks, written so that NaN fails them."""
        if self.backend not in BACKEND_KINDS:
            raise ConfigError(
                f"teacher.backend: {self.backend!r} is not one of {list(BACKEND_KINDS)}"
            )
        if self.backend == "remote":
            if not self.endpoint:
                raise ConfigError("teacher.endpoint: required for the remote backend")
            if not self.model:
                raise ConfigError("teacher.model: required for the remote backend")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"teacher.temperature: must be finite and >= 0, got {self.temperature}")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"teacher.timeout: must be finite and > 0, got {self.timeout}")
        if self.n_shot < 1:
            raise ConfigError(f"teacher.n_shot: must be >= 1, got {self.n_shot}")
        if self.memory_capacity < 1:
            raise ConfigError(
                f"teacher.memory_capacity: must be >= 1, got {self.memory_capacity}"
            )
        if self.memory_path and not Path(self.memory_path).exists():
            raise ConfigError(f"teacher.memory_path: {self.memory_path} does not exist")


@dataclass
class GlobalConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    risk: RiskParams = field(default_factory=RiskParams)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    out_dir: str = "runs/latest"

    def validate(self) -> None:
        # RiskParams validates itself at construction
        self.scenario.validate()
        self.train.validate()
        self.teacher.validate()
        if not self.out_dir:
            raise ConfigError("out_dir: must not be empty")


def from_mapping(data: dict) -> GlobalConfig:
    """Build a GlobalConfig from a plain mapping, rejecting unknown keys."""
    return build_section("", GlobalConfig, data)


def to_mapping(cfg: GlobalConfig) -> dict:
    return {**asdict(cfg), "scenario": cfg.scenario.to_dict()}


def load_mapping(source) -> dict:
    """Read a config mapping from a preset name or a YAML file path."""
    if source is None:
        return {}
    key = str(source)
    if key in PRESETS:
        return copy.deepcopy(PRESETS[key])
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as err:
        raise ConfigError(f"config file {path}: {err}") from err
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be a mapping")
    return data


def apply_overrides(mapping: dict, overrides) -> dict:
    """Apply dotted KEY=VALUE strings in order; values parse as YAML scalars."""
    for token in overrides:
        key, sep, raw = token.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override {token!r}: expected KEY=VALUE")
        try:
            value = yaml.safe_load(raw) if raw.strip() else ""
        except yaml.YAMLError:
            value = raw
        node = mapping
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r}: {part!r} is not a section")
            node = nxt
        node[parts[-1]] = value
    return mapping


def save_config(cfg: GlobalConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(to_mapping(cfg), sort_keys=True))


def build_teacher(cfg: GlobalConfig, record=None, replay=None) -> TeacherAgent:
    """Assemble the teacher stack described by the config's teacher block.

    record wraps the backend so every exchange lands in a transcript file;
    replay substitutes a previously recorded transcript for the backend.
    """
    tc = cfg.teacher
    if replay is not None:
        backend = ReplayBackend(replay)
    elif tc.backend == "remote":
        backend = RemoteBackend(tc.endpoint, tc.model, timeout=tc.timeout,
                                temperature=tc.temperature)
    else:
        backend = ScriptedBackend()
    if record is not None:
        backend = RecordingBackend(backend, record)
    if tc.memory_path:
        memory = MemoryRepository.load(tc.memory_path)
        if memory.capacity != tc.memory_capacity:
            raise ConfigError(
                f"teacher.memory_capacity: {tc.memory_capacity} does not match the "
                f"capacity {memory.capacity} saved in {tc.memory_path}")
    else:
        memory = MemoryRepository(capacity=tc.memory_capacity)
    return TeacherAgent(backend, cfg.risk, memory=memory, n_shot=tc.n_shot)
