"""Decision and reflection flows on top of a chat backend.

The agent renders each prompt from typed records and hands the backend the
Prompt, which carries those records. decide() never raises for backend
trouble: two retries on unparseable output, then the scripted cascade runs on
the prompt's telemetry and constraints. reflect() is best-effort the same way
and returns empty deltas on failure.
"""

from __future__ import annotations

import json
import math
import re
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError
from ..records import build_section
from ..risk import RiskParams, assess
from ..sim.engine import observe
from ..sim.vehicles import TOKEN_TO_MANEUVER, Maneuver
from .backends import BackendError, ChatBackend
from .constraints import ConstraintRule
from .memory import MemoryEntry, MemoryRepository, retrieve
from .prompts import FlaggedSegment, Prompt, build_prompt, build_reflection_prompt
from .rules import build_telemetry, scripted_decide
from .state import encode_state

MAX_ATTEMPTS = 3  # first try plus two retries
N_SHOT = 3  # exemplars retrieved per decision

_SOURCE_BY_KIND = {"remote": "llm", "replay": "llm", "scripted": "scripted"}


@dataclass
class TeacherDecision:
    action: Maneuver
    rationale: str
    source: str  # llm | scripted | fallback
    latency: float


@dataclass
class ReflectionOutcome:
    policy_delta: str = ""
    prompt_delta: str = ""
    constraint_delta: list[ConstraintRule] = field(default_factory=list)


def _last_json_object(text: str) -> dict | None:
    for line in reversed(text.splitlines()):
        if "{" not in line:
            continue
        for match in re.finditer(r"\{.*\}", line):
            try:
                obj = json.loads(match.group())
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                return obj
    return None


def parse_decision_reply(text: str) -> tuple[Maneuver, str] | None:
    obj = _last_json_object(text)
    if obj is None:
        return None
    action = obj.get("action")
    # a list or a mapping cannot be looked up, and no other non-string names a maneuver
    if not isinstance(action, str) or action not in TOKEN_TO_MANEUVER:
        return None
    return TOKEN_TO_MANEUVER[action], str(obj.get("reason", ""))


def decide(prompt: Prompt, backend: ChatBackend) -> TeacherDecision:
    start = time.perf_counter()
    for _attempt in range(MAX_ATTEMPTS):
        try:
            reply = backend.chat(prompt)
        except BackendError:
            break
        parsed = parse_decision_reply(reply)
        if parsed is not None:
            action, reason = parsed
            source = _SOURCE_BY_KIND.get(backend.kind, "llm")
            return TeacherDecision(action, reason, source, time.perf_counter() - start)
    if prompt.telemetry is not None:
        action = scripted_decide(prompt.telemetry, prompt.constraints)
    else:  # nothing to decide on: brake gently
        action = Maneuver.SlowDown
    return TeacherDecision(action, "backend unavailable, scripted fallback",
                           "fallback", time.perf_counter() - start)


def reflect(flagged: list[FlaggedSegment], backend: ChatBackend) -> ReflectionOutcome:
    prompt = build_reflection_prompt(flagged)
    try:
        reply = backend.chat(prompt)
    except BackendError:
        return ReflectionOutcome()
    obj = _last_json_object(reply)
    if obj is None:
        return ReflectionOutcome()
    raw_rules = obj.get("constraints")
    if raw_rules is not None and not isinstance(raw_rules, list):
        warnings.warn(f"dropping reflection constraints that are not a list: {raw_rules!r}", stacklevel=2)
    rules = []
    for i, raw in enumerate(raw_rules if isinstance(raw_rules, list) else []):
        try:
            rules.append(build_section(f"reflection.constraints[{i}]", ConstraintRule, raw))
        except ConfigError as err:
            warnings.warn(f"dropping malformed reflection constraint: {err}", stacklevel=2)
    return ReflectionOutcome(
        policy_delta=_text_delta(obj, "policy_delta"),
        prompt_delta=_text_delta(obj, "prompt_delta"),
        constraint_delta=rules,
    )


def _text_delta(obj: dict, key: str) -> str:
    """The reply's string at key; a value of another type is dropped, as its
    repr would otherwise become a lesson in every later prompt."""
    value = obj.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        warnings.warn(f"dropping reflection {key} that is not a string: {value!r}", stacklevel=3)
        return ""
    return value


@dataclass
class SavedTeacher:
    """The teacher block of a checkpoint, as `TeacherAgent.state_dict` writes it."""

    kind: str
    n_shot: int
    memory: MemoryRepository
    constraints: list[ConstraintRule]
    lessons: list[str]
    decision_queries: int
    reflection_queries: int
    prev_tau: float | None  # None for infinity

    def __post_init__(self):
        if self.n_shot < 1:
            raise ConfigError(f"n_shot: must be >= 1, got {self.n_shot}")


class TeacherAgent:
    """Owns the memory, constraints, and lessons; queries are audited.

    decision_queries counts decide_step calls (one per decision step while the
    teacher is active); reflection_queries counts reflect calls separately.
    """

    def __init__(self, backend: ChatBackend, risk_params: RiskParams | None = None,
                 memory: MemoryRepository | None = None, n_shot: int = N_SHOT):
        self.backend = backend
        self.risk_params = risk_params or RiskParams()
        # empty repositories are falsy, so the None check must be explicit
        self.memory = memory if memory is not None else MemoryRepository()
        self.n_shot = n_shot
        self.constraints: list[ConstraintRule] = []
        self.lessons: list[str] = []
        self.decision_queries = 0
        self.reflection_queries = 0
        self.last_prompt: Prompt | None = None  # most recent decision prompt, for inspection
        self._prev_tau = math.inf  # previous step's tau_min, for hysteresis

    def decide_step(self, state, obs=None, assessment=None) -> tuple[TeacherDecision, np.ndarray]:
        """Full pipeline for one decision step; returns the decision and z.
        obs and assessment, if given, must be observe(state) and assess(state, self.risk_params)."""
        obs = observe(state) if obs is None else obs
        assessment = assess(state, self.risk_params) if assessment is None else assessment
        telemetry = build_telemetry(state, assessment)
        # The point-mass conflict metric can flicker to infinity for one step
        # while two paths still intersect (a turning ego breaks its constant
        # velocity assumption), so the cascade sees the worse of the last two
        # readings rather than chasing a momentary all-clear. Rounded after
        # that, the record holds what the prompt's TELEMETRY line shows.
        if state.decision_step == 0:
            self._prev_tau = math.inf
        telemetry = replace(telemetry, tau_min=min(telemetry.tau_min, self._prev_tau)).rounded()
        self._prev_tau = assessment.tau_min
        z = encode_state(obs, assessment, horizon=self.risk_params.horizon)
        retrieved = retrieve(z, self.memory, self.n_shot) if len(self.memory) else []
        prompt = build_prompt(obs, assessment, retrieved, telemetry,
                              constraints=self.constraints, lessons=self.lessons)
        self.last_prompt = prompt
        self.decision_queries += 1
        return decide(prompt, self.backend), z

    def record_episode(self, z, scenario_kind: str, action: Maneuver,
                       outcome: str, episode_return: float) -> None:
        entry = MemoryEntry(z=z, scenario_kind=scenario_kind, action=action,
                            outcome=outcome, episode_return=episode_return)
        self.memory.add(entry)

    def run_reflection(self, flagged: list[FlaggedSegment]) -> ReflectionOutcome:
        if not flagged:
            return ReflectionOutcome()
        self.reflection_queries += 1
        outcome = reflect(flagged, self.backend)
        if outcome.policy_delta and outcome.policy_delta not in self.lessons:
            self.lessons.append(outcome.policy_delta)
        if outcome.prompt_delta and outcome.prompt_delta not in self.lessons:
            self.lessons.append(outcome.prompt_delta)
        for rule in outcome.constraint_delta:
            if rule not in self.constraints:
                self.constraints.append(rule)
        return outcome

    def state_dict(self) -> dict:
        return {
            "kind": self.backend.kind,
            "n_shot": self.n_shot,
            "memory": self.memory.to_dict(),
            "constraints": [rule.to_dict() for rule in self.constraints],
            "lessons": list(self.lessons),
            "decision_queries": self.decision_queries,
            "reflection_queries": self.reflection_queries,
            "prev_tau": None if math.isinf(self._prev_tau) else self._prev_tau,
        }

    def load_state_dict(self, data: dict) -> None:
        saved = build_section("teacher", SavedTeacher, data)
        if saved.kind != self.backend.kind:
            warnings.warn(f"teacher saved on the {saved.kind!r} backend resumes on {self.backend.kind!r}", stacklevel=2)
        self.n_shot = saved.n_shot
        self.memory = saved.memory
        self.constraints = saved.constraints
        self.lessons = saved.lessons
        self.decision_queries = saved.decision_queries
        self.reflection_queries = saved.reflection_queries
        self._prev_tau = math.inf if saved.prev_tau is None else saved.prev_tau
