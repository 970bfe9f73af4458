"""Decision and reflection flows on top of a chat backend.

decide() never raises for backend trouble: two retries on unparseable output,
then the scripted cascade recovers a maneuver from the prompt's telemetry
line. reflect() is best-effort the same way and returns empty deltas on
failure.
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
from .backends import BackendError, ChatBackend, scripted_pick
from .constraints import ConstraintRule
from .memory import MemoryEntry, MemoryRepository, retrieve
from .prompts import FlaggedSegment, Prompt, build_prompt, build_reflection_prompt
from .rules import build_telemetry
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
    if action not in TOKEN_TO_MANEUVER:
        return None
    return TOKEN_TO_MANEUVER[action], str(obj.get("reason", ""))


def decide(prompt: Prompt, backend: ChatBackend) -> TeacherDecision:
    start = time.perf_counter()
    for _attempt in range(MAX_ATTEMPTS):
        try:
            reply = backend.chat(prompt.messages())
        except BackendError:
            break
        parsed = parse_decision_reply(reply)
        if parsed is not None:
            action, reason = parsed
            source = _SOURCE_BY_KIND.get(backend.kind, "llm")
            return TeacherDecision(action, reason, source, time.perf_counter() - start)
    picked = scripted_pick(prompt)
    # nothing recoverable: brake gently
    action = picked[0] if picked is not None else Maneuver.SlowDown
    return TeacherDecision(action, "backend unavailable, scripted fallback",
                           "fallback", time.perf_counter() - start)


def reflect(flagged: list[FlaggedSegment], backend: ChatBackend) -> ReflectionOutcome:
    prompt = build_reflection_prompt(flagged)
    try:
        reply = backend.chat(prompt.messages())
    except BackendError:
        return ReflectionOutcome()
    obj = _last_json_object(reply)
    if obj is None:
        return ReflectionOutcome()
    rules = []
    for i, raw in enumerate(obj.get("constraints") or []):
        try:
            rules.append(build_section(f"reflection.constraints[{i}]", ConstraintRule, raw))
        except ConfigError as err:
            warnings.warn(f"dropping malformed reflection constraint: {err}", stacklevel=2)
    return ReflectionOutcome(
        policy_delta=str(obj.get("policy_delta", "") or ""),
        prompt_delta=str(obj.get("prompt_delta", "") or ""),
        constraint_delta=rules,
    )


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

    def decide_step(self, state) -> tuple[TeacherDecision, np.ndarray]:
        """Full pipeline for one decision step; returns the decision and z."""
        obs = observe(state)
        assessment = assess(state, self.risk_params)
        telemetry = build_telemetry(state, assessment)
        # The point-mass conflict metric can flicker to infinity for one step
        # while two paths still intersect (a turning ego breaks its constant
        # velocity assumption), so the cascade sees the worse of the last two
        # readings rather than chasing a momentary all-clear.
        if state.decision_step == 0:
            self._prev_tau = math.inf
        telemetry = replace(telemetry, tau_min=min(telemetry.tau_min, self._prev_tau))
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
        if data["kind"] != self.backend.kind:
            warnings.warn(f"teacher saved on the {data['kind']!r} backend resumes on {self.backend.kind!r}", stacklevel=2)
        self.n_shot = data["n_shot"]
        self.memory = build_section("teacher.memory", MemoryRepository, data["memory"])
        self.constraints = [build_section(f"teacher.constraints[{i}]", ConstraintRule, raw)
                            for i, raw in enumerate(data["constraints"])]
        self.lessons = data["lessons"]
        self.decision_queries = data["decision_queries"]
        self.reflection_queries = data["reflection_queries"]
        self._prev_tau = math.inf if data["prev_tau"] is None else data["prev_tau"]
