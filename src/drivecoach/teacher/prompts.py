"""Prompt assembly for maneuver decisions and reflection.

The wording here is an artifact of this package, tuned for a small structured
reply. Two machine-readable lines ride along with the prose: CONSTRAINTS in
the system message and TELEMETRY in the user message. The scripted backend
and the parse-failure fallback both recover the decision inputs from them, so
every backend sees the exact same information.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from ..records import build_section
from ..sim.vehicles import MANEUVER_TOKENS
from .constraints import ConstraintRule
from .rules import Telemetry
from .state import ego_speed_of, neighbor_tau

MAX_PROMPT_TOKENS = 4000

ACTION_VOCABULARY = ", ".join(MANEUVER_TOKENS.values())

_ROAD_TEXT = {
    "merge": "on-ramp merge: the ego starts on the ramp (rightmost lane) and must join the mainline before the ramp ends",
    "highway": "multi-lane highway cruising among mixed traffic",
    "intersection": "unsignalized intersection: the ego approaches from the south and turns left across oncoming traffic",
}

_SYSTEM_TEMPLATE = """You are an experienced driving coach advising an autonomous vehicle. \
At each decision step you choose exactly one high-level maneuver.
Available maneuvers: {vocabulary}.
Heuristics: keep a comfortable margin to every conflict point, prefer gentle speed \
changes over hard braking, only change lanes into a gap that is safe for both you \
and the follower, and yield to crossing traffic.
{constraint_text}{lesson_text}CONSTRAINTS: {constraint_json}
Think step by step about collision severity, short- and long-term consequences, \
and the impact on surrounding traffic. Then answer with one final line containing \
only a JSON object: {{"action": "<maneuver>", "reason": "<one sentence>"}}."""


@dataclass
class Prompt:
    system: str
    user: str

    def messages(self) -> list[tuple[str, str]]:
        return [("system", self.system), ("user", self.user)]

    @property
    def tokens(self) -> int:
        return estimate_tokens(self.system) + estimate_tokens(self.user)


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


def _exemplar_block(index: int, entry, similarity: float) -> str:
    taus = [neighbor_tau(entry.z, slot) for slot in range(6)]
    lines = [
        f"Example {index} (similarity {similarity:.2f}, {entry.scenario_kind}):",
        f"  state: ego speed {ego_speed_of(entry.z):.1f} m/s, closest conflict {min(taus):.1f} s",
        f"  action: {MANEUVER_TOKENS[entry.action]}",
        f"  outcome: {entry.outcome} (return {entry.episode_return:.1f})",
    ]
    if entry.lesson:
        lines.append(f"  lesson: {entry.lesson}")
    return "\n".join(lines)


def _vehicle_line(obs, assessment, slot: int) -> str:
    px, py, vx, vy = (float(v) for v in obs.neighbors[:4, slot])
    vid = obs.neighbor_ids[slot]
    tau = assessment.taus[vid]
    dist = math.hypot(px, py)
    conflict = f"conflict in {tau:.1f} s" if math.isfinite(tau) else "no conflict"
    return f"- vehicle {vid}: {dist:.1f} m away at ({px:.1f}, {py:.1f}) m, relative velocity ({vx:.1f}, {vy:.1f}) m/s, {conflict}"


def build_prompt(obs, assessment, retrieved: Sequence, telemetry: Telemetry,
                 constraints: Sequence[ConstraintRule] = (),
                 lessons: Sequence[str] = (),
                 max_tokens: int = MAX_PROMPT_TOKENS) -> Prompt:
    """Compose the system+user message pair for one decision.

    `retrieved` holds (entry, similarity) pairs in descending similarity; each
    becomes one exemplar. When the budget is exceeded, the farthest vehicles
    drop out first, then the least similar exemplars.
    """
    if constraints:
        described = "\n".join(f"- {rule.describe()}" for rule in constraints)
        constraint_text = f"Active constraints:\n{described}\n"
    else:
        constraint_text = ""
    lesson_text = ""
    if lessons:
        listed = "\n".join(f"- {line}" for line in lessons)
        lesson_text = f"Lessons from past reflection:\n{listed}\n"
    system = _SYSTEM_TEMPLATE.format(
        vocabulary=ACTION_VOCABULARY,
        constraint_text=constraint_text,
        lesson_text=lesson_text,
        constraint_json=json.dumps([rule.to_dict() for rule in constraints]),
    )

    kind = telemetry.scenario_kind
    road = _ROAD_TEXT.get(kind, "road scene")
    ego_x, ego_y, ego_vx, ego_vy = (float(v) for v in obs.ego[:4])
    ego_speed = math.hypot(ego_vx, ego_vy)
    header = [
        f"Scenario: {kind} ({road}).",
        f"Ego: position ({ego_x:.1f}, {ego_y:.1f}) m, speed {ego_speed:.1f} m/s.",
        f"Ego is in lane {telemetry.lane}"
        + (f", goal lane {telemetry.goal_lane}" if telemetry.goal_lane is not None else "")
        + (f", {telemetry.ramp_left:.1f} m before the ramp ends."
           if math.isfinite(telemetry.ramp_left) else "."),
    ]

    vehicle_lines = [_vehicle_line(obs, assessment, s) for s in range(obs.neighbor_count)]

    if math.isfinite(assessment.tau_min):
        risk_line = f"Risk: closest conflict tau_min = {assessment.tau_min:g} s."
    else:
        risk_line = "Risk: no conflicts within the horizon."

    telemetry_line = "TELEMETRY: " + json.dumps(telemetry.to_dict())

    exemplar_blocks = [
        _exemplar_block(i + 1, entry, sim) for i, (entry, sim) in enumerate(retrieved)
    ]

    def assemble() -> str:
        parts = list(header)
        if vehicle_lines:
            parts.append("Nearby vehicles (closest first):")
            parts.extend(vehicle_lines)
        else:
            parts.append("No other vehicles in sensing range.")
        parts.append(risk_line)
        parts.append(telemetry_line)
        if exemplar_blocks:
            parts.append("Past cases for reference:")
            parts.extend(exemplar_blocks)
        parts.append("Decide now.")
        return "\n".join(parts)

    user = assemble()
    while estimate_tokens(system) + estimate_tokens(user) > max_tokens and vehicle_lines:
        vehicle_lines.pop()  # farthest first: lines are in ascending distance
        user = assemble()
    while estimate_tokens(system) + estimate_tokens(user) > max_tokens and exemplar_blocks:
        exemplar_blocks.pop()
        user = assemble()
    return Prompt(system=system, user=user)


@dataclass
class FlaggedSegment:
    """One contiguous risky stretch of an episode, ready for narration."""

    scenario_kind: str
    actions: list[str]  # maneuver tokens, one per step
    omegas: list[float]
    tau_mins: list[float]

    @property
    def peak_index(self) -> int:
        return max(range(len(self.omegas)), key=lambda i: self.omegas[i])


_REFLECTION_SYSTEM = """You are reviewing risky stretches of recent driving to improve future decisions.
For each segment you see the maneuvers taken, the risk values, and the conflict \
margins. Explain what went wrong and how to avoid it. Answer with one final line \
containing only a JSON object: {"policy_delta": "<behavior change>", \
"prompt_delta": "<what future prompts should stress>", "constraints": \
[{"scenario_kind": "<kind>", "forbidden_action": "<maneuver>", "guard": \
{"tau_min_lt": <seconds>}}]}. Use an empty list when no hard rule is warranted."""


def build_reflection_prompt(segments: Sequence[FlaggedSegment]) -> Prompt:
    lines = []
    worst = (None, -math.inf)
    for k, seg in enumerate(segments, start=1):
        peak = seg.peak_index
        lines.append(
            f"Segment {k} ({seg.scenario_kind}): actions {seg.actions}, "
            f"risk trace {[round(w, 2) for w in seg.omegas]}, "
            f"conflict margins {[round(t, 2) if math.isfinite(t) else None for t in seg.tau_mins]} s."
        )
        if seg.omegas[peak] > worst[1]:
            worst = (seg, seg.omegas[peak])
    seg = worst[0]
    # The culprit is the maneuver chosen while risk was still building, not
    # the late brake at the peak, so the summary points at the segment's first
    # non-braking action and the margin observed then. Guard thresholds round
    # up a decimal so the same margin trips the strict less-than next time.
    cause = next((i for i, a in enumerate(seg.actions) if a != "slow_down"), None)
    finite = [t for t in seg.tau_mins if math.isfinite(t)]
    floor = min(finite) if finite else 1.0
    tau = seg.tau_mins[cause] if cause is not None else floor
    if not math.isfinite(tau):
        tau = floor
    summary = {
        "scenario_kind": seg.scenario_kind,
        "action": seg.actions[cause] if cause is not None else "slow_down",
        # segment padding can start at a comfortable margin; a guard above the
        # cascade's own clear threshold would veto normal driving
        "tau_min": min(math.ceil(tau * 10.0) / 10.0, 4.0),
    }
    lines.append("REFLECTION: " + json.dumps(summary))
    lines.append("Reflect now.")
    return Prompt(system=_REFLECTION_SYSTEM, user="\n".join(lines))


def parse_telemetry(prompt: Prompt) -> Telemetry | None:
    for line in prompt.user.splitlines():
        if line.startswith("TELEMETRY: "):
            return Telemetry.from_dict(json.loads(line[len("TELEMETRY: "):]))
    return None


def parse_constraints(prompt: Prompt) -> list[ConstraintRule]:
    for line in prompt.system.splitlines():
        if line.startswith("CONSTRAINTS: "):
            raw = json.loads(line[len("CONSTRAINTS: "):])
            return [build_section(f"CONSTRAINTS[{i}]", ConstraintRule, r) for i, r in enumerate(raw)]
    return []
