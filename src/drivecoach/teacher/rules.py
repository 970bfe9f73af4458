"""Deterministic teacher heuristic and the telemetry record it runs on.

The raw observation does not carry the ego's desired speed, its goal lane or
the road left before its lane ends, all of which the rule cascade needs, so
decisions run on a small Telemetry record the agent builds from the scenario
state. Each decision prompt carries that record beside the TELEMETRY line it
renders, so the scripted backend and the parse-failure fallback decide on
the same values a remote model reads.

The cascade, first match wins:
    1. a conflict ahead inside CONFLICT_TAU        -> SlowDown
    2. a goal lane with a safe gap                 -> turn toward it
    3. a goal lane, and the ramp ends within
       MUST_MERGE_TIME at the current speed        -> SlowDown, to drop
                                                      behind the platoon
    4. below SLOW_FRACTION of desired, road clear  -> SpeedUp
    5. otherwise                                   -> Cruise
Both merge rules outrank speeding up. The mainline platoon is paced near the
ego's target speed, so accelerating first carries the ego abeam of it and past
the gaps it could have taken; near the ramp end, accelerating only runs the
ramp out sooner. Highway and intersection have no goal lane, so rules 2 and 3
never fire there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from ..sim.engine import lane_neighbors
from ..sim.scenarios import MERGE_RAMP_END, MERGE_RAMP_LANE
from ..sim.vehicles import Maneuver, wrap_angle
from .constraints import ConstraintRule

CONFLICT_TAU = 2.0  # s, below this an ahead/crossing vehicle forces slowing
CLEAR_TAU = 4.0  # s, above this the road counts as clear for speeding up
SLOW_FRACTION = 0.8  # of desired speed, below this the ego is dawdling
GAP_BASE = 2.5  # m, minimum bumper gap for a lane change
GAP_HEADWAY = 0.3  # s, time-headway part of the gap check
GAP_CLOSING = 1.0  # s², weight on the closing-speed part of the gap check
MUST_MERGE_TIME = 5.0  # s of ramp left at the current speed, below this an unmerged ego brakes


@dataclass
class Telemetry:
    scenario_kind: str
    speed: float
    desired_speed: float
    lane: int
    goal_lane: int | None
    tau_min: float
    conflict_ahead: bool
    gap_lead: float = math.inf
    lead_speed: float = 0.0
    gap_follow: float = math.inf
    follower_speed: float = 0.0
    ramp_left: float = math.inf  # m to the end of the ego's lane; inf where it does not end

    def rounded(self) -> "Telemetry":
        """This record at the TELEMETRY line's precision: finite floats to 3
        places, infinities kept."""
        return replace(self, **{name: float(round(getattr(self, name), 3))
                                for name in _FLOAT_FIELDS})

    def to_dict(self) -> dict:
        """The TELEMETRY line's fields, in declaration order; JSON has no
        infinity, so null stands for one."""
        return {key: None if isinstance(value, float) and math.isinf(value) else value
                for key, value in vars(self).items()}


_FLOAT_FIELDS = ("speed", "desired_speed", "tau_min", "gap_lead", "lead_speed",
                 "gap_follow", "follower_speed", "ramp_left")


def _conflict_ahead(state, assessment) -> bool:
    """Is the closest-conflict vehicle ahead of the ego or on a crossing course?

    The closest is the smallest finite conflict time, ties to the lowest id.
    """
    taus = assessment.taus
    other = min((v for v in state.background if math.isfinite(taus[v.id])),
                key=lambda v: (taus[v.id], v.id), default=None)
    if other is None:
        return False
    ego = state.ego
    dx, dy = other.x - ego.x, other.y - ego.y
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    rel_x = c * dx + s * dy
    heading_gap = abs(wrap_angle(other.heading - ego.heading))
    crossing = math.pi / 4 < heading_gap < 3 * math.pi / 4
    return rel_x > 0.0 or crossing


def goal_lane_for(state) -> int | None:
    """Next lane toward the scenario goal, or None when no change is required."""
    region = state.config.success_region
    if region.max_lane is not None and state.ego.lane > region.max_lane:
        return state.ego.lane - 1
    return None


def ramp_left_for(state) -> float:
    """Distance to the end of the merge ramp while the ego is on it, else inf."""
    if state.config.kind == "merge" and state.ego.lane == MERGE_RAMP_LANE:
        return MERGE_RAMP_END - state.ego.x
    return math.inf


def build_telemetry(state, assessment) -> Telemetry:
    ego = state.ego
    goal = goal_lane_for(state)
    probe_lane = goal if goal is not None else ego.lane
    lead, gap_lead, follower, gap_follow = lane_neighbors(state, ego, probe_lane)
    return Telemetry(
        scenario_kind=state.config.kind,
        speed=ego.speed,
        desired_speed=ego.profile.desired_speed,
        lane=ego.lane,
        goal_lane=goal,
        tau_min=assessment.tau_min,
        conflict_ahead=_conflict_ahead(state, assessment),
        gap_lead=gap_lead,
        lead_speed=lead.speed if lead is not None else 0.0,
        gap_follow=gap_follow,
        follower_speed=follower.speed if follower is not None else 0.0,
        ramp_left=ramp_left_for(state),
    )


def gap_is_safe(telemetry: Telemetry) -> bool:
    speed, lead, follower = telemetry.speed, telemetry.lead_speed, telemetry.follower_speed
    need_ahead = GAP_BASE + GAP_HEADWAY * speed + GAP_CLOSING * max(0.0, speed - lead)
    need_behind = GAP_BASE + GAP_HEADWAY * follower + GAP_CLOSING * max(0.0, follower - speed)
    return telemetry.gap_lead >= need_ahead and telemetry.gap_follow >= need_behind


def _cascade(telemetry: Telemetry) -> Maneuver:
    if telemetry.tau_min < CONFLICT_TAU and telemetry.conflict_ahead:
        return Maneuver.SlowDown
    must_change = telemetry.goal_lane is not None and telemetry.goal_lane != telemetry.lane
    if must_change and gap_is_safe(telemetry):
        return Maneuver.TurnLeft if telemetry.goal_lane < telemetry.lane else Maneuver.TurnRight
    if must_change and telemetry.ramp_left < MUST_MERGE_TIME * telemetry.speed:
        return Maneuver.SlowDown
    if telemetry.speed < SLOW_FRACTION * telemetry.desired_speed and telemetry.tau_min > CLEAR_TAU:
        return Maneuver.SpeedUp
    return Maneuver.Cruise


def scripted_decide(telemetry: Telemetry,
                    constraints: Sequence[ConstraintRule] = ()) -> Maneuver:
    """Rule-cascade maneuver choice, honoring active constraints.

    Runs purely on the telemetry record, so the scripted backend and the
    fallback reach the same maneuver on the same prompt.
    """
    pick = _cascade(telemetry)
    order = [pick, Maneuver.Cruise, Maneuver.SlowDown, Maneuver.SpeedUp,
             Maneuver.TurnLeft, Maneuver.TurnRight]
    for action in order:
        forbidden = any(
            rule.forbids(telemetry.scenario_kind, action, telemetry.tau_min, telemetry.speed)
            for rule in constraints
        )
        if not forbidden:
            return action
    # contradictory rule set: braking is the least damaging way out
    return Maneuver.SlowDown
