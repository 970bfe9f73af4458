"""Conflict-time estimation and the risk functional used for episode flagging.

Pairwise conflict times come from constant-velocity extrapolation: the closed
form minimizes the squared distance between two linearly extrapolated
trajectories. A pair only counts as a conflict when the distance at that
closest approach is within the conflict radius; otherwise the time is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, UsageError
from .sim.vehicles import VehicleState

INF = math.inf


@dataclass(frozen=True)
class RiskParams:
    beta: float = 10.0  # infraction weight
    delta: float = 5.0  # flagging threshold
    conflict_radius: float = 4.0  # m
    horizon: float = 6.0  # s, extrapolation window

    def __post_init__(self):
        # written so that NaN fails them
        for name in ("beta", "delta", "conflict_radius", "horizon"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name}: must be positive, got {value}")
            if value == INF:
                raise ConfigError(f"{name}: must be finite, got {value}")


@dataclass
class ConflictAssessment:
    taus: dict[int, float]  # background vehicle id -> conflict time, inf when none
    tau_min: float


def closest_approach(ego: VehicleState, other: VehicleState, horizon: float,
                     ego_velocity: tuple[float, float] | None = None):
    """Time in [0, horizon] minimizing extrapolated distance, and that distance.

    `ego_velocity`, when given, is `ego.velocity`, worked out once by a caller
    that pairs the ego with many vehicles.
    """
    px, py = other.x - ego.x, other.y - ego.y
    evx, evy = ego.velocity if ego_velocity is None else ego_velocity
    ovx, ovy = other.velocity
    vx, vy = ovx - evx, ovy - evy
    vv = vx * vx + vy * vy
    if vv == 0.0:
        t = 0.0
    else:
        t = -(px * vx + py * vy) / vv
        t = min(max(t, 0.0), horizon)
    d = math.hypot(px + vx * t, py + vy * t)
    return t, d


def ttcp(ego: VehicleState, other: VehicleState, params: RiskParams,
         ego_velocity: tuple[float, float] | None = None) -> float:
    """Conflict time for the pair; +inf when the paths never come close enough.
    `ego_velocity` is as in `closest_approach`."""
    t, d = closest_approach(ego, other, params.horizon, ego_velocity)
    return t if d <= params.conflict_radius else INF


def assess(state, params: RiskParams) -> ConflictAssessment:
    """Per-vehicle conflict times against the ego; state exposes .ego/.background."""
    ego = state.ego
    ego_velocity = ego.velocity
    taus = {veh.id: ttcp(ego, veh, params, ego_velocity) for veh in state.background}
    return ConflictAssessment(taus=taus, tau_min=min(taus.values(), default=INF))


def risk_value(tau_min: float, infraction: bool, params: RiskParams) -> float:
    """Omega = max(1/tau, beta * infraction), with 1/inf treated as 0.

    tau is floored at 10 ms so an exact-zero conflict time stays finite and
    serializable while still dwarfing every realistic 1/tau.
    """
    inv = 0.0 if math.isinf(tau_min) else 1.0 / max(tau_min, 1e-2)
    return max(inv, params.beta if infraction else 0.0)


INFRACTION_EVENTS = frozenset({"collision", "off_road"})


def flag_segments(omegas: Sequence[float], params: RiskParams) -> list[tuple[int, int]]:
    """Maximal index ranges with omega >= delta, each padded by 2 leading steps.

    `omegas` holds one risk value per decision step. Ranges are inclusive
    [start, end] and are reported per run: pads may make neighboring ranges
    touch or overlap, but runs are never merged.
    """
    ranges = []
    start = None
    for i, w in enumerate(omegas):
        if w >= params.delta:
            if start is None:
                start = i
        elif start is not None:
            ranges.append((max(0, start - 2), i - 1))
            start = None
    if start is not None:
        ranges.append((max(0, start - 2), len(omegas) - 1))
    return ranges


def delta_ttcp_metric(tau_mins: Sequence[float], params: RiskParams) -> float:
    """Mean worst-case conflict margin per decision step, clamped at the horizon."""
    if len(tau_mins) == 0:
        raise UsageError("delta_ttcp_metric needs at least one decision step")
    return sum(min(t, params.horizon) for t in tau_mins) / len(tau_mins)
