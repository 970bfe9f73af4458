"""Machine-checkable action constraints produced by reflection."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..sim.vehicles import MANEUVER_TOKENS, Maneuver

# guard keys compare against quantities the state vector carries
GUARD_KEYS = ("tau_min_lt", "tau_min_gt", "speed_lt", "speed_gt")


@dataclass(frozen=True)
class ConstraintRule:
    scenario_kind: str
    forbidden_action: Maneuver
    guard: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.guard:
            raise ConfigError("guard: must name at least one threshold")
        for key, value in self.guard.items():
            if key not in GUARD_KEYS:
                raise ConfigError(f"guard: unknown key {key!r}, expected one of {GUARD_KEYS}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"guard: {key} needs a numeric threshold, got {value!r}")

    def guard_holds(self, tau_min: float, speed: float) -> bool:
        g = self.guard
        if "tau_min_lt" in g and not tau_min < g["tau_min_lt"]:
            return False
        if "tau_min_gt" in g and not tau_min > g["tau_min_gt"]:
            return False
        if "speed_lt" in g and not speed < g["speed_lt"]:
            return False
        if "speed_gt" in g and not speed > g["speed_gt"]:
            return False
        return True

    def forbids(self, scenario_kind: str, action: Maneuver, tau_min: float, speed: float) -> bool:
        return (
            scenario_kind == self.scenario_kind
            and action == self.forbidden_action
            and self.guard_holds(tau_min, speed)
        )

    def describe(self) -> str:
        parts = []
        text = {"tau_min_lt": "tau_min < {} s", "tau_min_gt": "tau_min > {} s",
                "speed_lt": "speed < {} m/s", "speed_gt": "speed > {} m/s"}
        for key in GUARD_KEYS:
            if key in self.guard:
                parts.append(text[key].format(self.guard[key]))
        token = MANEUVER_TOKENS[self.forbidden_action]
        return f"never {token} when {' and '.join(parts)} ({self.scenario_kind})"

    def to_dict(self) -> dict:
        return {
            "scenario_kind": self.scenario_kind,
            "forbidden_action": MANEUVER_TOKENS[self.forbidden_action],
            "guard": dict(self.guard),
        }
