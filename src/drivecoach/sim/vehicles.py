"""Vehicle state, driver profiles, and the high-level maneuver vocabulary."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


_TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, _TWO_PI)
    if a <= 0.0:
        a += _TWO_PI
    return a - math.pi


class Maneuver(enum.IntEnum):
    """The five high-level actions; integer codes index the policy head."""

    SlowDown = 0
    Cruise = 1
    SpeedUp = 2
    TurnLeft = 3
    TurnRight = 4

    @classmethod
    def _missing_(cls, value):
        # a wire token names its member too: Maneuver("slow_down")
        return TOKEN_TO_MANEUVER.get(value)


# wire tokens used in prompts, configs, and teacher replies
MANEUVER_TOKENS = {
    Maneuver.SlowDown: "slow_down",
    Maneuver.Cruise: "cruise",
    Maneuver.SpeedUp: "speed_up",
    Maneuver.TurnLeft: "turn_left",
    Maneuver.TurnRight: "turn_right",
}
TOKEN_TO_MANEUVER = {v: k for k, v in MANEUVER_TOKENS.items()}


@dataclass(frozen=True)
class DriverProfile:
    name: str
    desired_speed: float  # m/s
    time_headway: float  # s
    max_accel: float  # m/s^2
    comfort_decel: float  # m/s^2
    min_gap: float  # m
    politeness: float  # weight on others' gains in lane-change decisions
    lane_change_accel_gain_threshold: float  # m/s^2
    # IDM's braking term 2 * sqrt(max_accel * comfort_decel), worked out once
    # at construction; `replace` works it out again for the new profile
    braking_term: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in ("desired_speed", "time_headway", "max_accel", "comfort_decel"):
            if getattr(self, f) <= 0:
                raise ValueError(f"profile.{f} must be positive, got {getattr(self, f)}")
        object.__setattr__(self, "braking_term", 2.0 * math.sqrt(self.max_accel * self.comfort_decel))


# standard desired speed per scenario kind; conservative/aggressive scale it
_SCENARIO_SPEED = {"intersection": 8.0, "merge": 25.0, "highway": 25.0}

_STYLE = {
    # speed/accel factor, headway shift, politeness, gain threshold
    "conservative": (0.8, +0.5, 0.5, 0.3),
    "standard": (1.0, 0.0, 0.3, 0.2),
    "aggressive": (1.2, -0.5, 0.1, 0.1),
}


def make_profile(style: str, scenario_kind: str) -> DriverProfile:
    if style not in _STYLE:
        raise ValueError(f"unknown driver style {style!r}")
    if scenario_kind not in _SCENARIO_SPEED:
        raise ValueError(f"unknown scenario kind {scenario_kind!r}")
    factor, headway_shift, politeness, gain = _STYLE[style]
    base_speed = _SCENARIO_SPEED[scenario_kind]
    return DriverProfile(
        name=style,
        desired_speed=base_speed * factor,
        time_headway=1.5 + headway_shift,
        max_accel=2.0 * factor,
        comfort_decel=3.0 * factor,
        min_gap=2.5,
        politeness=politeness,
        lane_change_accel_gain_threshold=gain,
    )


@dataclass
class VehicleState:
    id: int
    x: float
    y: float
    speed: float
    heading: float
    lane: int
    profile: DriverProfile
    length: float = 5.0
    width: float = 2.0
    target_lane: int = field(default=-1)  # -1 means "current lane" until set

    def __post_init__(self):
        # written so that NaN fails them
        for name in ("x", "y", "heading"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        if not 0 <= self.speed < math.inf:
            raise ValueError(f"speed: must be finite and >= 0, got {self.speed}")
        for name in ("length", "width"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be positive and finite, got {getattr(self, name)}")
        self.heading = wrap_angle(self.heading)
        if self.target_lane < 0:
            self.target_lane = self.lane

    @property
    def velocity(self) -> tuple[float, float]:
        return (self.speed * math.cos(self.heading), self.speed * math.sin(self.heading))

    @property
    def wheelbase(self) -> float:
        return 0.6 * self.length

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "x": self.x,
            "y": self.y,
            "speed": self.speed,
            "heading": self.heading,
            "lane": self.lane,
            "target_lane": self.target_lane,
            "length": self.length,
            "width": self.width,
            "profile": self.profile.name,
        }


def rect_corners(v: VehicleState):
    """World-frame corners of the vehicle's footprint rectangle."""
    c, s = math.cos(v.heading), math.sin(v.heading)
    hl, hw = v.length / 2.0, v.width / 2.0
    return [
        (v.x + c * dx - s * dy, v.y + s * dx + c * dy)
        for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
    ]


def rects_overlap(a: VehicleState, b: VehicleState) -> bool:
    """Separating-axis test for two oriented rectangles.

    Each rectangle lies inside the circle through its corners, so centres
    farther apart than the two radii cannot overlap. The 0.1% margin is far
    above rounding error; the test settles most nearby pairs before any
    corner is worked out.
    """
    reach = (math.hypot(a.length, a.width) + math.hypot(b.length, b.width)) / 2.0
    if math.hypot(a.x - b.x, a.y - b.y) > 1.001 * reach:
        return False
    ca, cb = rect_corners(a), rect_corners(b)
    for v in (a, b):
        c, s = math.cos(v.heading), math.sin(v.heading)
        for ax, ay in ((c, s), (-s, c)):
            pa = [x * ax + y * ay for x, y in ca]
            pb = [x * ax + y * ay for x, y in cb]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True
