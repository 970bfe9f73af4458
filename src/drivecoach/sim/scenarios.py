"""Scenario configuration, road geometry, and seeded traffic spawning.

Three layouts share one coordinate convention: x east, y north, heading 0
along +x. Lanes are 4 m wide. Same-direction lane indices grow to the
right of travel, so TurnLeft decreases the index.

    merge:        mainline lanes 0..1 (y = 0, -4) plus a ramp lane 2
                  (y = -8) that ends at x = 200; ego starts on the ramp.
    highway:      four straight lanes 0..3 (y = 0..-12).
    intersection: two orthogonal 2-lane roads; ego approaches northbound
                  and turns left onto the westbound lane through a
                  radius-6 arc centered at (-4, -4).

`build_geometry` defines each layout's lanes: their centrelines and
headings. `_LAYOUTS` holds the rest of what `spawn` needs per kind: the
ego's start (x, y, speed, heading, lane), the traffic lanes with their odds
and x windows, and the minimum spacing along a lane. `spawn` places every
layout's traffic through one path and reads each vehicle's y and heading
from its lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .paths import ArcSegment, Route, StraightSegment
from .vehicles import VehicleState, make_profile

LANE_WIDTH = 4.0
SENSING_RADIUS = 100.0
N_NEIGHBOR_SLOTS = 6

SCENARIO_KINDS = ("intersection", "merge", "highway")

# per-kind spawn defaults (mean speed, std)
_SPAWN_SPEED = {"intersection": (7.0, 1.5), "merge": (20.0, 2.5), "highway": (21.0, 2.5)}
_HORIZON = {"intersection": 30, "merge": 30, "highway": 40}

_STYLES = ("conservative", "standard", "aggressive")
_STYLE_WEIGHTS = (0.3, 0.4, 0.3)


@dataclass(frozen=True)
class SuccessRegion:
    """Conjunction of simple geometric bounds on the ego pose."""

    min_x: float | None = None
    max_x: float | None = None
    max_lane: int | None = None

    def contains(self, x: float, lane: int) -> bool:
        if self.min_x is not None and x < self.min_x:
            return False
        if self.max_x is not None and x > self.max_x:
            return False
        if self.max_lane is not None and lane > self.max_lane:
            return False
        return True

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class ScenarioConfig:
    kind: str = "merge"
    n_background: int = 5
    spawn_speed_mean: float | None = None  # None -> per-kind default
    spawn_speed_std: float | None = None
    disturbance_fraction: float = 0.15
    dt_physics: float = 0.1
    decision_period: float = 1.0
    horizon: int | None = None  # decision steps; None -> per-kind default
    success_region: SuccessRegion | None = None

    def __post_init__(self):
        if self.spawn_speed_mean is None:
            self.spawn_speed_mean = _SPAWN_SPEED.get(self.kind, (15.0, 2.0))[0]
        if self.spawn_speed_std is None:
            self.spawn_speed_std = _SPAWN_SPEED.get(self.kind, (15.0, 2.0))[1]
        if self.horizon is None:
            self.horizon = _HORIZON.get(self.kind, 30)
        if self.success_region is None:
            self.success_region = default_success_region(self.kind)

    def validate(self, section: str = "scenario") -> None:
        """Range checks, written so that NaN fails them; errors name the key as
        `section.key`."""
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"{section}.kind: {self.kind!r} is not one of {SCENARIO_KINDS}")
        if self.n_background < 0:
            raise ConfigError(f"{section}.n_background: must be >= 0, got {self.n_background}")
        if not 0.0 <= self.disturbance_fraction <= 1.0:
            raise ConfigError(
                f"{section}.disturbance_fraction: must be in [0, 1], got {self.disturbance_fraction}"
            )
        for key in ("dt_physics", "decision_period", "spawn_speed_mean"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{section}.{key}: must be finite and > 0, got {getattr(self, key)}")
        ratio = self.decision_period / self.dt_physics
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"{section}.decision_period: must be a positive integer multiple of "
                f"dt_physics, got {self.decision_period} vs {self.dt_physics}"
            )
        if self.horizon <= 0:
            raise ConfigError(f"{section}.horizon: must be > 0, got {self.horizon}")
        if not 0 <= self.spawn_speed_std < math.inf:
            raise ConfigError(f"{section}.spawn_speed_std: must be finite and >= 0, got {self.spawn_speed_std}")
        for key in ("min_x", "max_x"):
            bound = getattr(self.success_region, key)
            if bound is not None and not math.isfinite(bound):
                raise ConfigError(f"{section}.success_region.{key}: must be finite, got {bound}")

    @property
    def substeps(self) -> int:
        return int(round(self.decision_period / self.dt_physics))

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["success_region"] = self.success_region.to_dict()
        return d


def default_success_region(kind: str) -> SuccessRegion:
    if kind == "merge":
        return SuccessRegion(min_x=240.0, max_lane=1)
    if kind == "highway":
        return SuccessRegion(min_x=250.0)
    return SuccessRegion(max_x=-30.0)  # intersection: clear of the box heading west


MERGE_RAMP_END = 200.0
MERGE_RAMP_LANE = 2


@dataclass(frozen=True)
class Lane:
    """Straight traffic lane used for leader lookup and lateral tracking."""

    index: int
    origin_x: float
    origin_y: float
    heading: float
    # cos and sin of the fixed heading, worked out once at construction
    cos_h: float = field(init=False, repr=False, compare=False)
    sin_h: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cos_h", math.cos(self.heading))
        object.__setattr__(self, "sin_h", math.sin(self.heading))

    def along(self, x: float, y: float) -> float:
        return (x - self.origin_x) * self.cos_h + (y - self.origin_y) * self.sin_h

    def lateral(self, x: float, y: float) -> float:
        """Left-positive offset of (x, y) from the lane centerline."""
        return -(x - self.origin_x) * self.sin_h + (y - self.origin_y) * self.cos_h


@dataclass
class Geometry:
    lanes: list[Lane]  # all drivable lanes, including cross-road ones
    ego_route: Route | None  # curved reference path (intersection only)


def build_geometry(kind: str) -> Geometry:
    if kind == "merge":
        lanes = [Lane(i, 0.0, -LANE_WIDTH * i, 0.0) for i in range(3)]
        return Geometry(lanes, ego_route=None)
    if kind == "highway":
        lanes = [Lane(i, 0.0, -LANE_WIDTH * i, 0.0) for i in range(4)]
        return Geometry(lanes, ego_route=None)
    if kind == "intersection":
        eastbound = Lane(0, 0.0, -2.0, 0.0)
        westbound = Lane(1, 0.0, 2.0, math.pi)
        route = Route(
            [
                StraightSegment(2.0, -60.0, math.pi / 2.0, 56.0),  # approach to (2, -4)
                ArcSegment(-4.0, -4.0, 6.0, 0.0, math.pi / 2.0),  # left turn to (-4, 2)
                StraightSegment(-4.0, 2.0, math.pi, 76.0),  # westbound exit
            ]
        )
        return Geometry([eastbound, westbound], ego_route=route)
    raise ConfigError(f"scenario.kind: {kind!r} is not one of {SCENARIO_KINDS}")


@dataclass(frozen=True)
class _Layout:
    """Where one kind's ego starts and where its background traffic spawns."""

    ego: tuple[float, float, float, float, int]  # x, y, speed, heading, lane, as VehicleState orders them
    windows: dict[int, tuple[float, float]]  # traffic lane -> x window (lo, hi)
    lane_p: tuple[float, ...] | None  # odds of the lanes in `windows` order; None is uniform
    gap: float  # minimum spacing along a lane


_LAYOUTS = {
    # Mainline traffic paced to occupy the merge zone when the ego arrives:
    # cars near the ego's x at similar speed stay abeam for the whole
    # approach, so the ego has to match speed and pick a gap instead of
    # joining an empty road. Lane 1 borders the ramp and carries most of the
    # platoon.
    "merge": _Layout(ego=(20.0, -LANE_WIDTH * MERGE_RAMP_LANE, 15.0, 0.0, MERGE_RAMP_LANE),
                     windows={1: (-30.0, 95.0), 0: (0.0, 150.0)}, lane_p=(0.7, 0.3), gap=18.0),
    "highway": _Layout(ego=(20.0, -LANE_WIDTH * 2, 20.0, 0.0, 2),
                       windows={lane: (10.0, 260.0) for lane in range(4)}, lane_p=None, gap=18.0),
    # the ego starts on its route's northbound approach; traffic crosses on
    # the eastbound lane 0 and the westbound lane 1
    "intersection": _Layout(ego=(2.0, -40.0, 7.0, math.pi / 2.0, 0),
                            windows={0: (-80.0, 70.0), 1: (-80.0, 70.0)}, lane_p=None, gap=16.0),
}


def _spaced_positions(rng: np.random.Generator, n: int, lo: float, hi: float, gap: float):
    """n sorted positions in [lo, hi], pushed apart to at least `gap`."""
    pos = np.sort(rng.uniform(lo, hi, size=n))
    for i in range(1, n):
        if pos[i] - pos[i - 1] < gap:
            pos[i] = pos[i - 1] + gap
    return [float(p) for p in pos]


def _draw_speeds(rng: np.random.Generator, profiles, config: ScenarioConfig):
    """Normal speeds truncated to [0, 1.5 * desired]; a fixed-count subset is
    resampled uniformly as the abnormal-speed disturbance."""
    n = len(profiles)
    speeds = rng.normal(config.spawn_speed_mean, config.spawn_speed_std, size=n)
    speeds = [float(np.clip(s, 0.0, 1.5 * p.desired_speed)) for s, p in zip(speeds, profiles)]
    n_disturbed = int(round(config.disturbance_fraction * n))
    disturbed = sorted(rng.choice(n, size=n_disturbed, replace=False).tolist()) if n_disturbed else []
    for i in disturbed:
        speeds[i] = float(rng.uniform(0.3 * config.spawn_speed_mean, 1.7 * config.spawn_speed_mean))
    return speeds


def spawn(config: ScenarioConfig, geometry: Geometry,
          rng: np.random.Generator) -> tuple[VehicleState, list[VehicleState]]:
    """The ego and the background traffic, ids in spawn order.

    Each background vehicle is drawn a lane, placed in that lane's x window,
    and takes its y and heading from the lane's centreline in `geometry`.
    """
    kind = config.kind
    layout = _LAYOUTS[kind]
    styles = list(rng.choice(_STYLES, size=config.n_background, p=_STYLE_WEIGHTS))
    profiles = [make_profile(str(s), kind) for s in styles]
    speeds = _draw_speeds(rng, profiles, config)

    ego = VehicleState(0, *layout.ego, profile=make_profile("standard", kind))
    lane_of = [int(l) for l in rng.choice(list(layout.windows), size=config.n_background, p=layout.lane_p)]
    per_lane: dict[int, list[int]] = {}
    for i, lane in enumerate(lane_of):
        per_lane.setdefault(lane, []).append(i)

    background: list[VehicleState] = []
    for lane, members in sorted(per_lane.items()):
        lo, hi = layout.windows[lane]
        # on merge and highway the ego's own lane spawns downstream only,
        # keeping its pocket clear; the intersection's ego drives its route
        if kind != "intersection" and lane == ego.lane:
            lo = max(lo, ego.x + 20.0)
        road = geometry.lanes[lane]
        for i, x in zip(members, _spaced_positions(rng, len(members), lo, hi, layout.gap)):
            if kind == "intersection" and abs(x) < 6.0:
                x = 6.0 if x >= 0 else -6.0  # keep the conflict box clear at t=0
            background.append(VehicleState(id=len(background) + 1, x=x, y=road.origin_y, speed=speeds[i],
                                           heading=road.heading, lane=lane, profile=profiles[i]))
    return ego, background
