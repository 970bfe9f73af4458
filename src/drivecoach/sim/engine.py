"""Episode state, physics stepping, observations, rewards, and termination.

The ego executes high-level maneuvers through cascaded controllers: a
proportional speed loop toward a persistent target speed, and a lateral
loop steering toward the target lane center (or the fixed turn route at
the intersection). Background vehicles follow car-following accelerations
with politeness-gated lane changes. All vehicles share one kinematic
bicycle integrator, so physics limits apply uniformly.

Each physics substep of `step` works out every vehicle's (accel, steer)
before it moves any vehicle; background vehicles read their lane neighbours
from a `LaneTable` of the positions at the start of the substep. It then
moves each vehicle, locates it on the lane whose centerline is nearest its
new position and files it into the next substep's table: the ego in
`step`'s own loop body, first, and the background in the move pass, which
also tests each one against the moved ego for overlap. The loop body then
checks the ego's events. A table lives for one substep, so no lane query
reads positions that have since moved.

These bodies run at every substep, so they do in place the arithmetic of
the small helpers they would otherwise call (`wrap_angle`,
`nearest_lane_index`, `Lane.lateral`, `Lane.along`, `LaneTable.add`, IDM on
the vehicle's own lane, `_steer_command`, and for the ego `_ego_control`,
`_off_road` and `SuccessRegion.contains` on straight lanes). Each copy
carries a comment naming the helper it mirrors and gives that helper's
values bit for bit, so every trajectory stays the same. The helpers stay the
one definition for every other caller and the reference the tests check the
copies against.

Everything downstream of reset() is deterministic: randomness enters only
through the spawn RNG, never during stepping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .. import risk as risk_engine
from ..errors import ConfigError, UsageError
from ..records import build_section
from .idm import EMERGENCY_DECEL, idm_accel, mobil_accepts, mobil_safe
from .scenarios import (
    LANE_WIDTH,
    MERGE_RAMP_END,
    N_NEIGHBOR_SLOTS,
    SENSING_RADIUS,
    Geometry,
    ScenarioConfig,
    build_geometry,
    spawn,
)
from .vehicles import (
    _TWO_PI,
    MANEUVER_TOKENS,
    DriverProfile,
    Maneuver,
    VehicleState,
    make_profile,
    rects_overlap,
    wrap_angle,
)

# lateral steering gains and actuator limit; the limit leaves headroom above
# the 0.46 rad feedforward a radius-6 arc demands at wheelbase 3
KP_LATERAL = 0.4
KD_HEADING = 0.3
MAX_STEER = 0.6
# longitudinal proportional gain and per-action speed increment
KP_SPEED = 0.5
SPEED_STEP = 2.0
# plant-level curve handling: steering can hold this much lateral acceleration,
# and the speed loop starts shedding speed a comfortable braking distance early
MAX_LATERAL_ACCEL = 3.0
COMFORT_CURVE_DECEL = 1.0

# a vehicle counts on its lane while heading within this of the lane's heading
_QUARTER_PI = math.pi / 4

REWARD_SPEED = 0.4
REWARD_COLLISION = 10.0
REWARD_OFF_ROAD = 5.0
REWARD_SUCCESS = 5.0


@dataclass
class Observation:
    """Ego block is the world pose; neighbor columns are ego-frame relative
    position/velocity plus the neighbor's absolute heading encoding."""

    ego: np.ndarray  # (6,) [x, y, vx, vy, cos h, sin h]
    neighbors: np.ndarray  # (6, N) feature-by-slot, zero-padded
    neighbor_ids: list[int]  # one per filled slot, closest first

    def flat(self) -> np.ndarray:
        return np.concatenate([self.ego, self.neighbors.T.ravel()])

    @property
    def neighbor_count(self) -> int:
        return len(self.neighbor_ids)

    @property
    def ego_speed(self) -> float:
        return float(math.hypot(self.ego[2], self.ego[3]))


FLAT_OBS_DIM = 6 + 6 * N_NEIGHBOR_SLOTS


@dataclass
class StepOutcome:
    observation: Observation
    reward: float
    done: bool
    events: set[str]
    tau_min: float


@dataclass
class ScenarioState:
    config: ScenarioConfig
    geometry: Geometry
    ego: VehicleState
    background: list[VehicleState]
    decision_step: int = 0
    ego_target_speed: float = 0.0
    done: bool = False

    def __post_init__(self):
        if not 0 <= self.ego_target_speed < math.inf:  # NaN fails too
            raise ValueError(f"ego_target_speed: must be finite and >= 0, got {self.ego_target_speed}")

    @property
    def vehicles(self) -> list[VehicleState]:
        return [self.ego] + self.background

    def state_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "ego": self.ego.to_dict(),
            "background": [v.to_dict() for v in self.background],
            "decision_step": self.decision_step,
            "ego_target_speed": self.ego_target_speed,
            "done": self.done,
        }

    @classmethod
    def from_state_dict(cls, d: dict, config: ScenarioConfig, section: str = "state") -> "ScenarioState":
        """Rebuild a state under `config`, which the caller has parsed and checked;
        d["config"] is not read. A bad field raises ConfigError naming `section.key`."""
        kind = config.kind
        record = {**d, "config": config, "geometry": build_geometry(kind),
                  "ego": _read_vehicle(f"{section}.ego", d.get("ego"), kind)}
        if isinstance(d.get("background"), list):
            record["background"] = [_read_vehicle(f"{section}.background[{i}]", v, kind)
                                    for i, v in enumerate(d["background"])]
        state = build_section(section, cls, record)
        # a state file may come from outside the program: derive each lane
        # from the positions rather than trust the recorded one
        _refresh_lanes(state)
        return state


def _read_vehicle(name: str, record, kind: str) -> VehicleState:
    """A vehicle from its `to_dict` record; a bad field raises ConfigError naming `name.key`."""
    if isinstance(record, dict) and "profile" in record:
        try:
            record = {**record, "profile": make_profile(record["profile"], kind)}
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{name}.profile: {err}") from err
    return build_section(name, VehicleState, record)


def reset(config: ScenarioConfig, seed: int):
    """Spawn a fresh episode under a validated config; identical (config, seed) pairs spawn identically."""
    rng = np.random.default_rng(seed)
    geometry = build_geometry(config.kind)
    ego, background = spawn(config, geometry, rng)
    state = ScenarioState(config=config, geometry=geometry, ego=ego, background=background,
                          ego_target_speed=ego.speed)
    return state, observe(state)


# --- lane bookkeeping -------------------------------------------------------

def nearest_lane_index(state: ScenarioState, veh: VehicleState) -> int:
    """Index of the lane whose centerline is nearest; the lowest index wins a tie.

    Merge and highway lanes are straight and parallel, lane i along
    y = -LANE_WIDTH * i, so `|lateral|` shrinks toward -y / LANE_WIDTH and
    only the two lanes around it can be nearest. Comparing those two by the
    same values as `min` over every lane gives its answer for every finite
    point with |y| < 2**50, ties included.
    """
    geometry = state.geometry
    if geometry.ego_route is not None:
        return min(geometry.lanes, key=lambda lane: abs(lane.lateral(veh.x, veh.y))).index
    lanes = geometry.lanes
    x, y = veh.x, veh.y
    # int(min(max(0.0, z), last)) as comparisons, as in idm_accel's clamp
    z = -y / LANE_WIDTH
    last = len(lanes) - 2
    first = 0 if not z > 0.0 else (last if last < z else int(z))
    left, right = lanes[first], lanes[first + 1]
    # as in min(), the later lane wins only when strictly nearer
    return right.index if abs(right.lateral(x, y)) < abs(left.lateral(x, y)) else left.index


def _refresh_lanes(state: ScenarioState) -> None:
    """Set every vehicle's `lane` to the lane whose centerline is nearest.

    `ScenarioState.from_state_dict` calls this on a state read from outside
    the program. `spawn` gives each vehicle the lane nearest its spawn point,
    and `step`'s move pass sets each vehicle's lane as it moves it.
    """
    for veh in state.vehicles:
        veh.lane = nearest_lane_index(state, veh)


class LaneTable:
    """Lane queries for one set of positions and lanes. Per lane:
    - `members`: (vehicle, position along the lane), in `state.vehicles` order.
      A vehicle counts on its stored lane when its heading is within pi/4 of
      the lane's, and on no other lane;
    - `crossing`: the ego's (position along the lane, speed along it floored
      at 0) when the ego is within reach of the lane without being one of its
      members, else None.

    A table is filled in one pass over the vehicles: `add` each one, ego
    first, then `seal` it with the ego. `LaneTable.of(state)` does so for the
    stored lanes and positions. `step` appends to `members` itself, with
    `add`'s heading test and position along the lane, as it moves each
    vehicle and sets its lane: its loop body files the ego first, and the
    move pass files each background vehicle and then seals the table.
    `neighbors` and the control pass read each lane's frame (origin, cos_h,
    sin_h) inline rather than through `Lane.along`.

    A table keeps the positions along each lane from when it was filled,
    while a query reads the querying vehicle where it stands, so no table
    may outlive the positions it was built from: build a new one once
    anything moves. Nothing stores a table.
    """

    def __init__(self, lanes):
        self.lanes = lanes
        self.members: list[list[tuple[VehicleState, float]]] = [[] for _ in lanes]
        self.crossing: list[tuple[float, float] | None] = []
        self.ego_length = 0.0

    @classmethod
    def of(cls, state: ScenarioState) -> "LaneTable":
        """A table of the stored lanes and positions; it changes nothing."""
        table = cls(state.geometry.lanes)
        for veh in state.vehicles:
            table.add(veh)
        table.seal(state.ego)
        return table

    def add(self, veh: VehicleState) -> None:
        index = veh.lane
        lane = self.lanes[index]
        if abs(wrap_angle(veh.heading - lane.heading)) <= _QUARTER_PI:
            self.members[index].append((veh, lane.along(veh.x, veh.y)))

    def seal(self, ego: VehicleState) -> None:
        """Work out the ego's crossing rows, once every vehicle is added."""
        self.ego_length = ego.length
        # the ego is added first, so it is a member of its lane exactly when
        # it heads that lane's list
        ego_lane = self.members[ego.lane]
        member_of = ego.lane if ego_lane and ego_lane[0][0] is ego else None
        reach = (LANE_WIDTH + ego.width) / 2.0
        evx, evy = ego.velocity
        self.crossing = [
            None if lane.index == member_of or abs(lane.lateral(ego.x, ego.y)) > reach
            else (lane.along(ego.x, ego.y), max(0.0, evx * lane.cos_h + evy * lane.sin_h))
            for lane in self.lanes
        ]

    def neighbors(self, veh: VehicleState, lane_index: int):
        """Closest members ahead of and behind `veh` along a lane.

        Returns (leader, gap_lead, follower, gap_follow) with bumper gaps; an
        empty slot is None with an infinite gap. `veh` itself never counts. A
        vehicle exactly abeam (ds = 0) is neither leader nor follower, and
        among equally distant ones the first in `state.vehicles` wins.
        """
        lane = self.lanes[lane_index]
        # lane.along(veh.x, veh.y)
        s0 = (veh.x - lane.origin_x) * lane.cos_h + (veh.y - lane.origin_y) * lane.sin_h
        vid = veh.id
        leader = follower = None
        lead_ds = follow_ds = math.inf
        for other, s in self.members[lane_index]:
            if other.id == vid:
                continue
            ds = s - s0
            if ds > 0.0:
                if ds < lead_ds:
                    leader, lead_ds = other, ds
            elif ds < 0.0 and -ds < follow_ds:
                follower, follow_ds = other, -ds
        gap_lead = math.inf if leader is None else lead_ds - (veh.length + leader.length) / 2.0
        gap_follow = math.inf if follower is None else follow_ds - (veh.length + follower.length) / 2.0
        return leader, gap_lead, follower, gap_follow


def lane_neighbors(state: ScenarioState, veh: VehicleState, lane_index: int):
    """`LaneTable.neighbors` on a table built for this one query and dropped
    on return, so it reads the state as it stands now. `step` builds one
    table per substep and answers all of that substep's queries from it."""
    return LaneTable.of(state).neighbors(veh, lane_index)


# --- controllers ------------------------------------------------------------

def _steer_command(lateral_err_left: float, heading_err: float, speed: float) -> float:
    """Cross-track term is normalized by speed so the commanded correction
    angle stays speed-independent; the heading term damps the approach.
    The min and max calls are spelled as comparisons, as in idm_accel's clamp."""
    raw = KP_LATERAL * lateral_err_left / (1.0 if 1.0 > speed else speed) + KD_HEADING * heading_err
    raw = -MAX_STEER if -MAX_STEER > raw else raw
    return MAX_STEER if MAX_STEER < raw else raw


def _ego_steer(state: ScenarioState, ego: VehicleState) -> float:
    if state.geometry.ego_route is not None:
        route = state.geometry.ego_route
        s, lat, path_heading = route.project(ego.x, ego.y)
        # feedforward holds the arc; feedback only corrects the residual
        feedforward = math.atan(ego.wheelbase * route.curvature_at(s))
        feedback = _steer_command(-lat, wrap_angle(path_heading - ego.heading), ego.speed)
        return min(max(feedforward + feedback, -MAX_STEER), MAX_STEER)
    target_y = -LANE_WIDTH * ego.target_lane
    return _steer_command(target_y - ego.y, wrap_angle(-ego.heading), ego.speed)


def _curve_speed_cap(state: ScenarioState, ego: VehicleState) -> float:
    """Highest speed the steering can track on the curvature ahead of the
    ego's route.

    The slow proportional speed loop needs early warning, so the window covers
    a comfortable deceleration from the current speed plus a margin.
    """
    route = state.geometry.ego_route
    s, _, _ = route.project(ego.x, ego.y)
    lookahead = ego.speed * ego.speed / (2.0 * COMFORT_CURVE_DECEL) + 8.0
    radius = route.min_radius(s, s + lookahead)
    if math.isinf(radius):
        return math.inf
    return math.sqrt(MAX_LATERAL_ACCEL * radius)


def _ego_control(state: ScenarioState, ego: VehicleState) -> tuple[float, float]:
    """The ego's (accel, steer): a proportional speed loop toward its target
    speed, capped on a curved route, and the lateral loop. The min and max
    calls are spelled as comparisons in the builtins' operand order, as in
    idm_accel's clamp."""
    target = state.ego_target_speed
    if state.geometry.ego_route is not None:
        cap = _curve_speed_cap(state, ego)
        target = cap if cap < target else target  # min(target, cap)
    accel = KP_SPEED * (target - ego.speed)
    accel = -EMERGENCY_DECEL if -EMERGENCY_DECEL > accel else accel  # max(accel, -EMERGENCY_DECEL)
    max_accel = ego.profile.max_accel
    return (max_accel if max_accel < accel else accel), _ego_steer(state, ego)


# time headway of the last-moment brake for an ego blocking a lane from across it
PANIC_HEADWAY = 0.3


@functools.cache
def _panic_profile(profile: DriverProfile) -> DriverProfile:
    """The profile with PANIC_HEADWAY, built once per distinct profile."""
    return replace(profile, time_headway=PANIC_HEADWAY)


def _background_controls(state: ScenarioState, table: LaneTable) -> list[tuple[float, float]]:
    """Every background vehicle's (accel, steer), in `state.background` order,
    from `table`; it moves nothing.

    The acceleration is IDM on the vehicle's lane and, while it changes lane,
    the lower of that and IDM on its target lane. An ego blocking the lane
    from across it, mainly in the intersection box, can brake it harder; car
    following already covers an ego travelling in the lane. Steering tracks
    the target lane's centerline. The min calls are spelled as comparisons in
    the builtin's operand order, as in idm_accel's clamp.

    Every vehicle's own-lane leader, its IDM acceleration and its steering
    are worked out in place, as `LaneTable.neighbors`, `idm_accel` and
    `_steer_command` would work them out. The target-lane and crossing-ego
    terms, which only some vehicles read, call the helpers.
    """
    lanes, crossing, members, neighbors = table.lanes, table.crossing, table.members, table.neighbors
    idm, fmod, isfinite, inf, pi, two_pi = idm_accel, math.fmod, math.isfinite, math.inf, math.pi, _TWO_PI
    controls = []
    for veh in state.background:
        speed, profile, lane_index = veh.speed, veh.profile, veh.lane
        # leader, gap, _, _ = table.neighbors(veh, lane_index), leader half only
        lane = lanes[lane_index]
        s0 = (veh.x - lane.origin_x) * lane.cos_h + (veh.y - lane.origin_y) * lane.sin_h
        vid = veh.id
        leader = None
        lead_ds = inf
        for other, s in members[lane_index]:
            if other.id == vid:
                continue
            ds = s - s0
            if ds > 0.0 and ds < lead_ds:
                leader, lead_ds = other, ds
        gap = inf if leader is None else lead_ds - (veh.length + leader.length) / 2.0
        # accel = idm_accel(gap, speed, leader.speed if leader else 0.0, profile)
        max_accel = profile.max_accel
        free = 1.0 - (speed / profile.desired_speed) ** 4
        if not isfinite(gap):
            accel = max_accel * free
        elif gap <= 0.0:
            accel = -EMERGENCY_DECEL
        else:
            s_star = (profile.min_gap + speed * profile.time_headway
                      + speed * (speed - leader.speed) / profile.braking_term)
            accel = max_accel * (free - (s_star / gap) ** 2)
        accel = accel if accel < max_accel else max_accel
        accel = accel if accel > -EMERGENCY_DECEL else -EMERGENCY_DECEL
        target = veh.target_lane
        if target != lane_index:
            leader, gap, _, _ = neighbors(veh, target)
            a = idm(gap, speed, leader.speed if leader else 0.0, profile)
            accel = a if a < accel else accel
        row = crossing[lane_index]
        if row is not None:
            ds = row[0] - lanes[lane_index].along(veh.x, veh.y)
            if ds > 0.0:
                # last-moment reaction, not a polite yield: a short-headway
                # profile brakes hard only once the blocking ego is genuinely close
                a = idm(ds - (veh.length + table.ego_length) / 2.0, speed, row[1],
                        _panic_profile(profile))
                if a < 0.0:
                    accel = a if a < accel else accel
        lane = lanes[target]
        # _steer_command(-lane.lateral(veh.x, veh.y), wrap_angle(lane.heading - veh.heading), speed)
        a = fmod(lane.heading - veh.heading + pi, two_pi)
        if a <= 0.0:
            a += two_pi
        raw = (KP_LATERAL * -(-(veh.x - lane.origin_x) * lane.sin_h + (veh.y - lane.origin_y) * lane.cos_h)
               / (1.0 if 1.0 > speed else speed) + KD_HEADING * (a - pi))
        raw = -MAX_STEER if -MAX_STEER > raw else raw
        controls.append((accel, MAX_STEER if MAX_STEER < raw else raw))
    return controls


def _move_pass(state: ScenarioState, controls: list[tuple[float, float]], dt: float,
               table: LaneTable | None) -> bool:
    """Move every background vehicle one substep under its control, in
    `state.background` order. `step` has already moved, located and filed
    the ego, and does not call this pass without traffic.

    Per vehicle: integrate the kinematic bicycle, set the lane whose
    centerline is nearest the new position, file the vehicle into `table`
    when one is given, and test it against the moved ego for overlap. Then
    seal `table`. Returns whether any background vehicle overlaps the ego.

    This body runs for every vehicle at every substep, so it does in place
    what `wrap_angle`, the `wheelbase` property, `nearest_lane_index`,
    `Lane.lateral`, `Lane.along` and `LaneTable.add` would each do in a
    call, and gives their values bit for bit; each copy names the helper it
    mirrors, which stays the one definition for every other caller. `step`
    moves the ego with the same copies, its pose held in locals from one
    substep to the next; one loop over `state.vehicles`, ego first, would
    keep a single copy but ran `highway-free` evaluation about 10% slower.
    """
    ego = state.ego
    ego_x, ego_y = ego.x, ego.y
    cos, sin, tan, fmod = math.cos, math.sin, math.tan, math.fmod
    pi, two_pi = math.pi, _TWO_PI
    overlap = rects_overlap
    lanes = state.geometry.lanes
    # nearest_lane_index: straight parallel lanes take its closed form,
    # anything else its min over every lane
    straight = state.geometry.ego_route is None
    last = len(lanes) - 2
    members = None if table is None else table.members
    collided = False
    for veh, (accel, steer) in zip(state.background, controls):
        speed = veh.speed + accel * dt
        veh.speed = speed = speed if speed > 0.0 else 0.0  # max(0.0, speed), as in idm_accel's clamp
        # wrap_angle(veh.heading + speed / veh.wheelbase * tan(steer) * dt),
        # with the wheelbase property's 0.6 * length
        a = fmod(veh.heading + speed / (0.6 * veh.length) * tan(steer) * dt + pi, two_pi)
        if a <= 0.0:
            a += two_pi
        veh.heading = heading = a - pi
        veh.x = x = veh.x + speed * cos(heading) * dt
        veh.y = y = veh.y + speed * sin(heading) * dt
        # veh.lane = nearest_lane_index(state, veh). On its straight lanes,
        # heading 0, |Lane.lateral(x, y)| is exactly |y - origin_y| at any
        # finite x: the x term is a signed zero, and abs drops the sign
        if straight:
            z = -y / LANE_WIDTH
            first = 0 if not z > 0.0 else (last if last < z else int(z))
            lane, right = lanes[first], lanes[first + 1]
            if abs(y - right.origin_y) < abs(y - lane.origin_y):
                lane = right
        else:
            lane = None
            for cand in lanes:
                off = abs(-(x - cand.origin_x) * cand.sin_h + (y - cand.origin_y) * cand.cos_h)
                if lane is None or off < best:
                    lane, best = cand, off
        veh.lane = index = lane.index
        if members is not None:
            # table.add(veh): wrap_angle(heading - lane.heading) within pi/4,
            # filed with Lane.along at the new position
            a = fmod(heading - lane.heading + pi, two_pi)
            if a <= 0.0:
                a += two_pi
            if abs(a - pi) <= _QUARTER_PI:
                members[index].append(
                    (veh, (x - lane.origin_x) * lane.cos_h + (y - lane.origin_y) * lane.sin_h))
        # cheap reject before the separating-axis test
        if not collided and abs(x - ego_x) < 12.0 and abs(y - ego_y) < 8.0:
            collided = overlap(ego, veh)
    if table is not None:
        table.seal(ego)
    return collided


# --- lane changes for background traffic ------------------------------------

def _bg_lane_change_pass(state: ScenarioState, table: LaneTable) -> None:
    """MOBIL for each settled background vehicle, toward its left neighbour
    lane first. A candidate's new follower is checked for safety before any
    other term is worked out; the terms of the current lane do not depend on
    the candidate, so they are worked out once, at the first safe candidate."""
    if state.config.kind == "intersection":
        return  # cross traffic stays in its lane
    max_lane = 1 if state.config.kind == "merge" else len(state.geometry.lanes) - 1
    lanes, neighbors = table.lanes, table.neighbors
    for veh in state.background:
        lane = lanes[veh.lane]
        if veh.target_lane != veh.lane or abs(lane.lateral(veh.x, veh.y)) > 0.5:
            continue  # mid-change; settle first
        profile = veh.profile
        current = None  # (own accel, old follower's accels before and after)
        for cand in (veh.lane - 1, veh.lane + 1):
            if not 0 <= cand <= max_lane:
                continue
            new_lead, new_lead_gap, new_f, new_f_gap = neighbors(veh, cand)
            a_nf_after = 0.0 if new_f is None else idm_accel(new_f_gap, new_f.speed, veh.speed, new_f.profile)
            if not mobil_safe(a_nf_after, profile):
                continue
            if current is None:
                current = _current_lane_terms(table, veh)
            a_after = idm_accel(new_lead_gap, veh.speed, new_lead.speed if new_lead else 0.0, profile)
            if new_f is None:
                a_nf_before = 0.0
            else:
                nf_lead, nf_gap, _, _ = neighbors(new_f, cand)
                a_nf_before = idm_accel(nf_gap, new_f.speed, nf_lead.speed if nf_lead else 0.0,
                                        new_f.profile)
            a_before, a_of_before, a_of_after = current
            if mobil_accepts(a_before, a_after, a_nf_before, a_nf_after, a_of_before, a_of_after, profile):
                veh.target_lane = cand
                break


def _current_lane_terms(table: LaneTable, veh: VehicleState) -> tuple[float, float, float]:
    """The MOBIL terms a lane change of `veh` away from its lane reads there:
    its own acceleration, and its follower's before and after it leaves."""
    lead, gap, old_f, old_f_gap = table.neighbors(veh, veh.lane)
    a_before = idm_accel(gap, veh.speed, lead.speed if lead else 0.0, veh.profile)
    if old_f is None:
        return a_before, 0.0, 0.0
    a_of_before = idm_accel(old_f_gap, old_f.speed, veh.speed, old_f.profile)
    if lead is not None:
        lane = table.lanes[veh.lane]
        ds = lane.along(lead.x, lead.y) - lane.along(old_f.x, old_f.y)
        gap_after = ds - (old_f.length + lead.length) / 2.0
        a_of_after = idm_accel(gap_after, old_f.speed, lead.speed, old_f.profile)
    else:
        a_of_after = idm_accel(math.inf, old_f.speed, 0.0, old_f.profile)
    return a_before, a_of_before, a_of_after


# --- events -----------------------------------------------------------------

def _off_road(state: ScenarioState, ego: VehicleState) -> bool:
    kind = state.config.kind
    if kind == "intersection":
        _, lat, _ = state.geometry.ego_route.project(ego.x, ego.y)
        return abs(lat) > LANE_WIDTH
    top = 0.5 * LANE_WIDTH
    bottom = -LANE_WIDTH * (len(state.geometry.lanes) - 1) - 0.5 * LANE_WIDTH
    if ego.y > top or ego.y < bottom:
        return True
    if kind == "merge":
        on_ramp_band = ego.y < -LANE_WIDTH * 1.5  # below the mainline edge
        if on_ramp_band and ego.x > MERGE_RAMP_END:
            return True
    return False


def _substep_events(state: ScenarioState, collided: bool) -> set[str]:
    """A substep's events, given whether the move pass found an overlap: a
    collision, the ego off the road, and success only without either."""
    ego = state.ego
    events: set[str] = set()
    if collided:
        events.add("collision")
    if _off_road(state, ego):
        events.add("off_road")
    if not events and state.config.success_region.contains(ego.x, ego.lane):
        events.add("success")
    return events


# --- the decision step ------------------------------------------------------

def apply_maneuver(state: ScenarioState, maneuver: Maneuver) -> None:
    ego = state.ego
    # Speed targets anchor at the achieved speed so a setpoint the plant could
    # not reach (curve cap, traffic) does not wind up and eat later commands.
    # SlowDown additionally ratchets downward: repeated braking commands build
    # authority instead of re-issuing the same gentle step.
    if maneuver == Maneuver.SlowDown:
        state.ego_target_speed = max(0.0, min(state.ego_target_speed, ego.speed) - SPEED_STEP)
    elif maneuver == Maneuver.SpeedUp:
        cap = 1.5 * ego.profile.desired_speed
        state.ego_target_speed = min(cap, ego.speed + SPEED_STEP)
    elif maneuver == Maneuver.Cruise:
        state.ego_target_speed = ego.speed
    elif maneuver == Maneuver.TurnLeft and state.geometry.ego_route is None:
        ego.target_lane = max(0, ego.target_lane - 1)
    elif maneuver == Maneuver.TurnRight and state.geometry.ego_route is None:
        ego.target_lane = min(len(state.geometry.lanes) - 1, ego.target_lane + 1)
    # turns at the intersection (no adjacent lane) leave targets untouched


def step(state: ScenarioState, maneuver: Maneuver,
         risk_params: risk_engine.RiskParams | None = None) -> StepOutcome:
    """One decision step: apply the maneuver, let background vehicles choose
    lane changes, then run physics substeps until one raises an event or
    `config.substeps` have run.

    Each substep works out every vehicle's (accel, steer) before it moves
    any vehicle, then moves the ego and then the background:
    - the ego's controls read only its own state and targets. Background
      vehicles' controls (`_background_controls`) read a `LaneTable` of the
      positions and lanes at the start of the substep;
    - this loop body integrates the ego, sets its lane to the one
      `nearest_lane_index` gives at the new position and, when another
      substep follows with traffic, files it first into the next
      substep's table, as `LaneTable.add` would;
    - the move pass (`_move_pass`), called only with traffic, does the same
      for each background vehicle, tests it against the moved ego for
      overlap and seals the table;
    - the loop body then checks the substep's events, as `_substep_events`
      would: a collision, the ego off the road, and success only without
      either.

    The ego's part runs at every substep whatever the traffic, so the loop
    body does it in place, with the step's invariants bound once, and gives
    the values of the helpers it would call bit for bit: `_ego_control` on
    straight lanes, `wrap_angle`, the `wheelbase` property,
    `nearest_lane_index`, `LaneTable.add`, `_off_road` on straight lanes
    and `SuccessRegion.contains`. Each copy names the helper it mirrors. On
    the intersection's route the loop calls `_ego_control`, with its curve
    cap, and `_off_road`.

    Only background vehicles read tables. The lane-change pass moves nothing,
    so it shares substep 0's table, built from the stored lanes and
    positions; each later substep reads the table the previous substep
    filed. No table outlives the positions it was built from, and nothing
    stores one, so a vehicle a caller moves by hand between steps is queried
    where it now stands.
    """
    if state.done:
        raise UsageError("step called on a terminal episode")
    params = risk_params or risk_engine.RiskParams()
    apply_maneuver(state, maneuver)
    background = state.background
    table = None
    if background:
        table = LaneTable.of(state)
        _bg_lane_change_pass(state, table)

    # invariants of the step: no substep changes the config, the geometry,
    # the ego's targets or its size
    config, ego = state.config, state.ego
    lanes = state.geometry.lanes
    straight = state.geometry.ego_route is None  # merge and highway
    dt, substeps = config.dt_physics, config.substeps
    cos, sin, tan, fmod = math.cos, math.sin, math.tan, math.fmod
    pi, two_pi = math.pi, _TWO_PI
    # _ego_control and _ego_steer on straight lanes
    target_speed, max_accel = state.ego_target_speed, ego.profile.max_accel
    target_y = -LANE_WIDTH * ego.target_lane
    wheelbase = 0.6 * ego.length  # the wheelbase property
    last = len(lanes) - 2  # nearest_lane_index's closed form
    # _off_road on straight lanes: the road's edges, and the ramp's band
    top = 0.5 * LANE_WIDTH
    bottom = -LANE_WIDTH * (len(lanes) - 1) - 0.5 * LANE_WIDTH
    merge = config.kind == "merge"
    ramp_band = -LANE_WIDTH * 1.5
    region = config.success_region
    min_x, max_x, max_lane = region.min_x, region.max_x, region.max_lane

    x, y, speed, heading = ego.x, ego.y, ego.speed, ego.heading
    events: set[str] = set()
    for substep in range(substeps):
        if straight:
            # accel, steer = _ego_control(state, ego)
            accel = KP_SPEED * (target_speed - speed)
            accel = -EMERGENCY_DECEL if -EMERGENCY_DECEL > accel else accel
            accel = max_accel if max_accel < accel else accel
            # _steer_command(target_y - y, wrap_angle(-heading), speed)
            a = fmod(-heading + pi, two_pi)
            if a <= 0.0:
                a += two_pi
            steer = KP_LATERAL * (target_y - y) / (1.0 if 1.0 > speed else speed) + KD_HEADING * (a - pi)
            steer = -MAX_STEER if -MAX_STEER > steer else steer
            steer = MAX_STEER if MAX_STEER < steer else steer
        else:
            accel, steer = _ego_control(state, ego)
        controls = None if table is None else _background_controls(state, table)
        # the last substep's lanes feed the events and the observation; a
        # table would have no reader
        table = LaneTable(lanes) if background and substep + 1 < substeps else None

        # the ego's move, as _move_pass moves each background vehicle
        speed = speed + accel * dt
        ego.speed = speed = speed if speed > 0.0 else 0.0  # max(0.0, speed)
        # wrap_angle(heading + speed / ego.wheelbase * tan(steer) * dt)
        a = fmod(heading + speed / wheelbase * tan(steer) * dt + pi, two_pi)
        if a <= 0.0:
            a += two_pi
        ego.heading = heading = a - pi
        ego.x = x = x + speed * cos(heading) * dt
        ego.y = y = y + speed * sin(heading) * dt
        # ego.lane = nearest_lane_index(state, ego), as in _move_pass
        if straight:
            z = -y / LANE_WIDTH
            first = 0 if not z > 0.0 else (last if last < z else int(z))
            lane, right = lanes[first], lanes[first + 1]
            if abs(y - right.origin_y) < abs(y - lane.origin_y):
                lane = right
        else:
            lane = None
            for cand in lanes:
                off = abs(-(x - cand.origin_x) * cand.sin_h + (y - cand.origin_y) * cand.cos_h)
                if lane is None or off < best:
                    lane, best = cand, off
        ego.lane = index = lane.index
        if table is not None:
            # table.add(ego), the ego first: wrap_angle(heading - lane.heading)
            # within pi/4, filed with Lane.along at the new position
            a = fmod(heading - lane.heading + pi, two_pi)
            if a <= 0.0:
                a += two_pi
            if abs(a - pi) <= _QUARTER_PI:
                table.members[index].append(
                    (ego, (x - lane.origin_x) * lane.cos_h + (y - lane.origin_y) * lane.sin_h))
        collided = controls is not None and _move_pass(state, controls, dt, table)

        # events = _substep_events(state, collided)
        if straight:
            # _off_road(state, ego)
            off_road = y > top or y < bottom or (merge and y < ramp_band and x > MERGE_RAMP_END)
        else:
            off_road = _off_road(state, ego)
        if collided or off_road:
            if collided:
                events.add("collision")
            if off_road:
                events.add("off_road")
            break
        # region.contains(x, index)
        if not ((min_x is not None and x < min_x) or (max_x is not None and x > max_x)
                or (max_lane is not None and index > max_lane)):
            events.add("success")
            break

    state.decision_step += 1
    if not events and state.decision_step >= state.config.horizon:
        events = {"timeout"}
    r = reward(state, maneuver, events)
    state.done = bool(events)
    return StepOutcome(observation=observe(state), reward=r, done=state.done, events=events,
                       tau_min=risk_engine.assess(state, params).tau_min)


def reward(state: ScenarioState, maneuver: Maneuver, events: set[str]) -> float:
    """Speed shaping toward the ego's desired speed plus terminal terms."""
    v_hi = state.ego.profile.desired_speed
    shaped = REWARD_SPEED * min(max(state.ego.speed / v_hi, 0.0), 1.0)
    r = shaped
    if "collision" in events:
        r -= REWARD_COLLISION
    if "off_road" in events:
        r -= REWARD_OFF_ROAD
    if "success" in events:
        r += REWARD_SUCCESS
    return r


def observe(state: ScenarioState) -> Observation:
    ego = state.ego
    evx, evy = ego.velocity
    cos_h, sin_h = math.cos(ego.heading), math.sin(ego.heading)
    ego_block = np.array([ego.x, ego.y, evx, evy, cos_h, sin_h], dtype=np.float64)

    in_range = []
    for veh in state.background:
        d = math.hypot(veh.x - ego.x, veh.y - ego.y)
        if d <= SENSING_RADIUS:
            in_range.append((d, veh.id, veh))
    in_range.sort(key=lambda item: (item[0], item[1]))
    in_range = in_range[:N_NEIGHBOR_SLOTS]

    cols = np.zeros((6, N_NEIGHBOR_SLOTS), dtype=np.float64)
    ids = []
    for slot, (_, _, veh) in enumerate(in_range):
        dx, dy = veh.x - ego.x, veh.y - ego.y
        vvx, vvy = veh.velocity
        dvx, dvy = vvx - evx, vvy - evy
        # rotate relative quantities into the ego frame
        cols[0, slot] = cos_h * dx + sin_h * dy
        cols[1, slot] = -sin_h * dx + cos_h * dy
        cols[2, slot] = cos_h * dvx + sin_h * dvy
        cols[3, slot] = -sin_h * dvx + cos_h * dvy
        cols[4, slot] = math.cos(veh.heading)
        cols[5, slot] = math.sin(veh.heading)
        ids.append(veh.id)
    return Observation(ego=ego_block, neighbors=cols, neighbor_ids=ids)


def trace_record(state: ScenarioState, maneuver: Maneuver, outcome: StepOutcome) -> dict:
    ego = state.ego.to_dict()
    neighbors = [v.to_dict() for v in state.background]
    return {
        "t": state.decision_step,
        "ego": {k: ego[k] for k in ("x", "y", "speed", "heading", "lane")},
        "neighbors": [
            {k: d[k] for k in ("id", "x", "y", "speed", "heading", "lane")}
            for d in neighbors
        ],
        "maneuver": MANEUVER_TOKENS[maneuver],
        "reward": outcome.reward,
        "events": sorted(outcome.events),
    }


class TrafficEnv:
    """Thin stateful wrapper bundling config, risk params, and episode state."""

    def __init__(self, config: ScenarioConfig, risk_params: risk_engine.RiskParams | None = None):
        config.validate()
        self.config = config
        self.risk_params = risk_params or risk_engine.RiskParams()
        self.state: ScenarioState | None = None

    def reset(self, seed: int) -> Observation:
        self.state, obs = reset(self.config, seed)
        return obs

    def step(self, maneuver: Maneuver) -> StepOutcome:
        if self.state is None:
            raise UsageError("step called before reset")
        return step(self.state, maneuver, self.risk_params)
