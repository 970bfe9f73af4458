"""Episode state, physics stepping, observations, rewards, and termination.

The ego executes high-level maneuvers through cascaded controllers: a
proportional speed loop toward a persistent target speed, and a lateral
loop steering toward the target lane center (or the fixed turn route at
the intersection). Background vehicles follow car-following accelerations
with politeness-gated lane changes. All vehicles share one kinematic
bicycle integrator, so physics limits apply uniformly.

Each physics substep of `step` makes two passes over the vehicles. The
control pass works out every vehicle's (accel, steer) and moves nothing;
background vehicles read their lane neighbours from a `LaneTable` of the
positions at the start of the substep. The move pass integrates each
vehicle, sets its nearest lane, files it into the next substep's table and
tests it against the moved ego for overlap. A table lives for one substep,
so no lane query reads positions that have since moved.

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
    stored lanes and positions; `step`'s move pass does so as it moves each
    vehicle and sets its lane. A table keeps the positions along each lane
    from when it was filled, while a query reads the querying vehicle where
    it stands, so no table may outlive the positions it was built from:
    build a new one once anything moves. Nothing stores a table.
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
        s0 = lane.along(veh.x, veh.y)
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
    """
    lanes, crossing, neighbors = table.lanes, table.crossing, table.neighbors
    idm, steer_command, wrap = idm_accel, _steer_command, wrap_angle
    controls = []
    for veh in state.background:
        speed, profile, lane_index = veh.speed, veh.profile, veh.lane
        leader, gap, _, _ = neighbors(veh, lane_index)
        accel = idm(gap, speed, leader.speed if leader else 0.0, profile)
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
        # offset to the centerline, left-positive
        steer = steer_command(-lane.lateral(veh.x, veh.y), wrap(lane.heading - veh.heading), speed)
        controls.append((accel, steer))
    return controls


def _move_pass(state: ScenarioState, controls: list[tuple[float, float]], dt: float,
               table: LaneTable | None) -> bool:
    """Move every vehicle one substep under its control, ego first.

    Per vehicle: integrate the kinematic bicycle, set the nearest lane, add the
    vehicle to `table` when one is given, and test a background vehicle
    against the already-moved ego for overlap. Then seal `table`. Returns
    whether any background vehicle overlaps the ego.
    """
    ego = state.ego
    cos, sin, tan = math.cos, math.sin, math.tan
    wrap, nearest, overlap = wrap_angle, nearest_lane_index, rects_overlap
    add = None if table is None else table.add
    collided = False
    for veh, (accel, steer) in zip(state.vehicles, controls):
        speed = veh.speed + accel * dt
        veh.speed = speed = speed if speed > 0.0 else 0.0  # max(0.0, speed), as in idm_accel's clamp
        veh.heading = heading = wrap(veh.heading + speed / veh.wheelbase * tan(steer) * dt)
        veh.x = x = veh.x + speed * cos(heading) * dt
        veh.y = y = veh.y + speed * sin(heading) * dt
        veh.lane = nearest(state, veh)
        if add is not None:
            add(veh)
        # cheap reject before the separating-axis test
        if not collided and veh is not ego and abs(x - ego.x) < 12.0 and abs(y - ego.y) < 8.0:
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

    Each substep makes two passes over the vehicles:
    - the control pass works out every vehicle's (accel, steer). The ego
      reads only its own state and targets; background vehicles read a
      `LaneTable` of the positions and lanes at the start of the substep.
      It moves nothing;
    - the move pass (`_move_pass`) integrates each vehicle, ego first, sets
      its nearest lane, adds it to the next substep's table when another
      substep follows, and tests each background vehicle against the moved
      ego for overlap.
    The ego's off-road and success checks follow.

    Only background vehicles read tables. The lane-change pass moves nothing,
    so it shares substep 0's table, built from the stored lanes and
    positions; each later substep reads the table the previous move pass
    built. No table outlives the positions it was built from, and nothing
    stores one, so a vehicle a caller moves by hand between steps is queried
    where it now stands.
    """
    if state.done:
        raise UsageError("step called on a terminal episode")
    params = risk_params or risk_engine.RiskParams()
    apply_maneuver(state, maneuver)
    table = None
    if state.background:
        table = LaneTable.of(state)
        _bg_lane_change_pass(state, table)

    ego = state.ego
    lanes = state.geometry.lanes
    dt = state.config.dt_physics
    substeps = state.config.substeps
    events: set[str] = set()
    for substep in range(substeps):
        controls = [_ego_control(state, ego)]
        if table is not None:
            controls += _background_controls(state, table)
        # the last substep's lanes feed the events and the observation; a
        # table would have no reader
        table = LaneTable(lanes) if state.background and substep + 1 < substeps else None
        events = _substep_events(state, _move_pass(state, controls, dt, table))
        if events:
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
