"""Episode state, physics stepping, observations, rewards, and termination.

The ego executes high-level maneuvers through cascaded controllers: a
proportional speed loop toward a persistent target speed, and a lateral
loop steering toward the target lane center (or the fixed turn route at
the intersection). Background vehicles follow car-following accelerations
with politeness-gated lane changes. All vehicles share one kinematic
bicycle integrator, so physics limits apply uniformly.

Everything downstream of reset() is deterministic: randomness enters only
through the spawn RNG, never during stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .. import risk as risk_engine
from ..errors import ConfigError, UsageError
from ..records import build_section
from .idm import EMERGENCY_DECEL, idm_accel, mobil_accepts
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
from .vehicles import MANEUVER_TOKENS, Maneuver, VehicleState, make_profile, rects_overlap, wrap_angle

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
    lanes = state.geometry.lanes
    if state.geometry.ego_route is not None:
        return min(lanes, key=lambda lane: abs(lane.lateral(veh.x, veh.y))).index
    # int(min(max(0.0, z), last)) as comparisons, as in idm._clamp_accel
    z = -veh.y / LANE_WIDTH
    z = z if z > 0.0 else 0.0
    last = len(lanes) - 2
    first = int(last if last < z else z)
    left, right = lanes[first], lanes[first + 1]
    # as in min(), the later lane wins only when strictly nearer
    if abs(right.lateral(veh.x, veh.y)) < abs(left.lateral(veh.x, veh.y)):
        return right.index
    return left.index


def _refresh_lanes(state: ScenarioState, index: bool = False) -> "LaneTable | None":
    """Set every vehicle's `lane` to the lane whose centerline is nearest.

    `spawn` gives each vehicle the lane nearest its spawn point,
    `ScenarioState.from_state_dict` calls this on states read from outside
    the program, and `step` calls it after every substep, since only the
    substep's integration moves vehicles.

    With `index`, the same pass also files each vehicle into a `LaneTable` of
    the new lanes and positions and returns it; only background vehicles
    read tables, so with no background traffic it returns None, as it does
    without `index`.

    Invariant: each substep visits each vehicle once for lane bookkeeping.
    Lane queries read stored lanes and positions through a `LaneTable`, and
    no table outlives the positions it was built from. `step` builds one from
    the stored lanes before its first substep, and each substep but the last
    takes the next substep's table from this pass, after `_integrate` has
    moved every vehicle; nothing stores a table. `lane_neighbors` builds one
    per query. So a vehicle a caller moves by hand between steps is queried
    where it now stands.
    """
    if index and state.background:
        return LaneTable(state, refresh=True)
    for veh in state.vehicles:
        veh.lane = nearest_lane_index(state, veh)
    return None


class LaneTable:
    """Per lane, for the positions and lanes at build time:
    - `members`: (vehicle, position along the lane), in `state.vehicles` order.
      A vehicle counts on its stored lane when its heading is within pi/4 of
      the lane's, and on no other lane;
    - `crossing`: the ego's (position along the lane, speed along it floored
      at 0) when the ego is within reach of the lane without being one of its
      members, else None.

    One pass over the vehicles builds it. With `refresh` (see
    `_refresh_lanes`) the pass first sets each vehicle's `lane` to the
    nearest one; without, it reads the stored lanes and changes nothing.
    Build a new table once anything moves.
    """

    def __init__(self, state: ScenarioState, refresh: bool = False):
        self.lanes = lanes = state.geometry.lanes
        self.members: list[list[tuple[VehicleState, float]]] = [[] for _ in lanes]
        for veh in state.vehicles:
            if refresh:
                veh.lane = nearest_lane_index(state, veh)
            lane = lanes[veh.lane]
            if abs(wrap_angle(veh.heading - lane.heading)) <= math.pi / 4:
                self.members[veh.lane].append((veh, lane.along(veh.x, veh.y)))
        ego = state.ego
        self.ego_length = ego.length
        # the ego is filed first, so it is a member of its lane exactly when
        # it heads that lane's list
        ego_lane = self.members[ego.lane]
        member_of = ego.lane if ego_lane and ego_lane[0][0] is ego else None
        reach = (LANE_WIDTH + ego.width) / 2.0
        evx, evy = ego.velocity
        self.crossing: list[tuple[float, float] | None] = [
            None if lane.index == member_of or abs(lane.lateral(ego.x, ego.y)) > reach
            else (lane.along(ego.x, ego.y), max(0.0, evx * lane.cos_h + evy * lane.sin_h))
            for lane in lanes
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
        leader = follower = None
        lead_ds = follow_ds = math.inf
        for other, s in self.members[lane_index]:
            if other.id == veh.id:
                continue
            ds = s - s0
            if 0.0 < ds < lead_ds:
                leader, lead_ds = other, ds
            elif 0.0 < -ds < follow_ds:
                follower, follow_ds = other, -ds
        gap_lead = math.inf if leader is None else lead_ds - (veh.length + leader.length) / 2.0
        gap_follow = math.inf if follower is None else follow_ds - (veh.length + follower.length) / 2.0
        return leader, gap_lead, follower, gap_follow


def lane_neighbors(state: ScenarioState, veh: VehicleState, lane_index: int):
    """`LaneTable.neighbors` on a table built for this one query and dropped
    on return, so it reads the state as it stands now. `step` builds one
    table per substep and answers all of that substep's queries from it."""
    return LaneTable(state).neighbors(veh, lane_index)


# --- controllers ------------------------------------------------------------

def _steer_command(lateral_err_left: float, heading_err: float, speed: float) -> float:
    """Cross-track term is normalized by speed so the commanded correction
    angle stays speed-independent; the heading term damps the approach.
    The min and max calls are spelled as comparisons, as in idm._clamp_accel."""
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
    """Highest speed the steering can track on the curvature ahead.

    The slow proportional speed loop needs early warning, so the window covers
    a comfortable deceleration from the current speed plus a margin.
    """
    route = state.geometry.ego_route
    if route is None:
        return math.inf
    s, _, _ = route.project(ego.x, ego.y)
    lookahead = ego.speed * ego.speed / (2.0 * COMFORT_CURVE_DECEL) + 8.0
    radius = route.min_radius(s, s + lookahead)
    if math.isinf(radius):
        return math.inf
    return math.sqrt(MAX_LATERAL_ACCEL * radius)


def _crossing_ego_gap(table: LaneTable, veh: VehicleState):
    """Gap to an ego blocking this vehicle's lane from across it, if any.

    Car following handles an ego traveling in the lane; this covers the rest,
    mainly the intersection box. Returns (bumper gap, ego speed along the
    lane) or None.
    """
    row = table.crossing[veh.lane]
    if row is None:
        return None
    ds = row[0] - table.lanes[veh.lane].along(veh.x, veh.y)
    if ds <= 0.0:
        return None
    return ds - (veh.length + table.ego_length) / 2.0, row[1]


def _background_control(state: ScenarioState, table: LaneTable, veh: VehicleState):
    """IDM acceleration (current and target lane) plus lane-tracking steering."""
    leader, gap, _, _ = table.neighbors(veh, veh.lane)
    accel = idm_accel(gap, veh.speed, leader.speed if leader else 0.0, veh.profile)
    if veh.target_lane != veh.lane:
        leader, gap, _, _ = table.neighbors(veh, veh.target_lane)
        accel = min(accel, idm_accel(gap, veh.speed, leader.speed if leader else 0.0, veh.profile))
    blocking = _crossing_ego_gap(table, veh)
    if blocking is not None:
        # last-moment reaction, not a polite yield: a short-headway profile
        # brakes hard only once the blocking ego is genuinely close
        panic = replace(veh.profile, time_headway=0.3)
        a = idm_accel(blocking[0], veh.speed, blocking[1], panic)
        if a < 0.0:
            accel = min(accel, a)
    lane = state.geometry.lanes[veh.target_lane]
    lateral = -lane.lateral(veh.x, veh.y)  # offset to centerline, left-positive
    steer = _steer_command(lateral, wrap_angle(lane.heading - veh.heading), veh.speed)
    return accel, steer


def _integrate(veh: VehicleState, accel: float, steer: float, dt: float) -> None:
    speed = veh.speed + accel * dt
    veh.speed = speed if speed > 0.0 else 0.0  # max(0.0, speed), as in idm._clamp_accel
    veh.heading = wrap_angle(veh.heading + veh.speed / veh.wheelbase * math.tan(steer) * dt)
    veh.x += veh.speed * math.cos(veh.heading) * dt
    veh.y += veh.speed * math.sin(veh.heading) * dt


# --- lane changes for background traffic ------------------------------------

def _bg_lane_change_pass(state: ScenarioState, table: LaneTable) -> None:
    if state.config.kind == "intersection":
        return  # cross traffic stays in its lane
    max_lane = 1 if state.config.kind == "merge" else len(state.geometry.lanes) - 1
    for veh in state.background:
        lane = state.geometry.lanes[veh.lane]
        if veh.target_lane != veh.lane or abs(lane.lateral(veh.x, veh.y)) > 0.5:
            continue  # mid-change; settle first
        lead, gap, old_f, old_f_gap = table.neighbors(veh, veh.lane)
        a_before = idm_accel(gap, veh.speed, lead.speed if lead else 0.0, veh.profile)
        for cand in (veh.lane - 1, veh.lane + 1):
            if not 0 <= cand <= max_lane:
                continue
            if _try_lane_change(table, veh, cand, lead, a_before, old_f, old_f_gap):
                break


def _try_lane_change(table, veh, cand, cur_lead, a_before, old_f, old_f_gap) -> bool:
    new_lead, new_lead_gap, new_f, new_f_gap = table.neighbors(veh, cand)
    a_after = idm_accel(new_lead_gap, veh.speed, new_lead.speed if new_lead else 0.0, veh.profile)
    if new_f is not None:
        nf_lead, nf_gap, _, _ = table.neighbors(new_f, cand)
        a_nf_before = idm_accel(nf_gap, new_f.speed, nf_lead.speed if nf_lead else 0.0,
                                new_f.profile)
        a_nf_after = idm_accel(new_f_gap, new_f.speed, veh.speed, new_f.profile)
    else:
        a_nf_before = a_nf_after = 0.0
    if old_f is not None:
        a_of_before = idm_accel(old_f_gap, old_f.speed, veh.speed, old_f.profile)
        if cur_lead is not None:
            lane = table.lanes[veh.lane]
            ds = lane.along(cur_lead.x, cur_lead.y) - lane.along(old_f.x, old_f.y)
            gap_after = ds - (old_f.length + cur_lead.length) / 2.0
            a_of_after = idm_accel(gap_after, old_f.speed, cur_lead.speed, old_f.profile)
        else:
            a_of_after = idm_accel(math.inf, old_f.speed, 0.0, old_f.profile)
    else:
        a_of_before = a_of_after = 0.0
    if mobil_accepts(a_before, a_after, a_nf_before, a_nf_after, a_of_before, a_of_after, veh.profile):
        veh.target_lane = cand
        return True
    return False


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


def _detect_events(state: ScenarioState) -> set[str]:
    ego = state.ego
    events: set[str] = set()
    for veh in state.background:
        # cheap reject before the separating-axis test
        if abs(veh.x - ego.x) < 12.0 and abs(veh.y - ego.y) < 8.0 and rects_overlap(ego, veh):
            events.add("collision")
            break
    if _off_road(state, ego):
        events.add("off_road")
    if "collision" not in events and "off_road" not in events:
        if state.config.success_region.contains(ego.x, ego.lane):
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
    if state.done:
        raise UsageError("step called on a terminal episode")
    params = risk_params or risk_engine.RiskParams()
    apply_maneuver(state, maneuver)
    # only background vehicles query lanes. The lane-change pass moves
    # nothing, so it shares substep 0's table, built from the stored lanes;
    # each later substep reads the table the previous substep's lane pass built
    table = LaneTable(state) if state.background else None
    _bg_lane_change_pass(state, table)

    dt = state.config.dt_physics
    substeps = state.config.substeps
    events: set[str] = set()
    for substep in range(substeps):
        ego = state.ego
        target = min(state.ego_target_speed, _curve_speed_cap(state, ego))
        ego_accel = KP_SPEED * (target - ego.speed)
        ego_accel = min(max(ego_accel, -EMERGENCY_DECEL), ego.profile.max_accel)
        controls = [(ego, ego_accel, _ego_steer(state, ego))]
        for veh in state.background:
            controls.append((veh, *_background_control(state, table, veh)))
        for veh, accel, steer in controls:
            _integrate(veh, accel, steer, dt)
        # the last substep's lanes feed the events and the observation; a
        # table would have no reader
        table = _refresh_lanes(state, index=substep + 1 < substeps)
        events = _detect_events(state)
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
