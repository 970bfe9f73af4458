"""Simulator tests: profiles, spawning, car-following, stepping, observations,
rewards, events, serialization, and lane bookkeeping."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from drivecoach.config import build_section
from drivecoach.errors import ConfigError, UsageError
from drivecoach.sim import (
    EMERGENCY_DECEL,
    FLAT_OBS_DIM,
    LANE_WIDTH,
    MERGE_RAMP_END,
    Maneuver,
    ScenarioConfig,
    ScenarioState,
    TrafficEnv,
    VehicleState,
    idm_accel,
    make_profile,
    mobil_accepts,
    observe,
    rects_overlap,
    reset,
    step,
    trace_record,
    wrap_angle,
)
from drivecoach import risk
from drivecoach.sim import engine
from drivecoach.sim.engine import (LaneTable, _background_controls, _steer_command, lane_neighbors,
                                   nearest_lane_index)
from drivecoach.sim.idm import mobil_safe
from drivecoach.sim.vehicles import rect_corners
from drivecoach.sim.engine import reward as reward_fn
from drivecoach.sim import scenarios
from drivecoach.sim.paths import Route
from drivecoach.sim.scenarios import N_NEIGHBOR_SLOTS, SCENARIO_KINDS, _draw_speeds, build_geometry
from drivecoach.teacher.rules import build_telemetry


def make_state(kind: str, ego: VehicleState, background: list[VehicleState], **cfg) -> ScenarioState:
    config = ScenarioConfig(kind=kind, n_background=len(background), **cfg)
    return ScenarioState(
        config=config,
        geometry=build_geometry(kind),
        ego=ego,
        background=background,
        ego_target_speed=ego.speed,
    )


def plain_vehicle(vid, x, y, speed, heading=0.0, lane=0, kind="highway", style="standard"):
    return VehicleState(
        id=vid, x=x, y=y, speed=speed, heading=heading, lane=lane,
        profile=make_profile(style, kind),
    )


class TestProfiles:
    def test_scenario_speeds(self):
        assert make_profile("standard", "intersection").desired_speed == 8.0
        assert make_profile("standard", "merge").desired_speed == 25.0
        assert make_profile("standard", "highway").desired_speed == 25.0

    def test_style_scaling(self):
        std = make_profile("standard", "highway")
        cons = make_profile("conservative", "highway")
        aggr = make_profile("aggressive", "highway")
        assert cons.desired_speed == pytest.approx(0.8 * std.desired_speed)
        assert aggr.desired_speed == pytest.approx(1.2 * std.desired_speed)
        assert cons.max_accel == pytest.approx(0.8 * std.max_accel)
        assert cons.time_headway == pytest.approx(std.time_headway + 0.5)
        assert aggr.time_headway == pytest.approx(std.time_headway - 0.5)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="reckless"):
            make_profile("reckless", "highway")

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("style", ["conservative", "standard", "aggressive"])
    def test_braking_term_is_idms_bit_for_bit(self, kind, style):
        """The stored term is IDM's 2 * sqrt(a * b), in a profile built by
        `make_profile` and in one `replace` derives from it, and it is no
        part of a profile's identity."""
        profile = make_profile(style, kind)
        for p in (profile, engine._panic_profile(profile),
                  dataclasses.replace(profile, max_accel=1.7, comfort_decel=2.9)):
            assert p.braking_term.hex() == (2.0 * math.sqrt(p.max_accel * p.comfort_decel)).hex()
        assert engine._panic_profile(profile) == dataclasses.replace(profile, time_headway=0.3)
        assert "braking_term" not in repr(profile)
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.braking_term = 1.0


class TestConfig:
    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="n_background"):
            ScenarioConfig(kind="merge", n_background=-1).validate()
        with pytest.raises(ConfigError, match="disturbance_fraction"):
            ScenarioConfig(kind="merge", disturbance_fraction=1.5).validate()
        with pytest.raises(ConfigError, match="decision_period"):
            ScenarioConfig(kind="merge", decision_period=0.25, dt_physics=0.1).validate()
        with pytest.raises(ConfigError, match="kind"):
            ScenarioConfig(kind="roundabout").validate()
        # a negative lane bound would index the lanes from the end
        region = scenarios.SuccessRegion(min_x=240.0, max_lane=-1)
        with pytest.raises(ConfigError, match=r"scenario\.success_region\.max_lane: must be >= 0, got -1"):
            ScenarioConfig(kind="merge", success_region=region).validate()
        ScenarioConfig(kind="merge", success_region=scenarios.SuccessRegion(max_lane=0)).validate()

    def test_round_trip(self):
        cfg = ScenarioConfig(kind="merge", n_background=7)
        again = build_section("scenario", ScenarioConfig, cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wind_speed"):
            build_section("scenario", ScenarioConfig, {"kind": "merge", "wind_speed": 3})


class TestSpawn:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig(kind="merge", n_background=8)
        s1, _ = reset(cfg, seed=7)
        s2, _ = reset(cfg, seed=7)
        assert s1.state_dict() == s2.state_dict()

    def test_disturbance_resamples_a_fixed_count_of_speeds(self):
        profiles = [make_profile("standard", "highway")] * 20

        def speeds(fraction):
            cfg = ScenarioConfig(kind="highway", n_background=20, disturbance_fraction=fraction)
            return _draw_speeds(np.random.default_rng(3), profiles, cfg)

        # the normal draws come first, so the undisturbed speeds are shared
        changed = [a != b for a, b in zip(speeds(0.15), speeds(0.0))]
        assert sum(changed) == round(0.15 * 20) == 3

    def test_empty_traffic(self):
        cfg = ScenarioConfig(kind="merge", n_background=0)
        state, obs = reset(cfg, seed=1)
        assert state.background == []
        assert obs.neighbor_count == 0
        assert not obs.neighbors.any()

    def test_speeds_within_truncation(self):
        cfg = ScenarioConfig(kind="highway", n_background=30)
        state, _ = reset(cfg, seed=11)
        for veh in state.background:
            assert 0.0 <= veh.speed <= 1.7 * cfg.spawn_speed_mean + 1e-9

    def test_no_initial_overlap(self):
        for seed in range(5):
            cfg = ScenarioConfig(kind="highway", n_background=12)
            state, _ = reset(cfg, seed=seed)
            vehicles = state.vehicles
            for i in range(len(vehicles)):
                for j in range(i + 1, len(vehicles)):
                    assert not rects_overlap(vehicles[i], vehicles[j])


def choice_spawn(config: ScenarioConfig, geometry, rng: np.random.Generator):
    """`spawn` as it drew through `Generator.choice` and truncated through
    `np.clip`: the reference its cdf and integer draws must match."""
    kind = config.kind
    layout = scenarios._LAYOUTS[kind]
    styles = list(rng.choice(scenarios._STYLES, size=config.n_background, p=scenarios._STYLE_WEIGHTS))
    profiles = [make_profile(str(s), kind) for s in styles]
    n = len(profiles)
    speeds = rng.normal(config.spawn_speed_mean, config.spawn_speed_std, size=n)
    speeds = [float(np.clip(s, 0.0, 1.5 * p.desired_speed)) for s, p in zip(speeds, profiles)]
    n_disturbed = int(round(config.disturbance_fraction * n))
    disturbed = sorted(rng.choice(n, size=n_disturbed, replace=False).tolist()) if n_disturbed else []
    for i in disturbed:
        speeds[i] = float(rng.uniform(0.3 * config.spawn_speed_mean, 1.7 * config.spawn_speed_mean))
    ego = VehicleState(0, *layout.ego, profile=make_profile("standard", kind))
    lane_of = [int(l) for l in rng.choice(list(layout.windows), size=n, p=layout.lane_p)]
    per_lane = {}
    for i, lane in enumerate(lane_of):
        per_lane.setdefault(lane, []).append(i)
    background = []
    for lane, members in sorted(per_lane.items()):
        lo, hi = layout.windows[lane]
        if kind != "intersection" and lane == ego.lane:
            lo = max(lo, ego.x + 20.0)
        road = geometry.lanes[lane]
        for i, x in zip(members, scenarios._spaced_positions(rng, len(members), lo, hi, layout.gap)):
            if kind == "intersection" and abs(x) < 6.0:
                x = 6.0 if x >= 0 else -6.0
            background.append(VehicleState(id=len(background) + 1, x=x, y=road.origin_y, speed=speeds[i],
                                           heading=road.heading, lane=lane, profile=profiles[i]))
    return ego, background


class TestSpawnDraws:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_spawn_draws_what_generator_choice_drew(self, kind):
        """Every vehicle, and the generator's state after the spawn, equal the
        `Generator.choice` reference. A wide speed spread also takes the
        truncation to both of its bounds."""
        geometry = build_geometry(kind)
        bounds = set()
        for n_background in (0, 1, 5, 10, 20):
            for std in (None, 40.0):
                config = ScenarioConfig(kind=kind, n_background=n_background, spawn_speed_std=std,
                                        disturbance_fraction=0.0 if std else 0.15)
                for seed in range(50):
                    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = scenarios.spawn(config, geometry, got_rng)
                    want = choice_spawn(config, geometry, want_rng)
                    assert ([v.to_dict() for v in [got[0], *got[1]]]
                            == [v.to_dict() for v in [want[0], *want[1]]]), (n_background, std, seed)
                    assert [v.speed.hex() for v in got[1]] == [v.speed.hex() for v in want[1]]
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    bounds |= {"zero" if v.speed == 0.0 else "top" for v in got[1]
                               if v.speed in (0.0, 1.5 * v.profile.desired_speed)}
        assert bounds == {"zero", "top"}

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_geometry_and_profiles_are_built_once_per_kind(self, kind):
        geometry = build_geometry(kind)
        assert build_geometry(kind) is geometry
        state, _ = reset(ScenarioConfig(kind=kind, n_background=5), seed=0)
        assert state.geometry is geometry
        assert all(v.profile is make_profile(v.profile.name, kind) for v in state.vehicles)
        with pytest.raises(dataclasses.FrozenInstanceError):
            geometry.lanes = ()
        with pytest.raises(TypeError):
            geometry.lanes[0] = geometry.lanes[-1]
        if geometry.ego_route is not None:
            with pytest.raises(TypeError):
                geometry.ego_route.segments[0] = geometry.ego_route.segments[-1]


class TestIdm:
    def test_equilibrium_at_desired_speed(self):
        p = make_profile("standard", "highway")
        assert idm_accel(math.inf, p.desired_speed, 0.0, p) == pytest.approx(0.0)

    def test_free_road_start(self):
        p = make_profile("standard", "highway")
        assert idm_accel(math.inf, 0.0, 0.0, p) == pytest.approx(p.max_accel)

    def test_following_at_twice_desired_gap_brakes(self):
        # at v == desired the free term vanishes, leaving the gap term negative
        p = make_profile("conservative", "merge")  # desired 20
        v = v_lead = 20.0
        s_star = p.min_gap + v * p.time_headway
        a = idm_accel(2.0 * s_star, v, v_lead, p)
        expected = p.max_accel * (1.0 - (v / p.desired_speed) ** 4 - 0.25)
        assert a == pytest.approx(expected)
        assert a < 0.0

    def test_non_positive_gap_is_emergency(self):
        p = make_profile("standard", "highway")
        assert idm_accel(-0.5, 10.0, 10.0, p) == -EMERGENCY_DECEL

    def test_matches_direct_formula(self):
        p = make_profile("aggressive", "highway")
        rng = np.random.default_rng(0)
        for _ in range(200):
            gap = float(rng.uniform(1.0, 120.0))
            v = float(rng.uniform(0.0, 35.0))
            v_lead = float(rng.uniform(0.0, 35.0))
            s_star = p.min_gap + v * p.time_headway + v * (v - v_lead) / (
                2.0 * math.sqrt(p.max_accel * p.comfort_decel)
            )
            raw = p.max_accel * (1.0 - (v / p.desired_speed) ** 4 - (s_star / gap) ** 2)
            expected = max(-EMERGENCY_DECEL, min(p.max_accel, raw))
            assert idm_accel(gap, v, v_lead, p) == pytest.approx(expected)


class TestStep:
    def test_cruise_holds_speed_on_empty_road(self):
        cfg = ScenarioConfig(kind="highway", n_background=0)
        state, _ = reset(cfg, seed=0)
        state.ego.speed = state.ego_target_speed
        v0 = state.ego.speed
        step(state, Maneuver.Cruise)
        assert abs(state.ego.speed - v0) < 0.1

    def test_turn_left_monotone_approach(self):
        cfg = ScenarioConfig(kind="highway", n_background=0)
        state, _ = reset(cfg, seed=0)
        assert state.ego.lane == 2
        target_y = -LANE_WIDTH * 1
        offsets = [abs(state.ego.y - target_y)]
        # sample sub-step granularity by running decision steps at dt period
        fine = ScenarioConfig(kind="highway", n_background=0,
                              decision_period=0.1, dt_physics=0.1, horizon=200)
        fstate, _ = reset(fine, seed=0)
        step(fstate, Maneuver.TurnLeft)
        offsets = [abs(fstate.ego.y - target_y)]
        for _ in range(9):
            step(fstate, Maneuver.Cruise)
            offsets.append(abs(fstate.ego.y - target_y))
        assert fstate.ego.target_lane == 1
        assert all(b < a for a, b in zip(offsets, offsets[1:]))

    def test_turn_left_from_leftmost_is_clamped(self):
        cfg = ScenarioConfig(kind="highway", n_background=0)
        state, _ = reset(cfg, seed=0)
        state.ego.lane = state.ego.target_lane = 0
        state.ego.y = 0.0
        step(state, Maneuver.TurnLeft)
        assert state.ego.target_lane == 0

    def test_collision_detected_and_terminal(self):
        ego = plain_vehicle(0, 50.0, -8.0, 20.0, lane=2)
        other = plain_vehicle(1, 58.0, -8.0, 0.0, lane=2)
        state = make_state("highway", ego, [other])
        out = step(state, Maneuver.Cruise)
        assert "collision" in out.events
        assert out.done
        assert out.reward <= -(10.0 - 0.4)
        with pytest.raises(UsageError):
            step(state, Maneuver.Cruise)

    def test_ramp_end_is_off_road(self):
        ego = plain_vehicle(0, 192.0, -8.0, 15.0, lane=2, kind="merge")
        state = make_state("merge", ego, [])
        events = set()
        for _ in range(3):
            out = step(state, Maneuver.Cruise)
            events |= out.events
            if out.done:
                break
        assert "off_road" in events
        assert state.ego.x > MERGE_RAMP_END

    def test_merge_success_region(self):
        ego = plain_vehicle(0, 235.0, -4.0, 20.0, lane=1, kind="merge")
        state = make_state("merge", ego, [])
        out = step(state, Maneuver.Cruise)
        assert out.events == {"success"}
        assert out.reward > 5.0 - 1e-9

    def test_timeout_at_horizon(self):
        cfg = ScenarioConfig(kind="highway", n_background=0, horizon=3)
        state, _ = reset(cfg, seed=0)
        state.ego.speed = state.ego_target_speed = 0.1  # crawl, never reaching the goal
        events = None
        for _ in range(3):
            out = step(state, Maneuver.SlowDown)
            events = out.events
        assert events == {"timeout"}
        assert state.decision_step == 3

    def test_every_episode_terminates_within_horizon(self):
        rng = np.random.default_rng(5)
        for kind in ("merge", "highway", "intersection"):
            cfg = ScenarioConfig(kind=kind, n_background=4)
            state, _ = reset(cfg, seed=9)
            steps = 0
            while not state.done:
                m = Maneuver(int(rng.integers(0, 5)))
                step(state, m)
                steps += 1
                assert steps <= cfg.horizon
            assert steps <= cfg.horizon

    def test_speed_never_negative_and_accel_bounded(self):
        fine = ScenarioConfig(kind="merge", n_background=6,
                              decision_period=0.1, dt_physics=0.1, horizon=400)
        state, _ = reset(fine, seed=4)
        prev = {v.id: v.speed for v in state.vehicles}
        bound = EMERGENCY_DECEL * fine.dt_physics + 1e-9
        for _ in range(200):
            if state.done:
                break
            step(state, Maneuver.SlowDown)
            for v in state.vehicles:
                assert v.speed >= 0.0
                assert abs(v.speed - prev[v.id]) <= bound
                prev[v.id] = v.speed

    def test_deterministic_trajectories(self):
        cfg = ScenarioConfig(kind="intersection", n_background=6)
        seq = [Maneuver.Cruise, Maneuver.SlowDown, Maneuver.SpeedUp] * 4
        dicts = []
        for _ in range(2):
            state, _ = reset(cfg, seed=21)
            for m in seq:
                if state.done:
                    break
                step(state, m)
            dicts.append(state.state_dict())
        assert dicts[0] == dicts[1]


class TestObserve:
    def test_neighbor_directly_ahead(self):
        ego = plain_vehicle(0, 10.0, -8.0, 20.0, lane=2)
        other = plain_vehicle(1, 20.0, -8.0, 20.0, lane=2)
        state = make_state("highway", ego, [other])
        obs = observe(state)
        assert obs.neighbor_count == 1
        np.testing.assert_allclose(obs.neighbors[:, 0], [10, 0, 0, 0, 1, 0], atol=1e-12)
        assert not obs.neighbors[:, 1:].any()

    def test_flat_dimension(self):
        cfg = ScenarioConfig(kind="highway", n_background=3)
        _, obs = reset(cfg, seed=2)
        assert obs.vector.shape == (FLAT_OBS_DIM,)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_flat_is_the_observations_own_vector(self, kind):
        """`vector` is the ego block then each slot's features, and it, `ego`
        and `neighbors` are one array: no copy is made."""
        state, obs = reset(ScenarioConfig(kind=kind, n_background=10), seed=3)
        for _ in range(3):
            flat = obs.vector
            assert flat.shape == (FLAT_OBS_DIM,)
            assert np.array_equal(flat, np.concatenate([obs.ego, obs.neighbors.T.ravel()]))
            assert obs.neighbors.shape == (6, N_NEIGHBOR_SLOTS)
            assert np.shares_memory(obs.ego, flat) and np.shares_memory(obs.neighbors, flat)
            obs = step(state, Maneuver.Cruise).observation

    def test_distance_sorted_and_capped(self):
        ego = plain_vehicle(0, 100.0, -8.0, 20.0, lane=2)
        rng = np.random.default_rng(8)
        others = [
            plain_vehicle(i + 1, 100.0 + float(rng.uniform(-60, 60)), -4.0 * int(rng.integers(0, 4)),
                          15.0, lane=0)
            for i in range(8)
        ]
        state = make_state("highway", ego, others)
        obs = observe(state)
        assert obs.neighbor_count == 6
        # oracle: brute-force sort of all in-range vehicles by distance
        dists = sorted(
            (math.hypot(v.x - ego.x, v.y - ego.y), v.id) for v in others
            if math.hypot(v.x - ego.x, v.y - ego.y) <= 100.0
        )
        assert obs.neighbor_ids == [vid for _, vid in dists[:6]]
        col_dists = [math.hypot(obs.neighbors[0, k], obs.neighbors[1, k]) for k in range(6)]
        assert col_dists == sorted(col_dists)

    def test_frame_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ego = plain_vehicle(0, float(rng.uniform(-50, 50)), float(rng.uniform(-12, 0)),
                                float(rng.uniform(0, 30)), heading=float(rng.uniform(-3, 3)),
                                lane=1)
            other = plain_vehicle(1, float(rng.uniform(-50, 50)), float(rng.uniform(-12, 0)),
                                  float(rng.uniform(0, 30)), heading=float(rng.uniform(-3, 3)), lane=1)
            state = make_state("highway", ego, [other])
            obs = observe(state)
            if obs.neighbor_count == 0:
                continue
            c, s = math.cos(ego.heading), math.sin(ego.heading)
            rx, ry, rvx, rvy = obs.neighbors[:4, 0]
            wx = ego.x + c * rx - s * ry
            wy = ego.y + s * rx + c * ry
            evx, evy = ego.velocity
            wvx = evx + c * rvx - s * rvy
            wvy = evy + s * rvx + c * rvy
            ovx, ovy = other.velocity
            assert abs(wx - other.x) < 1e-9 and abs(wy - other.y) < 1e-9
            assert abs(wvx - ovx) < 1e-9 and abs(wvy - ovy) < 1e-9


class TestReward:
    def test_speed_at_ceiling(self):
        ego = plain_vehicle(0, 50.0, -8.0, 25.0, lane=2)
        state = make_state("highway", ego, [])
        assert reward_fn(state, Maneuver.Cruise, set()) == pytest.approx(0.4)

    def test_collision_penalty_bound(self):
        ego = plain_vehicle(0, 50.0, -8.0, 10.0, lane=2)
        state = make_state("highway", ego, [])
        r = reward_fn(state, Maneuver.Cruise, {"collision"})
        assert r <= -10.0 + 0.4

    def test_episode_return_matches_recomputation(self):
        cfg = ScenarioConfig(kind="merge", n_background=5)
        state, _ = reset(cfg, seed=17)
        seq = [Maneuver.SpeedUp, Maneuver.Cruise, Maneuver.TurnLeft, Maneuver.Cruise, Maneuver.Cruise]
        total = 0.0
        recomputed = 0.0
        for m in seq:
            if state.done:
                break
            out = step(state, m)
            total += out.reward
            # independent arithmetic from the observed post-step state
            v_hi = state.ego.profile.desired_speed
            expect = 0.4 * min(max(state.ego.speed / v_hi, 0.0), 1.0)
            expect -= 10.0 * ("collision" in out.events)
            expect -= 5.0 * ("off_road" in out.events)
            expect += 5.0 * ("success" in out.events)
            recomputed += expect
        assert total == pytest.approx(recomputed, abs=1e-12)


class TestCollisionGeometry:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(300):
            a = plain_vehicle(0, float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                              5.0, heading=float(rng.uniform(-3, 3)))
            b = plain_vehicle(1, float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                              5.0, heading=float(rng.uniform(-3, 3)))
            assert rects_overlap(a, b) == rects_overlap(b, a)
            hits += rects_overlap(a, b)
        assert 0 < hits < 300  # both outcomes exercised

    def test_circle_reject_agrees_with_the_full_test(self):
        """Pairs placed around the distance where the corner circles touch,
        with random sizes and headings, give the separating-axis answer."""
        def separating_axis(a, b):
            ca, cb = rect_corners(a), rect_corners(b)
            for v in (a, b):
                c, s = math.cos(v.heading), math.sin(v.heading)
                for ax, ay in ((c, s), (-s, c)):
                    pa = [x * ax + y * ay for x, y in ca]
                    pb = [x * ax + y * ay for x, y in cb]
                    if max(pa) < min(pb) or max(pb) < min(pa):
                        return False
            return True

        rng = np.random.default_rng(4)
        outcomes = set()
        for _ in range(3000):
            a = plain_vehicle(0, float(rng.uniform(-300, 300)), float(rng.uniform(-20, 20)), 5.0,
                              heading=float(rng.uniform(-3.2, 3.2)))
            b = plain_vehicle(1, 0.0, 0.0, 5.0, heading=float(rng.uniform(-3.2, 3.2)))
            a.length, a.width, b.length, b.width = (float(v) for v in rng.uniform(0.5, 12.0, size=4))
            reach = (math.hypot(a.length, a.width) + math.hypot(b.length, b.width)) / 2.0
            bearing = float(rng.uniform(-math.pi, math.pi))
            distance = reach * float(rng.choice([rng.uniform(0.3, 1.0), rng.uniform(0.999, 1.002)]))
            b.x, b.y = a.x + distance * math.cos(bearing), a.y + distance * math.sin(bearing)
            got = rects_overlap(a, b)
            assert got == separating_axis(a, b)
            outcomes.add((got, distance > 1.001 * reach))
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_known_cases(self):
        a = plain_vehicle(0, 0.0, 0.0, 5.0)
        assert rects_overlap(a, plain_vehicle(1, 4.0, 0.0, 5.0))
        assert not rects_overlap(a, plain_vehicle(1, 5.5, 0.0, 5.0))
        assert not rects_overlap(a, plain_vehicle(1, 0.0, 2.5, 5.0))
        # rotated bumper clips the corner
        assert rects_overlap(a, plain_vehicle(1, 4.5, 1.5, 5.0, heading=math.pi / 4))


class TestSerialization:
    def test_mid_episode_round_trip(self):
        cfg = ScenarioConfig(kind="merge", n_background=6)
        state, _ = reset(cfg, seed=33)
        for m in (Maneuver.SpeedUp, Maneuver.Cruise, Maneuver.TurnLeft):
            step(state, m)
        d = state.state_dict()
        clone = ScenarioState.from_state_dict(d, build_section("scenario", ScenarioConfig, d["config"]))
        assert clone.state_dict() == state.state_dict()
        out_a = step(state, Maneuver.Cruise)
        out_b = step(clone, Maneuver.Cruise)
        assert out_a.reward == out_b.reward
        assert out_a.events == out_b.events
        np.testing.assert_array_equal(out_a.observation.vector, out_b.observation.vector)

    @pytest.mark.parametrize("kind", ["merge", "highway", "intersection"])
    def test_state_dict_round_trip_field_for_field(self, kind):
        state, _ = reset(ScenarioConfig(kind=kind, n_background=5), seed=7)
        for m in (Maneuver.SpeedUp, Maneuver.TurnLeft, Maneuver.Cruise):
            step(state, m)
        assert not state.done
        clone = ScenarioState.from_state_dict(state.state_dict(), state.config)
        for f in dataclasses.fields(ScenarioState):
            if f.name != "geometry":
                assert getattr(clone, f.name) == getattr(state, f.name), f.name
        # the geometry is rebuilt from the kind, and a Route compares by identity
        def parts(geometry):
            route = geometry.ego_route
            return geometry.lanes, route and route.segments

        assert parts(clone.geometry) == parts(state.geometry)

    def test_reset_does_not_validate_again(self, monkeypatch):
        env = TrafficEnv(ScenarioConfig(kind="merge", n_background=3))
        calls = []
        monkeypatch.setattr(ScenarioConfig, "validate", lambda self, *a, **k: calls.append(a))
        for seed in range(10):
            env.reset(seed)
        assert calls == []

    def test_env_wrapper(self):
        env = TrafficEnv(ScenarioConfig(kind="highway", n_background=3))
        with pytest.raises(UsageError):
            env.step(Maneuver.Cruise)
        obs = env.reset(seed=2)
        assert obs.vector.shape == (FLAT_OBS_DIM,)
        out = env.step(Maneuver.Cruise)
        assert isinstance(out.reward, float)


MANEUVER_CYCLE = (Maneuver.SpeedUp, Maneuver.TurnLeft, Maneuver.Cruise,
                  Maneuver.TurnRight, Maneuver.SlowDown, Maneuver.Cruise)


def rollout_states(kind: str, n_background: int, seed: int):
    """The state after reset and after every step of a fixed maneuver cycle."""
    state, _ = reset(ScenarioConfig(kind=kind, n_background=n_background), seed=seed)
    yield state
    i = 0
    while not state.done:
        step(state, MANEUVER_CYCLE[i % len(MANEUVER_CYCLE)])
        i += 1
        yield state


def reference_neighbors(state: ScenarioState, veh: VehicleState, lane_index: int):
    """Leader and follower by two separate scans, each candidate's nearest lane
    worked out again from its position; strict <, the first match wins."""
    lane = state.geometry.lanes[lane_index]
    s0 = lane.along(veh.x, veh.y)

    def member(other):
        if abs(wrap_angle(other.heading - lane.heading)) > math.pi / 4:
            return False
        return nearest_lane_index(state, other) == lane_index

    def scan(distance):
        best, best_ds = None, math.inf
        for other in state.vehicles:
            if other.id == veh.id or not member(other):
                continue
            ds = distance(lane.along(other.x, other.y))
            if 0.0 < ds < best_ds:
                best, best_ds = other, ds
        if best is None:
            return None, math.inf
        return best, best_ds - (veh.length + best.length) / 2.0

    leader, gap_lead = scan(lambda s: s - s0)
    follower, gap_follow = scan(lambda s: s0 - s)
    return leader, gap_lead, follower, gap_follow


def reference_crossing(state: ScenarioState, veh: VehicleState, seen: set | None = None):
    """The ego's crossing gap worked out per vehicle from the stored lanes:
    (bumper gap, ego speed along the lane) or None. `seen` collects "behind"
    when the ego is within reach but not ahead, and "fires" on an answer."""
    ego = state.ego
    lane = state.geometry.lanes[veh.lane]
    if ego.lane == lane.index and abs(wrap_angle(ego.heading - lane.heading)) <= math.pi / 4:
        return None
    if abs(lane.lateral(ego.x, ego.y)) > (LANE_WIDTH + ego.width) / 2.0:
        return None
    ds = lane.along(ego.x, ego.y) - lane.along(veh.x, veh.y)
    if ds <= 0.0:
        if seen is not None:
            seen.add("behind")
        return None
    evx, evy = ego.velocity
    v_along = evx * math.cos(lane.heading) + evy * math.sin(lane.heading)
    if seen is not None:
        seen.add("fires")
    return ds - (veh.length + ego.length) / 2.0, max(0.0, v_along)


def reference_control(state: ScenarioState, veh: VehicleState, seen: set | None = None):
    """A background vehicle's (accel, steer) from the reference scans: IDM on
    its lane and target lane, the panic brake for a crossing ego, and
    lane-tracking steering. `seen` also collects "brakes" when the crossing
    ego sets the acceleration."""
    leader, gap, _, _ = reference_neighbors(state, veh, veh.lane)
    accel = idm_accel(gap, veh.speed, leader.speed if leader else 0.0, veh.profile)
    if veh.target_lane != veh.lane:
        leader, gap, _, _ = reference_neighbors(state, veh, veh.target_lane)
        accel = min(accel, idm_accel(gap, veh.speed, leader.speed if leader else 0.0, veh.profile))
    blocking = reference_crossing(state, veh, seen)
    if blocking is not None:
        panic = dataclasses.replace(veh.profile, time_headway=0.3)
        a = idm_accel(blocking[0], veh.speed, blocking[1], panic)
        if a < 0.0 and a < accel:
            accel = a
            if seen is not None:
                seen.add("brakes")
    lane = state.geometry.lanes[veh.target_lane]
    steer = _steer_command(-lane.lateral(veh.x, veh.y), wrap_angle(lane.heading - veh.heading), veh.speed)
    return accel, steer


def assert_controls_match_reference(state: ScenarioState, seen: set | None = None) -> None:
    """The control pass, crossing ego included, matches the reference bit for bit."""
    got = _background_controls(state, LaneTable.of(state))
    for veh, control in zip(state.background, got):
        want = reference_control(state, veh, seen)
        assert [v.hex() for v in control] == [v.hex() for v in want], (state.decision_step, veh.id)


ROLLOUT_CASES = [(kind, n) for kind in ("merge", "highway", "intersection") for n in (5, 20)]


def test_panic_profile_built_once_per_driver_profile(monkeypatch):
    """A crossing ego's panic brake uses one short-headway profile per driver
    profile, however often it fires."""
    builds, calls = {}, []
    real_replace, cached = dataclasses.replace, engine._panic_profile

    def counting_replace(profile, **changes):
        builds[profile] = builds.get(profile, 0) + 1
        return real_replace(profile, **changes)

    def counting_panic(profile):
        calls.append(profile)
        return cached(profile)

    cached.cache_clear()
    monkeypatch.setattr(engine, "replace", counting_replace)
    monkeypatch.setattr(engine, "_panic_profile", counting_panic)
    for seed in range(20):
        for _ in rollout_states("merge", 5, seed):
            pass
    assert len(calls) > len(set(calls)) > 0
    assert builds and max(builds.values()) == 1
    cached.cache_clear()
    for kind in SCENARIO_KINDS:
        for style in ("conservative", "standard", "aggressive"):
            profile = make_profile(style, kind)
            panic = cached(profile)
            assert panic == real_replace(profile, time_headway=0.3), (kind, style)
            assert cached(profile) is panic


class TestLaneBookkeeping:
    @pytest.mark.parametrize("kind,n_background", ROLLOUT_CASES)
    def test_stored_lane_is_nearest_lane(self, kind, n_background):
        for seed in range(5):
            for state in rollout_states(kind, n_background, seed):
                for veh in state.vehicles:
                    assert veh.lane == nearest_lane_index(state, veh), (seed, state.decision_step, veh.id)

    def test_from_state_dict_derives_lane_from_position(self):
        state, _ = reset(ScenarioConfig(kind="highway", n_background=5), seed=4)
        d = state.state_dict()
        d["ego"]["lane"] = 0  # the ego spawns on lane 2 at y = -8
        for v in d["background"]:
            v["lane"] = (v["lane"] + 1) % 4
        clone = ScenarioState.from_state_dict(d, state.config)
        assert clone.ego.lane == 2
        assert [v.lane for v in clone.background] == [v.lane for v in state.background]
        for veh in clone.vehicles:
            assert veh.lane == nearest_lane_index(clone, veh)

    @pytest.mark.parametrize("kind,n_background", ROLLOUT_CASES)
    def test_lane_neighbors_match_reference_scans(self, kind, n_background):
        for seed in range(5):
            for state in rollout_states(kind, n_background, seed):
                for veh in state.vehicles:
                    for lane in state.geometry.lanes:
                        got = lane_neighbors(state, veh, lane.index)
                        want = reference_neighbors(state, veh, lane.index)
                        assert got[0] is want[0] and got[2] is want[2]
                        assert got[1] == want[1] and got[3] == want[3]

    def test_lane_neighbors_hand_built(self):
        ego = plain_vehicle(0, 50.0, -4.0, 20.0, lane=1)
        leader = plain_vehicle(1, 72.0, -4.0, 18.0, lane=1)
        follower = plain_vehicle(2, 35.0, -4.0, 22.0, lane=1)
        abeam = plain_vehicle(3, 50.0, -3.0, 20.0, lane=1)  # ds = 0: neither
        oncoming = plain_vehicle(4, 60.0, -4.0, 20.0, heading=math.pi, lane=1)
        # as far along as the leader and the follower: the first listed wins
        leader_twin = plain_vehicle(5, 72.0, -5.0, 18.0, lane=1)
        follower_twin = plain_vehicle(6, 35.0, -3.0, 22.0, lane=1)
        state = make_state("highway", ego, [leader, follower, abeam, oncoming,
                                            leader_twin, follower_twin])
        assert lane_neighbors(state, ego, 1) == (leader, 17.0, follower, 10.0)
        assert lane_neighbors(state, ego, 1) == reference_neighbors(state, ego, 1)
        # seen from the abeam car, the ego is likewise neither
        assert lane_neighbors(state, abeam, 1) == (leader, 17.0, follower, 10.0)
        assert lane_neighbors(state, ego, 3) == (None, math.inf, None, math.inf)


# lane midlines, where two lanes are equally near and the tie rule decides
MIDLINES = {"merge": (-2.0, -6.0), "highway": (-2.0, -6.0, -10.0), "intersection": (0.0,)}
LANE_HEADINGS = {"merge": (0.0,), "highway": (0.0,), "intersection": (0.0, math.pi)}


def random_state(kind: str, rng: np.random.Generator, n_vehicles: int = 12) -> ScenarioState:
    """Vehicles anywhere near the road, many of them on a tie or at a shared x,
    with headings at and around the pi/4 membership limit; each stored lane is
    the nearest lane."""
    xs = rng.choice([20.0, 35.5, 50.0], size=n_vehicles)  # equal `along` values
    cars = []
    for vid in range(n_vehicles):
        x = float(xs[vid]) if rng.random() < 0.5 else float(rng.uniform(-60.0, 300.0))
        pick = rng.random()
        if pick < 0.3:
            y = float(rng.choice(MIDLINES[kind]))
        elif pick < 0.4:
            y = float(rng.choice([25.0, -40.0]))  # off the road
        else:
            y = float(rng.uniform(-16.0, 6.0))
        base = float(rng.choice(LANE_HEADINGS[kind]))
        pick = rng.random()
        if pick < 0.4:
            heading = base
        elif pick < 0.7:
            heading = base + float(rng.choice([math.pi / 4, -math.pi / 4]))
        else:
            heading = float(rng.uniform(-math.pi, math.pi))
        cars.append(plain_vehicle(vid, x, y, float(rng.uniform(0.0, 30.0)), heading=heading,
                                  kind=kind))
    state = make_state(kind, cars[0], cars[1:])
    for veh in state.vehicles:
        veh.lane = nearest_lane_index(state, veh)
    return state


def random_controls(state: ScenarioState, rng: np.random.Generator) -> list[tuple[float, float]]:
    """One (accel, steer) per vehicle, ego first, across the actuators' ranges.
    About a third of the vehicles are stopped and held, so they keep their
    ties and their headings at the membership limit through a move."""
    controls = []
    for veh in state.vehicles:
        if rng.random() < 0.3:
            veh.speed = 0.0
            controls.append((-EMERGENCY_DECEL, float(rng.uniform(-0.6, 0.6))))
        else:
            controls.append((float(rng.uniform(-EMERGENCY_DECEL, 3.0)), float(rng.uniform(-0.6, 0.6))))
    return controls


def reference_ego_move(state: ScenarioState, accel: float, steer: float, dt: float,
                       table: LaneTable | None) -> None:
    """The ego's move as `step`'s loop body does it, from the helpers it
    mirrors: the kinematic bicycle with `wrap_angle` and the `wheelbase`
    property, then `nearest_lane_index` and `LaneTable.add`."""
    ego = state.ego
    ego.speed = max(0.0, ego.speed + accel * dt)
    ego.heading = wrap_angle(ego.heading + ego.speed / ego.wheelbase * math.tan(steer) * dt)
    ego.x += ego.speed * math.cos(ego.heading) * dt
    ego.y += ego.speed * math.sin(ego.heading) * dt
    ego.lane = nearest_lane_index(state, ego)
    if table is not None:
        table.add(ego)


def reference_ego_control(state: ScenarioState, ego: VehicleState) -> tuple[float, float]:
    """The ego's (accel, steer), which `step` works out in place on straight
    lanes: a proportional speed loop toward the target speed, clamped to
    [-EMERGENCY_DECEL, max_accel], and the lateral loop toward the target
    lane's center. On the route it is `_ego_control`."""
    if state.geometry.ego_route is not None:
        return engine._ego_control(state, ego, None)
    accel = engine.KP_SPEED * (state.ego_target_speed - ego.speed)
    accel = min(max(accel, -EMERGENCY_DECEL), ego.profile.max_accel)
    steer = _steer_command(-LANE_WIDTH * ego.target_lane - ego.y, wrap_angle(-ego.heading), ego.speed)
    return accel, steer


def reference_offroad(state: ScenarioState, ego: VehicleState) -> bool:
    """Whether the ego is off the road: more than a lane width off the
    intersection's route, past the outer edge of an outer lane, or on the
    merge ramp's band past its end."""
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


def reference_in_region(region: scenarios.SuccessRegion, x: float, lane: int) -> bool:
    """Whether an ego at `x` on `lane` is inside every bound of `region`."""
    if region.min_x is not None and x < region.min_x:
        return False
    if region.max_x is not None and x > region.max_x:
        return False
    if region.max_lane is not None and lane > region.max_lane:
        return False
    return True


def reference_events(state: ScenarioState, collided: bool) -> set[str]:
    """A substep's events, given whether the move pass found an overlap: a
    collision, the ego off the road, and success only without either."""
    ego = state.ego
    events: set[str] = set()
    if collided:
        events.add("collision")
    if reference_offroad(state, ego):
        events.add("off_road")
    if not events and reference_in_region(state.config.success_region, ego.x, ego.lane):
        events.add("success")
    return events


def reference_step(state: ScenarioState, maneuver: Maneuver) -> set[str]:
    """`step` up to its events, with the ego's part from the references:
    `reference_ego_control`, `reference_ego_move` and `reference_events`.
    The background moves through the move pass, as in `step`."""
    engine.apply_maneuver(state, maneuver)
    table = None
    if state.background:
        table = LaneTable.of(state)
        engine._bg_lane_change_pass(state, table)
    dt, substeps = state.config.dt_physics, state.config.substeps
    events = set()
    for substep in range(substeps):
        accel, steer = reference_ego_control(state, state.ego)
        controls = None if table is None else _background_controls(state, table)
        table = LaneTable(state.geometry.lanes) if state.background and substep + 1 < substeps else None
        reference_ego_move(state, accel, steer, dt, table)
        collided = controls is not None and engine._move_pass(state, controls, dt, table)
        events = reference_events(state, collided)
        if events:
            break
    state.decision_step += 1
    if not events and state.decision_step >= state.config.horizon:
        events = {"timeout"}
    state.done = bool(events)
    return events


def table_rows(table: LaneTable | None):
    """A filed table's members, crossing rows and ego length, floats as hex."""
    if table is None:
        return None
    return ([[(veh.id, s.hex()) for veh, s in lane] for lane in table.members],
            [None if row is None else tuple(v.hex() for v in row) for row in table.crossing],
            table.ego_length.hex())


def step_outcomes_equal(a, b) -> bool:
    return (a.reward == b.reward and a.done == b.done and a.events == b.events
            and a.observation.neighbor_ids == b.observation.neighbor_ids
            and np.array_equal(a.observation.vector, b.observation.vector))


class TestLaneTable:
    @pytest.mark.parametrize("kind", ["merge", "highway", "intersection"])
    def test_random_states_match_reference_scans(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(40):
            state = random_state(kind, rng)
            for veh in state.vehicles:
                for lane in state.geometry.lanes:
                    got = lane_neighbors(state, veh, lane.index)
                    want = reference_neighbors(state, veh, lane.index)
                    assert got[0] is want[0] and got[2] is want[2]
                    assert got[1] == want[1] and got[3] == want[3]

    @pytest.mark.parametrize("kind,n_background", ROLLOUT_CASES)
    def test_rollout_crossing_gap_matches_reference(self, kind, n_background):
        seen = set()
        for seed in range(5):
            for state in rollout_states(kind, n_background, seed):
                assert_controls_match_reference(state, seen)
        if kind == "intersection":
            assert seen == {"fires", "behind", "brakes"}

    @pytest.mark.parametrize("kind", ["merge", "highway", "intersection"])
    def test_random_states_crossing_gap_matches_reference(self, kind):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(40):
            assert_controls_match_reference(random_state(kind, rng), seen)
        if kind == "intersection":
            assert seen == {"fires", "behind", "brakes"}

    @pytest.mark.parametrize("leader_x", [55.0, 53.0])
    def test_touching_or_overlapping_leader_brakes_at_the_limit(self, leader_x):
        """Bumper gap 0 and below: the control pass brakes at the limit, as
        idm_accel does, rather than divide by the gap."""
        ego = plain_vehicle(0, -300.0, -12.0, 20.0, lane=3)
        follower = plain_vehicle(1, 50.0, 0.0, 20.0, lane=0)
        leader = plain_vehicle(2, leader_x, 0.0, 10.0, lane=0)
        state = make_state("highway", ego, [follower, leader])
        assert_controls_match_reference(state)
        assert _background_controls(state, LaneTable.of(state))[0][0] == -EMERGENCY_DECEL

    def test_query_leaves_state_alone(self):
        """A lane query reads the stored lanes and writes none, even where a
        stored lane disagrees with the position; so does the teacher's
        telemetry, which queries through `lane_neighbors`."""
        ego = plain_vehicle(0, 50.0, -8.0, 20.0, lane=2)
        stale = plain_vehicle(1, 70.0, -8.0, 18.0, lane=0)  # stands on lane 2
        ahead = plain_vehicle(2, 90.0, -4.0, 18.0, lane=1)
        state = make_state("highway", ego, [stale, ahead])
        assert nearest_lane_index(state, stale) == 2
        before = state.state_dict()
        for veh in state.vehicles:
            for lane in state.geometry.lanes:
                lane_neighbors(state, veh, lane.index)
        build_telemetry(state, risk.assess(state, risk.RiskParams()))
        assert state.state_dict() == before
        # the stale lane is what the query read: the car is no leader on lane 2
        assert lane_neighbors(state, ego, 2)[0] is None
        assert lane_neighbors(state, ego, 0)[0] is stale

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_lane_trig_is_cached_bit_for_bit(self, kind):
        for lane in build_geometry(kind).lanes:
            assert lane.cos_h.hex() == math.cos(lane.heading).hex()
            assert lane.sin_h.hex() == math.sin(lane.heading).hex()
            with pytest.raises(dataclasses.FrozenInstanceError):
                lane.heading = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                lane.cos_h = 1.0

    def test_random_states_reach_every_case(self):
        """The random states above do hold ties, shared positions and headings
        exactly at the membership limit."""
        rng = np.random.default_rng(11)
        states = [random_state("highway", rng) for _ in range(40)]
        cars = [veh for state in states for veh in state.vehicles]
        assert any(veh.y == -6.0 and veh.lane == 1 for veh in cars)
        assert any(abs(veh.heading) == math.pi / 4 for veh in cars)
        assert any(veh.y > 2.0 or veh.y < -14.0 for veh in cars)
        assert any(len({v.x for v in s.vehicles if v.lane == 1}) < sum(v.lane == 1 for v in s.vehicles)
                   for s in states)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_move_pass_locates_and_files_as_the_helpers_do(self, kind):
        """After the ego's reference move and one move pass from a random
        state, every vehicle's lane is `nearest_lane_index`'s, and the table
        the pass filed is, member for member and bit for bit, `LaneTable.of`
        at the moved positions."""
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(60):
            state = random_state(kind, rng)
            before = {veh.id: veh.lane for veh in state.vehicles}
            table = LaneTable(state.geometry.lanes)
            ego_control, *controls = random_controls(state, rng)
            reference_ego_move(state, *ego_control, 0.1, table)
            engine._move_pass(state, controls, 0.1, table)
            want = LaneTable.of(state)
            for veh in state.vehicles:
                assert veh.lane == nearest_lane_index(state, veh), veh.id
                lane = state.geometry.lanes[veh.lane]
                seen.add("changed lane" if veh.lane != before[veh.id] else "kept lane")
                off_heading = abs(wrap_angle(veh.heading - lane.heading))
                if off_heading > math.pi / 4:
                    seen.add("off heading")
                elif off_heading == math.pi / 4:
                    seen.add("at the heading limit")
                if abs(lane.lateral(veh.x, veh.y)) > LANE_WIDTH:
                    seen.add("off road")
                if veh.y in MIDLINES[kind]:
                    seen.add("on a midline")
            assert ([[(v.id, pos.hex()) for v, pos in lane] for lane in table.members]
                    == [[(v.id, pos.hex()) for v, pos in lane] for lane in want.members])
            assert table.crossing == want.crossing and table.ego_length == want.ego_length
        assert seen == {"changed lane", "kept lane", "off heading", "at the heading limit",
                        "off road", "on a midline"}

    @pytest.mark.parametrize("kind,y,lane", [("merge", -2.0, 0), ("highway", -6.0, 1),
                                             ("intersection", 0.0, 0)])
    def test_move_pass_gives_a_tie_to_the_lower_lane(self, kind, y, lane):
        """A vehicle held on a midline, where two lanes are equally near and
        its stored lane is the other one: a background vehicle through the
        move pass, and the ego through `step`'s loop body."""
        far = plain_vehicle(0, -300.0, -300.0, 0.0, kind=kind)
        held = plain_vehicle(1, 0.0, y, 0.0, lane=lane + 1, kind=kind)
        state = make_state(kind, far, [held])
        engine._move_pass(state, [(-EMERGENCY_DECEL, 0.0)], 0.1, LaneTable(state.geometry.lanes))
        assert (held.x, held.y) == (0.0, y)
        assert held.lane == lane == nearest_lane_index(state, held)

        state = make_state(kind, plain_vehicle(0, 0.0, y, 0.0, lane=lane + 1, kind=kind), [])
        step(state, Maneuver.Cruise)  # a target speed of 0 holds the ego
        assert (state.ego.x, state.ego.y) == (0.0, y)
        assert state.ego.lane == lane == nearest_lane_index(state, state.ego)

    @pytest.mark.parametrize("kind", ["merge", "highway"])
    def test_closed_form_nearest_lane_matches_full_scan(self, kind):
        """On straight lanes `_move_pass` and `step`'s loop body locate a
        vehicle by a closed form of `nearest_lane_index`'s scan; both give
        its lane at every point of the grid. Each vehicle is held in place: a
        background one through the move pass, the ego through `step`."""
        held = plain_vehicle(1, 0.0, 0.0, 0.0, kind=kind)
        moved = make_state(kind, plain_vehicle(0, -300.0, -300.0, 0.0, kind=kind), [held])
        stepped = make_state(kind, plain_vehicle(0, 0.0, 0.0, 0.0, kind=kind), [])
        ego = stepped.ego
        rng = np.random.default_rng(5)
        n_lanes = len(moved.geometry.lanes)
        ys = [*rng.uniform(-30.0, 15.0, size=2000),
              *(-LANE_WIDTH * i for i in range(n_lanes)),  # lane centers
              *(-LANE_WIDTH * (i + 0.5) for i in range(-2, n_lanes + 1)),  # midlines, on and off the road
              -0.0, 1e6, -1e6, 2.0 ** 49, -(2.0 ** 49)]
        for x in (0.0, -12.5, 217.25, 1e6):
            for y in ys:
                held.x, held.y = x, float(y)
                engine._move_pass(moved, [(-EMERGENCY_DECEL, 0.0)], 0.1, None)
                assert (held.x, held.y) == (x, y)
                assert held.lane == nearest_lane_index(moved, held), ("background", x, y)
                ego.x, ego.y, ego.speed, ego.heading = x, float(y), 0.0, 0.0
                stepped.decision_step, stepped.ego_target_speed, stepped.done = 0, 0.0, False
                step(stepped, Maneuver.Cruise)  # a target speed of 0 holds the ego
                assert (ego.x, ego.y) == (x, y)
                assert ego.lane == nearest_lane_index(stepped, ego), ("ego", x, y)
        # on a midline the lower index wins; just past it, the next lane does
        for y, lane in ((-2.0, 0), (-6.0, 1), (-6.0 - 1e-12, 2)):
            held.y = y
            assert nearest_lane_index(moved, held) == lane

    @pytest.mark.parametrize("kind", ["merge", "highway", "intersection"])
    @pytest.mark.parametrize("ahead_of", ["ego", "background"])
    def test_hand_move_is_seen_by_the_next_step(self, kind, ahead_of):
        """A vehicle moved by hand after reset, as test_reflection_loop moves
        one, steps as it would in a state rebuilt from the moved positions."""
        config = ScenarioConfig(kind=kind, n_background=4)
        moved, _ = reset(config, seed=3)
        mover = moved.background[0]
        anchor = moved.ego if ahead_of == "ego" else moved.background[1]
        mover.x = anchor.x + 12.0 * math.cos(anchor.heading)
        mover.y = anchor.y + 12.0 * math.sin(anchor.heading)
        mover.heading = anchor.heading
        mover.speed = 0.0
        mover.lane = mover.target_lane = nearest_lane_index(moved, mover)
        rebuilt = ScenarioState.from_state_dict(moved.state_dict(), config)
        for maneuver in (Maneuver.SpeedUp, Maneuver.Cruise, Maneuver.SpeedUp):
            out_moved = step(moved, maneuver)
            out_rebuilt = step(rebuilt, maneuver)
            assert step_outcomes_equal(out_moved, out_rebuilt)
            assert moved.state_dict() == rebuilt.state_dict()
            if moved.done:
                break


# per kind, a pose inside the success region, and one off the road
SUCCESS_POSE = {"merge": (245.0, -4.0, 0.0), "highway": (260.0, -8.0, 0.0),
                "intersection": (-40.0, 2.0, math.pi)}
OFF_ROAD_Y = {"merge": (3.0, -11.0), "highway": (3.0, -15.0), "intersection": (-20.0,)}
EGO_CASES = ("as drawn", "held", "on a midline", "slow", "braking", "heading near pi", "collision",
             "success", "off road", "ramp end")


def set_ego_case(state: ScenarioState, case: str, rng: np.random.Generator) -> None:
    """Put a random state's ego into one of `EGO_CASES`."""
    ego, kind = state.ego, state.config.kind
    if case in ("held", "on a midline"):
        # stopped under a target speed of 0, it keeps its tie or its heading
        ego.speed = state.ego_target_speed = 0.0
        if case == "on a midline":
            ego.x = 0.0 if kind == "intersection" else float(rng.choice([20.0, 35.5]))
            ego.y = float(rng.choice(MIDLINES[kind]))
    elif case == "slow":
        ego.speed = float(rng.uniform(0.05, 0.95))
        state.ego_target_speed = float(rng.uniform(0.0, 1.5))
    elif case == "braking":  # far above its target, the speed loop asks past the limit
        ego.speed, state.ego_target_speed = float(rng.uniform(20.0, 30.0)), 0.0
    elif case == "heading near pi":
        ego.heading = float(rng.choice([math.pi, math.pi - 1e-9, -math.pi + 1e-9]))
    elif case == "collision" and state.background:
        other = state.background[0]
        other.x = ego.x + 2.0 * math.cos(ego.heading)
        other.y = ego.y + 2.0 * math.sin(ego.heading)
        other.lane = nearest_lane_index(state, other)
    elif case == "success":
        ego.x, ego.y, ego.heading = SUCCESS_POSE[kind]
    elif case == "off road":
        ego.y = float(rng.choice(OFF_ROAD_Y[kind]))
    elif case == "ramp end" and kind == "merge":
        ego.x, ego.y, ego.heading, ego.speed = 199.5, -8.0, 0.0, 15.0
    ego.lane = nearest_lane_index(state, ego)


class TestEgoSubstep:
    """`step` moves, locates, files and checks the ego in its own loop body."""

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_step_moves_the_ego_as_the_helpers_do(self, kind, monkeypatch):
        """One `step` from a random state, then another after the ego is
        moved by hand, equals `reference_step` bit for bit: every position,
        heading, speed and lane, each table the substeps file, and the
        events."""
        filed = []
        move_pass = engine._move_pass

        def recording_move_pass(state, controls, dt, table):
            collided = move_pass(state, controls, dt, table)
            filed.append((collided, table_rows(table)))
            return collided

        monkeypatch.setattr(engine, "_move_pass", recording_move_pass)
        rng = np.random.default_rng(23)
        seen = set()
        for i in range(180):
            state = random_state(kind, rng, n_vehicles=int(rng.choice([1, 7])))
            set_ego_case(state, EGO_CASES[i % len(EGO_CASES)], rng)
            ref = copy.deepcopy(state)
            maneuver = Maneuver(int(rng.integers(len(Maneuver))))
            for hand_move in (False, True):
                if hand_move:
                    pose = (float(rng.uniform(-20.0, 260.0)), float(rng.uniform(-14.0, 2.0)),
                            float(rng.uniform(-math.pi, math.pi)))
                    for s in (state, ref):
                        s.ego.x, s.ego.y, s.ego.heading = pose  # its stored lane is now stale
                    seen.add("moved by hand")
                ego = state.ego
                lanes = state.geometry.lanes
                if abs(ego.heading) > math.pi - 1e-6:
                    seen.add("heading near pi")
                if ego.speed < 1.0:
                    seen.add("below 1 m/s")
                speed = ego.speed
                del filed[:]
                events = step(state, maneuver).events
                got = filed[:]
                del filed[:]
                assert reference_step(ref, maneuver) == events, (i, hand_move)
                assert filed == got, (i, hand_move)
                assert (json.dumps(state.state_dict(), sort_keys=True)
                        == json.dumps(ref.state_dict(), sort_keys=True)), (i, hand_move)

                if engine.KP_SPEED * (state.ego_target_speed - speed) < -EMERGENCY_DECEL:
                    seen.add("braking at the limit")
                if kind != "intersection" and ego.target_lane != ego.lane:
                    seen.add("target lane is not the lane")
                if abs(wrap_angle(ego.heading - lanes[ego.lane].heading)) == math.pi / 4:
                    seen.add("at the heading limit")
                offsets = sorted(abs(lane.lateral(ego.x, ego.y)) for lane in lanes)
                if offsets[0] == offsets[1]:
                    seen.add("tie")
                if "collision" in events and len(got) == 1:
                    seen.add("collision at substep 0")
                if "success" in events:
                    seen.add("success")
                if "off_road" in events:
                    if kind == "intersection":
                        seen.add("off road")
                    elif ego.y > 2.0:
                        seen.add("off road above")
                    elif ego.y < -LANE_WIDTH * (len(lanes) - 0.5):
                        seen.add("off road below")
                    else:
                        seen.add("past the ramp end")
                if state.done:
                    break
        want = {"moved by hand", "heading near pi", "below 1 m/s", "braking at the limit",
                "at the heading limit", "tie", "collision at substep 0", "success"}
        if kind == "intersection":
            want |= {"off road"}
        else:
            want |= {"target lane is not the lane", "off road above", "off road below"}
        if kind == "merge":
            want |= {"past the ramp end"}
        assert seen == want


def test_intersection_projects_the_route_once_per_substep(monkeypatch):
    """The moved pose's projection answers `reference_offroad`'s test and
    the next substep's control, so a step that runs every substep projects
    once per substep plus once for substep 0's control."""
    calls = []
    project = Route.project
    monkeypatch.setattr(Route, "project", lambda self, x, y: calls.append(1) or project(self, x, y))
    full_steps = 0
    for seed in range(5):
        state, _ = reset(ScenarioConfig(kind="intersection", n_background=5), seed=seed)
        while not state.done:
            calls.clear()
            outcome = step(state, Maneuver.Cruise)
            assert 2 <= len(calls) <= state.config.substeps + 1
            if not outcome.done:
                full_steps += 1
                assert len(calls) == state.config.substeps + 1
    assert full_steps > 0


# sha256 prefixes of the trace records of seeds 0-2 under MANEUVER_CYCLE. A
# change that moves any float of any trajectory changes one of these; one that
# does so on purpose updates them and says why.
TRACE_DIGESTS = {
    ("merge", 5): "af6fa10a6bfbe457",
    ("merge", 20): "14f29d85d3b0c682",
    ("highway", 5): "41c4c47dcfa110a9",
    ("highway", 20): "8d4f9ea2b543bdb8",
    ("intersection", 5): "2ea6905c15b5029f",
    ("intersection", 20): "16f7eedbf8f82b4f",
    ("highway", 10): "7d601e1a2187d1ff",  # the benchmark's highway-dense traffic
}


@pytest.mark.parametrize("kind,n_background", [*ROLLOUT_CASES, ("highway", 10)])
def test_rollout_trajectories_are_pinned(kind, n_background):
    digest = hashlib.sha256()
    for seed in range(3):
        state, _ = reset(ScenarioConfig(kind=kind, n_background=n_background), seed=seed)
        i = 0
        while not state.done:
            maneuver = MANEUVER_CYCLE[i % len(MANEUVER_CYCLE)]
            outcome = step(state, maneuver)
            record = trace_record(state, maneuver, outcome)
            digest.update(json.dumps(record, sort_keys=True).encode())
            i += 1
    assert digest.hexdigest()[:16] == TRACE_DIGESTS[kind, n_background]


# sha256 prefixes of the spawned states of 25 seeds over every traffic count
# and disturbance fraction below, which the rollout digests do not reach. A
# spawn change that moves, adds or reorders any vehicle or draw changes one.
RESET_DIGESTS = {
    "merge": "d61ded74c08df86a",
    "highway": "5928f355fcc3fc6f",
    "intersection": "034c7ba83de7e915",
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_reset_spawns_are_pinned(kind):
    digest = hashlib.sha256()
    for n_background in (0, 1, 7, 40):
        for fraction in (0.0, 0.15, 1.0):
            for seed in range(25):
                config = ScenarioConfig(kind=kind, n_background=n_background, disturbance_fraction=fraction)
                state, _ = reset(config, seed=seed)
                digest.update(json.dumps(state.state_dict(), sort_keys=True).encode())
    assert digest.hexdigest()[:16] == RESET_DIGESTS[kind]


# sha256 prefixes of one step from each of 25 `random_state`s per kind and
# maneuver, with about half the vehicles (the ego too) holding their lane as
# target. These reach what the rollout digests do not: overlaps at substep 0,
# cars exactly abeam, headings more than pi/4 off their lane, off-road cars,
# and lane changes MOBIL accepts or rejects on safety.
STEP_DIGESTS = {
    ("intersection", Maneuver.SlowDown): "7c6a8f18e2236409",
    ("intersection", Maneuver.Cruise): "c4150e1fcd60cc2a",
    ("intersection", Maneuver.SpeedUp): "9b1a600ba2139e3e",
    ("intersection", Maneuver.TurnLeft): "c4150e1fcd60cc2a",
    ("intersection", Maneuver.TurnRight): "c4150e1fcd60cc2a",
    ("merge", Maneuver.SlowDown): "84ebcfbc9c240a7c",
    ("merge", Maneuver.Cruise): "58d2ebc0e8f661b1",
    ("merge", Maneuver.SpeedUp): "5d2c5c8ad68e7cef",
    ("merge", Maneuver.TurnLeft): "dff20f453341fe5c",
    ("merge", Maneuver.TurnRight): "438650faca7100bf",
    ("highway", Maneuver.SlowDown): "7cc6e8e06a8a847d",
    ("highway", Maneuver.Cruise): "fa40dff1fa1d853b",
    ("highway", Maneuver.SpeedUp): "7cbee168ae2ea039",
    ("highway", Maneuver.TurnLeft): "deadb80aa38a5510",
    ("highway", Maneuver.TurnRight): "905752f529e5cc35",
}


@pytest.mark.parametrize("maneuver", list(Maneuver))
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_random_state_steps_are_pinned(kind, maneuver):
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    collisions = 0
    for _ in range(25):
        state = random_state(kind, rng)
        for veh in state.vehicles:
            if rng.random() < 0.5:
                veh.target_lane = veh.lane
        outcome = step(state, maneuver)
        collisions += "collision" in outcome.events
        record = {"state": state.state_dict(), "reward": outcome.reward,
                  "events": sorted(outcome.events),
                  "tau_min": risk.assess(state, risk.RiskParams()).tau_min,
                  "obs": outcome.observation.vector.tolist(),
                  "ids": outcome.observation.neighbor_ids}
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert collisions > 0
    assert digest.hexdigest()[:16] == STEP_DIGESTS[kind, maneuver]


class TestLaneChange:
    """MOBIL on highway: a car on lane 0 stuck 10 m behind a slow leader looks
    at lane 1, its only neighbour lane; the ego drives far off on lane 3."""

    @staticmethod
    def scene(follower_x: float, follower_speed: float):
        ego = plain_vehicle(0, -300.0, -12.0, 20.0, lane=3)
        changer = plain_vehicle(1, 100.0, 0.0, 20.0, lane=0)
        leader = plain_vehicle(2, 115.0, 0.0, 10.0, lane=0)
        follower = plain_vehicle(3, follower_x, -4.0, follower_speed, lane=1)
        return make_state("highway", ego, [changer, leader, follower]), changer, follower

    def test_unsafe_new_follower_blocks_the_change(self):
        state, changer, follower = self.scene(92.0, 28.0)
        # bumper gap 3 m at 8 m/s closing: the follower would brake past comfort
        gap = changer.x - follower.x - (changer.length + follower.length) / 2.0
        assert idm_accel(gap, follower.speed, changer.speed, follower.profile) < -changer.profile.comfort_decel
        step(state, Maneuver.Cruise)
        assert changer.target_lane == 0

    def test_mobil_accepts_only_above_the_threshold(self):
        """Own gain plus politeness times the others' gain must exceed the
        threshold strictly. Safety is not weighed here: the lane-change pass
        tests `mobil_safe` before it works out the gains."""
        profile = dataclasses.replace(make_profile("standard", "highway"), politeness=0.5,
                                      lane_change_accel_gain_threshold=0.25)
        # own gain 0.5, others' gain -0.5 + 0: 0.5 + 0.5 * -0.5 = 0.25, at the threshold
        assert not mobil_accepts(1.0, 1.5, 0.0, -0.5, -1.0, -1.0, profile)
        # own gain 0.75: 0.75 + 0.5 * -0.5 = 0.5
        assert mobil_accepts(1.0, 1.75, 0.0, -0.5, -1.0, -1.0, profile)
        # the old follower gains 0.25: 0.5 + 0.5 * (-0.5 + 0.25) = 0.375
        assert mobil_accepts(1.0, 1.5, 0.0, -0.5, -1.0, -0.75, profile)
        # own gain 0.25 and the others' 0: at the threshold again
        assert not mobil_accepts(0.0, 0.25, 0.0, 0.0, 0.0, 0.0, profile)
        # a new follower forced past comfortable braking is the caller's test
        assert not mobil_safe(-10.0, profile)
        assert mobil_accepts(0.0, 20.0, 0.0, -10.0, 0.0, 0.0, profile)

    def test_safe_gap_accepts_the_change(self):
        state, changer, follower = self.scene(20.0, 20.0)
        gap = changer.x - follower.x - (changer.length + follower.length) / 2.0
        assert idm_accel(gap, follower.speed, changer.speed, follower.profile) > -changer.profile.comfort_decel
        step(state, Maneuver.Cruise)
        assert changer.target_lane == 1
