"""Teacher pipeline tests: state encoding, memory, prompts, decisions, reflection.

Backend behavior is exercised through fakes; the scripted backend and the
fallback path are the deterministic reference implementations.
"""

import dataclasses
import io
import json
import math
import re
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

from drivecoach.config import from_mapping, load_mapping
from drivecoach.errors import ConfigError, UsageError
from drivecoach.records import build_section
from drivecoach.risk import RiskParams, assess
from drivecoach.sim import MERGE_RAMP_END, Maneuver, ScenarioConfig, TrafficEnv, observe, reset, step
from drivecoach.teacher import (
    API_KEY_VAR,
    ChatBackend,
    BackendError,
    ConstraintRule,
    FlaggedSegment,
    MemoryEntry,
    MemoryRepository,
    Prompt,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    TeacherAgent,
    Telemetry,
    build_prompt,
    build_reflection_prompt,
    build_telemetry,
    cosine_similarity,
    decide,
    encode_state,
    estimate_tokens,
    parse_constraints,
    parse_telemetry,
    reflect,
    retrieve,
    scripted_decide,
)
from drivecoach.teacher.rules import MUST_MERGE_TIME
from drivecoach.teacher.state import EGO_BLOCK, STATE_DIM, neighbor_tau
from drivecoach.trainer import TrainConfig, Trainer

PARAMS = RiskParams()


def highway_state(seed=3, n_background=8):
    state, _ = reset(ScenarioConfig(kind="highway", n_background=n_background),
                     seed=seed)
    return state


def plain_telemetry(**overrides):
    base = dict(scenario_kind="highway", speed=20.0, desired_speed=25.0, lane=2,
                goal_lane=None, tau_min=math.inf, conflict_ahead=False)
    base.update(overrides)
    return Telemetry(**base)


def prompt_tokens(prompt) -> int:
    return estimate_tokens(prompt.system) + estimate_tokens(prompt.user)


def entry_with(z, action=Maneuver.Cruise, outcome="success", ret=1.0, lesson=""):
    return MemoryEntry(z=z, scenario_kind="highway", action=action, outcome=outcome,
                       episode_return=ret, lesson=lesson)


class FixedBackend(ChatBackend):
    """Returns canned replies in order, repeating the last one forever."""

    kind = "remote"

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def chat(self, messages):
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        if isinstance(reply, Exception):
            raise reply
        return reply


class TestEncodeState:
    def test_layout_round_trip(self):
        state = highway_state()
        obs = observe(state)
        assessment = assess(state, PARAMS)
        z = encode_state(obs, assessment, horizon=PARAMS.horizon)
        assert z.shape == (STATE_DIM,)
        assert np.array_equal(z[:EGO_BLOCK], obs.ego)
        for slot in range(obs.neighbor_count):
            px, py = z[EGO_BLOCK + 4 * slot], z[EGO_BLOCK + 4 * slot + 1]
            assert px == pytest.approx(float(obs.neighbors[0, slot]))
            assert py == pytest.approx(float(obs.neighbors[1, slot]))

    def test_tau_block_clamped_to_horizon(self):
        state = highway_state()
        obs = observe(state)
        assessment = assess(state, PARAMS)
        z = encode_state(obs, assessment, horizon=PARAMS.horizon)
        for slot in range(obs.neighbor_count):
            expected = min(assessment.taus[obs.neighbor_ids[slot]], PARAMS.horizon)
            assert neighbor_tau(z, slot) == pytest.approx(expected)

    def test_no_neighbors_horizon_fill(self):
        state, _ = reset(ScenarioConfig(kind="highway", n_background=0), seed=0)
        z = encode_state(observe(state), assess(state, PARAMS), horizon=PARAMS.horizon)
        assert np.all(z[EGO_BLOCK:EGO_BLOCK + 24] == 0.0)
        assert np.all(z[EGO_BLOCK + 24:] == PARAMS.horizon)

    def test_deterministic(self):
        state = highway_state()
        obs = observe(state)
        assessment = assess(state, PARAMS)
        a = encode_state(obs, assessment)
        b = encode_state(obs, assessment)
        assert np.array_equal(a, b)


class TestRetrieve:
    def test_self_similarity_tops(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=STATE_DIM)
        memory = MemoryRepository()
        for _ in range(5):
            memory.add(entry_with(rng.normal(size=STATE_DIM)))
        memory.add(entry_with(z.copy()))
        top = retrieve(z, memory, 1)
        assert len(top) == 1
        assert top[0][1] == pytest.approx(1.0)
        assert np.array_equal(top[0][0].z, z)

    def test_orthogonal_scores_zero(self):
        a = np.zeros(STATE_DIM)
        b = np.zeros(STATE_DIM)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine_similarity(a, b) == 0.0

    def test_zero_norm_defined_as_zero(self):
        memory = MemoryRepository()
        memory.add(entry_with(np.zeros(STATE_DIM)))
        top = retrieve(np.ones(STATE_DIM), memory, 1)
        assert top[0][1] == 0.0
        assert retrieve(np.zeros(STATE_DIM), memory, 1)[0][1] == 0.0

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(7)
        memory = MemoryRepository()
        entries = [entry_with(rng.normal(size=STATE_DIM)) for _ in range(20)]
        for e in entries:
            memory.add(e)
        for trial in range(20):
            z = rng.normal(size=STATE_DIM)
            got = retrieve(z, memory, 3)
            sims = [cosine_similarity(z, e.z) for e in entries]
            order = sorted(range(20), key=lambda i: (-sims[i], -i))[:3]
            assert [id(pair[0]) for pair in got] == [id(entries[i]) for i in order]
            assert [pair[1] for pair in got] == pytest.approx([sims[i] for i in order])

    def test_tie_prefers_most_recent(self):
        z = np.ones(STATE_DIM)
        memory = MemoryRepository()
        first = entry_with(z.copy())
        second = entry_with(2.0 * z)  # same direction, same cosine
        memory.add(first)
        memory.add(second)
        assert retrieve(z, memory, 1)[0][0] is second

    def test_fewer_than_k(self):
        memory = MemoryRepository()
        memory.add(entry_with(np.ones(STATE_DIM)))
        assert len(retrieve(np.ones(STATE_DIM), memory, 5)) == 1

    def test_k_must_be_positive(self):
        with pytest.raises(UsageError):
            retrieve(np.ones(STATE_DIM), MemoryRepository(), 0)


class TestMemory:
    def test_insert_and_capacity(self):
        memory = MemoryRepository()
        memory.add(entry_with(np.ones(STATE_DIM)))
        assert len(memory) == 1
        for i in range(25):
            memory.add(entry_with(np.ones(STATE_DIM), ret=float(i)))
        assert len(memory) == 20

    def test_eviction_targets_lowest_return_non_lesson(self):
        memory = MemoryRepository(capacity=3)
        keep = entry_with(np.ones(STATE_DIM), ret=0.1, lesson="brake earlier")
        small = entry_with(np.ones(STATE_DIM), ret=-0.5)
        big = entry_with(np.ones(STATE_DIM), ret=9.0)
        memory.add(keep)
        memory.add(small)
        memory.add(big)
        memory.add(entry_with(np.ones(STATE_DIM), ret=5.0))
        present = [e for e in memory.entries]
        assert any(e is keep for e in present)  # lesson survives
        assert not any(e is small for e in present)  # smallest |return| evicted
        assert any(e is big for e in present)

    def test_all_lesson_memory_evicts_oldest(self):
        memory = MemoryRepository(capacity=2)
        a = entry_with(np.ones(STATE_DIM), lesson="a")
        b = entry_with(np.ones(STATE_DIM), lesson="b")
        memory.add(a)
        memory.add(b)
        memory.add(entry_with(np.ones(STATE_DIM), lesson="c"))
        assert not any(e is a for e in memory.entries)
        assert any(e is b for e in memory.entries)

    def test_capacity_property_random_streams(self):
        rng = np.random.default_rng(11)
        memory = MemoryRepository()
        for i in range(200):
            lesson = "lesson" if rng.random() < 0.2 else ""
            memory.add(entry_with(rng.normal(size=STATE_DIM),
                                  ret=float(rng.normal()), lesson=lesson))
            assert len(memory) <= 20

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        memory = MemoryRepository()
        memory.add(MemoryEntry(z=rng.normal(size=STATE_DIM), scenario_kind="merge",
                               action=Maneuver.TurnLeft, outcome="success",
                               episode_return=12.5, lesson="wait for the gap"))
        path = tmp_path / "memory.json"
        memory.save(path)
        loaded = MemoryRepository.load(path)
        assert len(loaded) == 1
        got = loaded.entries[0]
        assert np.array_equal(got.z, memory.entries[0].z)
        assert got.action is Maneuver.TurnLeft
        assert got.outcome == "success"
        assert got.episode_return == 12.5
        assert got.lesson == "wait for the gap"

    def test_schema_1_file_refused(self, tmp_path):
        # schema 1 keyed the return as `return`; schema 2 uses the field names
        memory = MemoryRepository()
        memory.add(entry_with(np.ones(STATE_DIM)))
        data = memory.to_dict()
        data["schema_version"] = 1
        path = tmp_path / "memory.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"memory\.schema_version: 1 is not 2"):
            MemoryRepository.load(path)
        entry = data["entries"][0]
        entry["return"] = entry.pop("episode_return")
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"memory\.entries\[0\]: unknown key 'return'"):
            MemoryRepository.load(path)

    def test_schema_version_checked(self):
        data = MemoryRepository().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            build_section("memory", MemoryRepository, data)

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ConfigError, match="outcome"):
            entry_with(np.ones(STATE_DIM), outcome="fine")

    def test_oversized_lesson_rejected(self):
        with pytest.raises(ConfigError, match="lesson"):
            entry_with(np.ones(STATE_DIM), lesson="x" * 2001)


class TestConstraintRule:
    def test_guard_and_describe(self):
        rule = ConstraintRule("intersection", Maneuver.SpeedUp,
                              {"tau_min_lt": 2.0, "speed_gt": 5.0})
        assert rule.forbids("intersection", Maneuver.SpeedUp, 1.5, 6.0)
        assert not rule.forbids("intersection", Maneuver.SpeedUp, 2.0, 6.0)  # strict
        assert not rule.forbids("intersection", Maneuver.SpeedUp, 1.5, 5.0)
        assert not rule.forbids("merge", Maneuver.SpeedUp, 1.5, 6.0)
        assert not rule.forbids("intersection", Maneuver.Cruise, 1.5, 6.0)
        text = rule.describe()
        assert "never speed_up" in text
        assert "tau_min < 2.0 s" in text and "speed > 5.0 m/s" in text

    def test_validation(self):
        with pytest.raises(ConfigError, match="guard"):
            ConstraintRule("merge", Maneuver.Cruise, {})
        with pytest.raises(ConfigError, match="unknown"):
            ConstraintRule("merge", Maneuver.Cruise, {"weather": 1.0})
        with pytest.raises(ConfigError, match="numeric"):
            ConstraintRule("merge", Maneuver.Cruise, {"tau_min_lt": True})

    def test_dict_round_trip(self):
        rule = ConstraintRule("merge", Maneuver.TurnLeft, {"speed_lt": 4.0})
        assert build_section("rule", ConstraintRule, rule.to_dict()) == rule

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ConfigError, match="rule: unknown key 'priority'"):
            build_section("rule", ConstraintRule, {"scenario_kind": "merge", "forbidden_action": "cruise",
                                                   "guard": {"tau_min_lt": 1}, "priority": 3})
        with pytest.raises(ConfigError, match=r"rule\.forbidden_action: unknown Maneuver 'stop'"):
            build_section("rule", ConstraintRule, {"scenario_kind": "merge", "forbidden_action": "stop",
                                                   "guard": {"tau_min_lt": 1}})
        with pytest.raises(ConfigError, match=r"rule\.forbidden_action: expected Maneuver, got 1"):
            build_section("rule", ConstraintRule, {"scenario_kind": "merge", "forbidden_action": 1,
                                                   "guard": {"tau_min_lt": 1}})
        with pytest.raises(ConfigError, match=r"rule\.guard: unknown key 'weather'"):
            build_section("rule", ConstraintRule, {"scenario_kind": "merge", "forbidden_action": "cruise",
                                                   "guard": {"weather": 1}})


class TestScriptedDecide:
    def test_conflict_ahead_brakes(self):
        t = plain_telemetry(tau_min=1.0, conflict_ahead=True)
        assert scripted_decide(t) is Maneuver.SlowDown

    def test_slow_on_empty_road_speeds_up(self):
        t = plain_telemetry(speed=12.5, desired_speed=25.0)
        assert scripted_decide(t) is Maneuver.SpeedUp

    def test_merge_with_safe_gap_turns(self):
        t = plain_telemetry(scenario_kind="merge", speed=20.0, desired_speed=25.0,
                            lane=2, goal_lane=1, gap_lead=40.0, lead_speed=20.0,
                            gap_follow=40.0, follower_speed=20.0)
        assert scripted_decide(t) is Maneuver.TurnLeft

    def test_unsafe_gap_cruises(self):
        t = plain_telemetry(scenario_kind="merge", speed=20.0, desired_speed=25.0,
                            lane=2, goal_lane=1, gap_lead=5.0, lead_speed=20.0,
                            gap_follow=40.0, follower_speed=20.0)
        assert scripted_decide(t) is Maneuver.Cruise

    # need ahead = 2.5 m + 0.3 s * speed + 1.0 s * max(0, speed - lead speed)
    # need behind = 2.5 m + 0.3 s * follower speed + 1.0 s * max(0, follower speed - speed)
    @pytest.mark.parametrize("lead_speed,gap_lead,follower_speed,gap_follow,safe", [
        (15.0, 13.4, 20.0, 40.0, False),  # closing on the lead: needs 13.5 m ahead
        (15.0, 13.6, 20.0, 40.0, True),
        (25.0, 8.4, 20.0, 40.0, False),  # lead pulling away: headway alone, 8.5 m
        (25.0, 8.6, 20.0, 40.0, True),
        (20.0, 40.0, 25.0, 14.9, False),  # follower closing: needs 15.0 m behind
        (20.0, 40.0, 25.0, 15.1, True),
        (20.0, 40.0, 10.0, 5.4, False),  # slower follower: headway alone, 5.5 m
        (20.0, 40.0, 10.0, 5.6, True),
    ])
    def test_gap_threshold_hand_computed(self, lead_speed, gap_lead, follower_speed,
                                         gap_follow, safe):
        t = plain_telemetry(scenario_kind="merge", speed=20.0, desired_speed=25.0,
                            lane=2, goal_lane=1, gap_lead=gap_lead, lead_speed=lead_speed,
                            gap_follow=gap_follow, follower_speed=follower_speed)
        assert scripted_decide(t) is (Maneuver.TurnLeft if safe else Maneuver.Cruise)

    def test_slow_ego_with_safe_gap_merges_before_speeding_up(self):
        # 15 m/s is below 0.8 * 25 on a clear road, but a safe gap comes first
        t = plain_telemetry(scenario_kind="merge", speed=15.0, desired_speed=25.0,
                            lane=2, goal_lane=1, gap_lead=40.0, lead_speed=20.0,
                            gap_follow=40.0, follower_speed=15.0, ramp_left=150.0)
        assert scripted_decide(t) is Maneuver.TurnLeft

    # must merge by = MUST_MERGE_TIME (5 s) * speed: 100 m at 20 m/s, 75 m at 15 m/s
    @pytest.mark.parametrize("speed,ramp_left,pick", [
        (20.0, 15.0, Maneuver.SlowDown),
        (20.0, 99.9, Maneuver.SlowDown),
        (20.0, 100.1, Maneuver.Cruise),
        (20.0, 150.0, Maneuver.Cruise),
        (20.0, math.inf, Maneuver.Cruise),
        (15.0, 74.9, Maneuver.SlowDown),  # slow on a clear road, but the ramp comes first
        (15.0, 75.1, Maneuver.SpeedUp),
    ])
    def test_unsafe_gap_near_ramp_end_slows_down(self, speed, ramp_left, pick):
        assert MUST_MERGE_TIME == 5.0
        t = plain_telemetry(scenario_kind="merge", speed=speed, desired_speed=25.0,
                            lane=2, goal_lane=1, gap_lead=5.0, lead_speed=20.0,
                            gap_follow=40.0, follower_speed=20.0, ramp_left=ramp_left)
        assert scripted_decide(t) is pick

    def test_no_goal_lane_picks_unchanged(self):
        """Without a goal lane the cascade is the three speed rules it was
        before the merge rules were added, whatever the gaps and ramp say."""
        def before(t):
            if t.tau_min < 2.0 and t.conflict_ahead:
                return Maneuver.SlowDown
            if t.speed < 0.8 * t.desired_speed and t.tau_min > 4.0:
                return Maneuver.SpeedUp
            return Maneuver.Cruise

        rng = np.random.default_rng(5)
        for _ in range(500):
            t = plain_telemetry(
                scenario_kind=("highway", "intersection")[rng.integers(2)],
                speed=float(rng.uniform(0, 30)),
                lane=int(rng.integers(4)),
                tau_min=float(rng.uniform(0, 8)) if rng.random() < 0.7 else math.inf,
                conflict_ahead=bool(rng.random() < 0.5),
                gap_lead=float(rng.uniform(-5, 60)),
                gap_follow=float(rng.uniform(-5, 60)),
                ramp_left=float(rng.uniform(0, 200)) if rng.random() < 0.5 else math.inf,
            )
            assert scripted_decide(t) is before(t)

    def test_highway_states_have_no_ramp(self):
        for seed in range(5):
            state = highway_state(seed=seed)
            telemetry = build_telemetry(state, assess(state, PARAMS))
            assert telemetry.goal_lane is None
            assert math.isinf(telemetry.ramp_left)

    def test_constraint_vetoes_pick(self):
        t = plain_telemetry(speed=12.5, desired_speed=25.0, tau_min=5.0)
        rule = ConstraintRule("highway", Maneuver.SpeedUp, {"tau_min_lt": 6.0})
        assert scripted_decide(t) is Maneuver.SpeedUp
        assert scripted_decide(t, [rule]) is Maneuver.Cruise

    def test_contradictory_rules_brake(self):
        t = plain_telemetry()
        rules = [ConstraintRule("highway", m, {"speed_gt": 0.0}) for m in Maneuver]
        assert scripted_decide(t, rules) is Maneuver.SlowDown

    def test_forbidden_never_emitted_when_guard_holds(self):
        rng = np.random.default_rng(3)
        kinds = ("merge", "highway", "intersection")
        for _ in range(200):
            t = plain_telemetry(
                scenario_kind=kinds[rng.integers(3)],
                speed=float(rng.uniform(0, 30)),
                desired_speed=25.0,
                lane=int(rng.integers(4)),
                goal_lane=int(rng.integers(4)) if rng.random() < 0.5 else None,
                tau_min=float(rng.uniform(0, 8)) if rng.random() < 0.7 else math.inf,
                conflict_ahead=bool(rng.random() < 0.5),
                gap_lead=float(rng.uniform(0, 60)),
                gap_follow=float(rng.uniform(0, 60)),
            )
            forbidden = list(Maneuver)[rng.integers(5)]
            if forbidden is Maneuver.SlowDown:
                continue  # the escape hatch for contradictory rule sets
            rule = ConstraintRule(t.scenario_kind, forbidden, {"speed_gt": -1.0})
            assert scripted_decide(t, [rule]) is not forbidden


class TestConflictAhead:
    def tied_state(self, ahead_id, behind_id):
        """Ego at 20 m/s between a 10 m/s car 20 m ahead and a 30 m/s car 20 m
        behind, all in one lane: both close at 10 m/s, so both conflict times
        are exactly 2 s."""
        state, _ = reset(ScenarioConfig(kind="highway", n_background=2), seed=0)
        ego = state.ego
        ego.x, ego.speed, ego.heading = 100.0, 20.0, 0.0
        placed = zip(state.background, (ahead_id, behind_id), (20.0, -20.0), (10.0, 30.0))
        for veh, vid, dx, speed in placed:
            veh.id, veh.x, veh.y, veh.speed, veh.heading = vid, ego.x + dx, ego.y, speed, 0.0
            veh.lane = veh.target_lane = ego.lane
        return state

    def test_tie_follows_lowest_id(self):
        for ahead_id, behind_id, ahead in ((1, 2, True), (2, 1, False)):
            state = self.tied_state(ahead_id, behind_id)
            assessment = assess(state, PARAMS)
            assert assessment.taus == {ahead_id: 2.0, behind_id: 2.0}
            assert assessment.tau_min == 2.0
            assert build_telemetry(state, assessment).conflict_ahead is ahead


class TestBuildPrompt:
    def scene(self):
        state = highway_state()
        obs = observe(state)
        assessment = assess(state, PARAMS)
        z = encode_state(obs, assessment)
        return z, obs, assessment, build_telemetry(state, assessment)

    def test_no_exemplars_still_complete(self):
        z, obs, assessment, telemetry = self.scene()
        prompt = build_prompt(obs, assessment, [], telemetry=telemetry)
        assert "Past cases" not in prompt.user
        assert "TELEMETRY: " in prompt.user
        assert "Decide now." in prompt.user
        assert '"action"' in prompt.system

    def test_literal_tau_in_risk_line(self):
        z, obs, assessment, telemetry = self.scene()
        fudged = dataclasses.replace(assessment, tau_min=1.2)
        prompt = build_prompt(obs, fudged, [], telemetry=telemetry)
        assert "tau_min = 1.2 s" in prompt.user

    def test_three_exemplars_in_similarity_order(self):
        rng = np.random.default_rng(2)
        z, obs, assessment, telemetry = self.scene()
        memory = MemoryRepository()
        for _ in range(10):
            memory.add(entry_with(rng.normal(size=STATE_DIM)))
        retrieved = retrieve(z, memory, 3)
        prompt = build_prompt(obs, assessment, retrieved, telemetry=telemetry)
        sims = [float(m) for m in re.findall(r"similarity (-?\d+\.\d+)", prompt.user)]
        assert len(sims) == 3
        assert sims == sorted(sims, reverse=True)
        assert prompt.user.count("Example ") == 3

    def test_truncation_drops_farthest_vehicle_first(self):
        z, obs, assessment, telemetry = self.scene()
        full = build_prompt(obs, assessment, [], telemetry=telemetry)
        n_lines = full.user.count("- vehicle ")
        assert n_lines >= 3
        tight = build_prompt(obs, assessment, [], telemetry=telemetry,
                             max_tokens=prompt_tokens(full) - 1)
        assert tight.user.count("- vehicle ") == n_lines - 1
        # the surviving lines are the closest ones, in the original order
        kept = [ln for ln in full.user.splitlines() if ln.startswith("- vehicle ")][:-1]
        assert [ln for ln in tight.user.splitlines() if ln.startswith("- vehicle ")] == kept

    def test_budget_respected_when_attainable(self):
        rng = np.random.default_rng(4)
        z, obs, assessment, telemetry = self.scene()
        memory = MemoryRepository()
        for _ in range(20):
            memory.add(entry_with(rng.normal(size=STATE_DIM),
                                  lesson="always check the mirror twice before moving"))
        retrieved = retrieve(z, memory, 3)
        prompt = build_prompt(obs, assessment, retrieved, telemetry=telemetry)
        assert prompt_tokens(prompt) <= 4000

    def test_extreme_budget_never_raises(self):
        z, obs, assessment, telemetry = self.scene()
        prompt = build_prompt(obs, assessment, [], telemetry=telemetry, max_tokens=1)
        assert "TELEMETRY: " in prompt.user

    def test_telemetry_line_round_trips(self):
        z, obs, assessment, telemetry = self.scene()
        rule = ConstraintRule("highway", Maneuver.SpeedUp, {"tau_min_lt": 2.0})
        prompt = build_prompt(obs, assessment, [], constraints=[rule],
                              telemetry=telemetry)
        recovered = parse_telemetry(prompt)
        assert recovered.lane == telemetry.lane
        assert recovered.speed == pytest.approx(telemetry.speed, abs=1e-3)
        assert recovered.tau_min == pytest.approx(telemetry.tau_min, abs=1e-3)
        assert parse_constraints(prompt) == [rule]

        # no ramp on the highway: infinity is written as null and read back
        assert math.isinf(telemetry.ramp_left)
        line = next(ln for ln in prompt.user.splitlines() if ln.startswith("TELEMETRY: "))
        assert json.loads(line[len("TELEMETRY: "):])["ramp_left"] is None
        assert math.isinf(recovered.ramp_left)
        assert "before the ramp ends" not in prompt.user

        on_ramp = dataclasses.replace(telemetry, goal_lane=1, ramp_left=42.1234)
        prompt = build_prompt(obs, assessment, [], telemetry=on_ramp)
        assert parse_telemetry(prompt).ramp_left == pytest.approx(42.123, abs=1e-9)
        assert "goal lane 1, 42.1 m before the ramp ends." in prompt.user

        # transcripts recorded before the field existed still load
        payload = telemetry.to_dict()
        del payload["ramp_left"]
        assert math.isinf(Telemetry.from_dict(payload).ramp_left)


class TestDecide:
    def scene_prompt(self):
        state = highway_state()
        obs = observe(state)
        assessment = assess(state, PARAMS)
        z = encode_state(obs, assessment)
        telemetry = build_telemetry(state, assessment)
        return build_prompt(obs, assessment, [], telemetry=telemetry), telemetry

    def test_well_formed_reply_parses(self):
        prompt, _ = self.scene_prompt()
        backend = FixedBackend(['thinking...\n{"action": "slow_down", "reason": "margin"}'])
        decision = decide(prompt, backend)
        assert decision.action is Maneuver.SlowDown
        assert decision.source == "llm"
        assert decision.rationale == "margin"
        assert backend.calls == 1

    def test_last_json_object_wins(self):
        prompt, _ = self.scene_prompt()
        reply = ('{"action": "speed_up", "reason": "draft"}\n'
                 'on reflection:\n{"action": "cruise", "reason": "final"}')
        decision = decide(prompt, FixedBackend([reply]))
        assert decision.action is Maneuver.Cruise

    def test_garbage_three_times_falls_back(self):
        prompt, telemetry = self.scene_prompt()
        backend = FixedBackend(["no json here"])
        decision = decide(prompt, backend)
        assert backend.calls == 3
        assert decision.source == "fallback"
        assert decision.action is scripted_decide(telemetry)

    def test_invalid_token_retries_then_falls_back(self):
        prompt, _ = self.scene_prompt()
        backend = FixedBackend(['{"action": "warp_drive", "reason": "?"}'])
        decision = decide(prompt, backend)
        assert backend.calls == 3
        assert decision.source == "fallback"

    @pytest.mark.parametrize("action", [["slow_down"], {"token": "slow_down"}], ids=["list", "mapping"])
    def test_unhashable_action_retries_then_falls_back(self, action):
        prompt, telemetry = self.scene_prompt()
        backend = FixedBackend([json.dumps({"action": action, "reason": "?"})])
        decision = decide(prompt, backend)
        assert backend.calls == 3
        assert decision.source == "fallback"
        assert decision.action is scripted_decide(telemetry)

    def test_backend_error_falls_back_immediately(self):
        prompt, telemetry = self.scene_prompt()
        backend = FixedBackend([BackendError("down")])
        decision = decide(prompt, backend)
        assert backend.calls == 1
        assert decision.source == "fallback"
        assert decision.action is scripted_decide(telemetry)

    def test_fault_injection_always_valid(self):
        prompt, _ = self.scene_prompt()
        rng = np.random.default_rng(9)
        menu = ["", "garbage", '{"action": "fly"}', BackendError("timeout"),
                '{"action": "cruise", "reason": "ok"}', "{broken json", "[]"]
        for _ in range(100):
            replies = [menu[rng.integers(len(menu))] for _ in range(3)]
            decision = decide(prompt, FixedBackend(replies))
            assert isinstance(decision.action, Maneuver)
            assert decision.source in ("llm", "fallback")
            assert decision.latency >= 0.0

    def test_no_telemetry_fallback_brakes(self):
        backend = FixedBackend(["nope"])
        decision = decide(Prompt(system="s", user="bare"), backend)
        assert decision.action is Maneuver.SlowDown
        assert decision.source == "fallback"


class TestScriptedBackend:
    def test_deterministic_and_matches_cascade(self):
        state = highway_state()
        obs = observe(state)
        assessment = assess(state, PARAMS)
        z = encode_state(obs, assessment)
        telemetry = build_telemetry(state, assessment)
        prompt = build_prompt(obs, assessment, [], telemetry=telemetry)
        backend = ScriptedBackend()
        first = backend.chat(prompt.messages())
        second = backend.chat(prompt.messages())
        assert first == second
        decision = decide(prompt, backend)
        assert decision.source == "scripted"
        assert decision.action is scripted_decide(telemetry)

    def test_honors_constraint_line(self):
        t = plain_telemetry(speed=12.5, desired_speed=25.0, tau_min=5.0)
        rule = ConstraintRule("highway", Maneuver.SpeedUp, {"tau_min_lt": 100.0})
        user = "TELEMETRY: " + json.dumps(t.to_dict())
        system = "CONSTRAINTS: " + json.dumps([rule.to_dict()])
        reply = ScriptedBackend().chat([("system", system), ("user", user)])
        obj = json.loads(reply.splitlines()[-1])
        assert obj["action"] == "cruise"  # speed_up vetoed by the rule

    def test_telemetry_required(self):
        with pytest.raises(BackendError, match="telemetry"):
            ScriptedBackend().chat([("system", "s"), ("user", "no markers")])


class TestRecordReplay:
    def test_transcript_round_trip(self, tmp_path):
        agent_path = tmp_path / "transcript.jsonl"

        def run_episode(backend):
            state, _ = reset(ScenarioConfig(kind="merge", n_background=5), seed=6)
            agent = TeacherAgent(backend)
            actions = []
            while not state.done and state.decision_step < 6:
                decision, _z = agent.decide_step(state)
                actions.append(decision.action)
                step(state, decision.action)
            return actions

        live = run_episode(RecordingBackend(ScriptedBackend(), agent_path))
        replayed = run_episode(ReplayBackend(agent_path))
        assert replayed == live

        lines = agent_path.read_text().splitlines()
        assert len(lines) == len(live)
        record = json.loads(lines[0])
        assert record["request"]["messages"][0][0] == "system"
        assert "response" in record

    def test_exhausted_transcript_falls_back(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"request": {}, "response": "bad"}) + "\n")
        backend = ReplayBackend(path)
        state = highway_state()
        agent = TeacherAgent(backend)
        first, _ = agent.decide_step(state)  # consumes the only line, reply unparseable
        assert first.source == "fallback"
        second, _ = agent.decide_step(state)  # transcript exhausted entirely
        assert second.source == "fallback"
        assert isinstance(second.action, Maneuver)

    def test_unreadable_transcript_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="transcript"):
            ReplayBackend(tmp_path / "missing.jsonl")


class TestRemoteBackend:
    """The remote backend's one POST, against a stand-in for `urlopen` (there
    is no network), with `requests` blocked: the standard library serves it."""

    MESSAGES = [("system", "be brief"), ("user", "decide")]
    URL = "http://llm.invalid/v1/chat/completions"

    @pytest.fixture
    def backend(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        monkeypatch.setenv(API_KEY_VAR, "k123")
        return RemoteBackend(self.URL, "m", timeout=7.5, temperature=0.3)

    @staticmethod
    def serve(monkeypatch, reply) -> list:
        """urlopen returns the bytes `reply`, or raises it when it is an
        exception; returns the list of (request, timeout) calls it saw."""
        seen = []

        def fake_urlopen(request, timeout):
            seen.append((request, timeout))
            if isinstance(reply, Exception):
                raise reply
            return io.BytesIO(reply)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        return seen

    def test_good_reply(self, backend, monkeypatch):
        reply = {"choices": [{"message": {"content": "ok"}}]}
        seen = self.serve(monkeypatch, json.dumps(reply).encode())
        assert backend.chat(self.MESSAGES) == "ok"
        [(request, timeout)] = seen
        assert timeout == 7.5
        assert (request.get_method(), request.full_url) == ("POST", self.URL)
        assert request.get_header("Authorization") == "Bearer k123"
        body = json.loads(request.data)
        assert (body["model"], body["temperature"]) == ("m", 0.3)
        assert body["messages"] == [{"role": "system", "content": "be brief"},
                                    {"role": "user", "content": "decide"}]

    def test_http_500(self, backend, monkeypatch):
        self.serve(monkeypatch, urllib.error.HTTPError(self.URL, 500, "Server Error", {}, None))
        with pytest.raises(BackendError, match="request failed.*500"):
            backend.chat(self.MESSAGES)

    def test_timeout(self, backend, monkeypatch):
        self.serve(monkeypatch, TimeoutError("timed out"))
        with pytest.raises(BackendError, match="request failed: timed out"):
            backend.chat(self.MESSAGES)

    def test_reply_without_choices(self, backend, monkeypatch):
        self.serve(monkeypatch, json.dumps({"error": "overloaded"}).encode())
        with pytest.raises(BackendError, match="unexpected shape"):
            backend.chat(self.MESSAGES)


class TestReflect:
    def test_canonical_rule_from_scripted_backend(self):
        seg = FlaggedSegment("intersection", ["speed_up", "slow_down"],
                             [10.0, 10.0], [0.8, 0.3])
        outcome = reflect([seg], ScriptedBackend())
        assert len(outcome.constraint_delta) == 1
        rule = outcome.constraint_delta[0]
        assert rule.scenario_kind == "intersection"
        assert rule.forbidden_action is Maneuver.SpeedUp
        assert rule.guard == {"tau_min_lt": 0.8}
        assert outcome.policy_delta

    def test_braking_culprit_yields_no_rule(self):
        seg = FlaggedSegment("merge", ["slow_down", "slow_down"],
                             [10.0, 12.0], [1.0, 0.4])
        outcome = reflect([seg], ScriptedBackend())
        assert outcome.constraint_delta == []
        assert outcome.policy_delta

    def test_guard_clamped_to_clear_threshold(self):
        seg = FlaggedSegment("merge", ["cruise", "slow_down"],
                             [8.0, 10.0], [5.6, 0.2])
        outcome = reflect([seg], ScriptedBackend())
        assert outcome.constraint_delta[0].guard == {"tau_min_lt": 4.0}

    def test_malformed_constraint_kept_out(self):
        reply = json.dumps({
            "policy_delta": "brake earlier",
            "prompt_delta": "mention the margin",
            "constraints": [{"scenario_kind": "merge", "forbidden_action": "hyperdrive",
                             "guard": {"tau_min_lt": 1.0}}],
        })
        seg = FlaggedSegment("merge", ["cruise"], [8.0], [1.0])
        with pytest.warns(UserWarning, match="malformed"):
            outcome = reflect([seg], FixedBackend([reply]))
        assert outcome.constraint_delta == []
        assert outcome.policy_delta == "brake earlier"
        assert outcome.prompt_delta == "mention the margin"

    @pytest.mark.parametrize("value", [5, True, "abc"], ids=["int", "bool", "string"])
    def test_constraints_not_a_list_dropped_with_one_warning(self, value):
        reply = json.dumps({"policy_delta": "brake earlier", "prompt_delta": "mention the margin",
                            "constraints": value})
        seg = FlaggedSegment("merge", ["cruise"], [8.0], [1.0])
        with pytest.warns(UserWarning, match="not a list") as caught:
            outcome = reflect([seg], FixedBackend([reply]))
        assert len(caught) == 1
        assert outcome.constraint_delta == []
        assert outcome.policy_delta == "brake earlier"
        assert outcome.prompt_delta == "mention the margin"

    def test_backend_failure_empty_outcome(self):
        seg = FlaggedSegment("merge", ["cruise"], [8.0], [1.0])
        outcome = reflect([seg], FixedBackend([BackendError("down")]))
        assert outcome.policy_delta == ""
        assert outcome.prompt_delta == ""
        assert outcome.constraint_delta == []

    def test_prompt_narrates_every_segment(self):
        segs = [FlaggedSegment("merge", ["cruise"], [8.0], [1.0]),
                FlaggedSegment("merge", ["speed_up"], [12.0], [0.5])]
        prompt = build_reflection_prompt(segs)
        assert "Segment 1" in prompt.user and "Segment 2" in prompt.user
        # the summary points at the worst segment
        summary = json.loads(prompt.user.splitlines()[-2][len("REFLECTION: "):])
        assert summary["action"] == "speed_up"


class TestTeacherAgent:
    def test_counters_and_vector(self):
        state = highway_state()
        agent = TeacherAgent(ScriptedBackend())
        decision, z = agent.decide_step(state)
        assert isinstance(decision.action, Maneuver)
        assert z.shape == (STATE_DIM,)
        assert agent.decision_queries == 1
        assert agent.reflection_queries == 0
        agent.run_reflection([])
        assert agent.reflection_queries == 0  # empty list is gated out
        seg = FlaggedSegment("highway", ["cruise"], [8.0], [1.0])
        agent.run_reflection([seg])
        assert agent.reflection_queries == 1

    def test_reflection_deduplicates(self):
        agent = TeacherAgent(ScriptedBackend())
        seg = FlaggedSegment("highway", ["speed_up"], [9.0], [1.1])
        agent.run_reflection([seg])
        agent.run_reflection([seg])
        assert len(agent.constraints) == 1
        assert len(agent.lessons) == 2  # policy and prompt deltas, once each

    def test_tau_hysteresis_visible_in_prompts(self, tmp_path):
        """A conflict that vanishes for one reading still gates the cascade."""
        state, _ = reset(ScenarioConfig(kind="intersection", n_background=5),
                         seed=3)
        path = tmp_path / "t.jsonl"
        agent = TeacherAgent(RecordingBackend(ScriptedBackend(), path))
        expected = []
        prev = math.inf
        while not state.done and state.decision_step < 10:
            now = assess(state, agent.risk_params).tau_min
            expected.append(min(now, prev))
            prev = now
            decision, _z = agent.decide_step(state)
            step(state, decision.action)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record, want in zip(records, expected):
            messages = record["request"]["messages"]
            prompt = Prompt(system=messages[0][1], user=messages[1][1])
            got = parse_telemetry(prompt).tau_min
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-3)

    def test_n_shot_sets_exemplar_count(self):
        rng = np.random.default_rng(5)
        memory = MemoryRepository()
        for _ in range(6):
            memory.add(entry_with(rng.normal(size=STATE_DIM)))
        agent = TeacherAgent(ScriptedBackend(), memory=memory, n_shot=5)
        _decision, z = agent.decide_step(highway_state())
        user = agent.last_prompt.user
        sims = [float(m) for m in re.findall(r"similarity (-?\d+\.\d+)", user)]
        assert user.count("Example ") == 5
        assert sims == [round(sim, 2) for _entry, sim in retrieve(z, memory, 5)]
        assert sims == sorted(sims, reverse=True)

    def test_state_dict_round_trip(self):
        state = highway_state()
        agent = TeacherAgent(ScriptedBackend())
        agent.decide_step(state)
        agent.record_episode(np.ones(STATE_DIM), "highway", Maneuver.Cruise,
                             "success", 4.2)
        seg = FlaggedSegment("highway", ["speed_up"], [9.0], [1.1])
        agent.run_reflection([seg])
        agent._prev_tau = 2.5

        clone = TeacherAgent(ScriptedBackend())
        clone.load_state_dict(agent.state_dict())
        assert len(clone.memory) == len(agent.memory)
        assert clone.constraints == agent.constraints
        assert clone.lessons == agent.lessons
        assert clone.decision_queries == agent.decision_queries
        assert clone.reflection_queries == agent.reflection_queries
        assert clone._prev_tau == 2.5

    def staged_merge(self, ego_x):
        """Ego on the ramp at 20 m/s with a mainline car 3 m behind it in the
        goal lane, so no gap is safe."""
        state, _ = reset(ScenarioConfig(kind="merge", n_background=1), seed=0)
        state.ego.x, state.ego.speed = ego_x, 20.0
        other = state.background[0]
        other.x, other.y, other.speed = ego_x - 3.0, -4.0, 20.0
        other.lane = other.target_lane = 1
        return state

    def test_decide_step_slows_down_before_ramp_end(self):
        agent = TeacherAgent(ScriptedBackend())
        decision, _z = agent.decide_step(self.staged_merge(MERGE_RAMP_END - 15.0))
        telemetry = parse_telemetry(agent.last_prompt)
        assert (telemetry.lane, telemetry.goal_lane) == (2, 1)
        assert telemetry.ramp_left == pytest.approx(15.0)
        assert not telemetry.conflict_ahead
        assert decision.action is Maneuver.SlowDown
        # the same scene far up the ramp waits for a gap at speed
        decision, _z = agent.decide_step(self.staged_merge(60.0))
        assert parse_telemetry(agent.last_prompt).ramp_left == pytest.approx(140.0)
        assert decision.action is Maneuver.Cruise

    def test_scripted_pipeline_deterministic(self):
        def run():
            state, _ = reset(ScenarioConfig(kind="merge", n_background=5), seed=4)
            agent = TeacherAgent(ScriptedBackend())
            actions = []
            while not state.done:
                decision, _z = agent.decide_step(state)
                actions.append(decision.action)
                step(state, decision.action)
            return actions

        assert run() == run()


class TestScriptedTeacherAsDriver:
    def test_merges_on_gate_eval_seeds(self):
        """The scripted teacher, driving merge-lite itself, on the 60 eval
        seeds of train seeds 0-2. A teacher weaker than the students it
        guides pulls them down; before the must-merge rule it reached 44."""
        cfg = from_mapping(load_mapping("merge-lite"))
        env = TrafficEnv(cfg.scenario, cfg.risk)
        successes = 0
        seeds = []
        for train_seed in (0, 1, 2):
            trainer = Trainer(cfg.scenario, TrainConfig(seed=train_seed, variant="V-PPO"))
            seeds += [trainer._eval_seed(e) for e in range(cfg.train.eval_episodes)]
        for seed in seeds:
            env.reset(seed=seed)
            agent = TeacherAgent(ScriptedBackend(), cfg.risk)
            out = None
            while not env.state.done:
                decision, _z = agent.decide_step(env.state)
                out = env.step(decision.action)
            successes += "success" in out.events
        assert len(seeds) == 60
        assert successes >= 51, f"{successes}/60"
