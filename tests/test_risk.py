"""Risk engine tests with brute-force oracles for ttcp and segment flagging."""

from __future__ import annotations

import math

import numpy as np
import pytest

from drivecoach.errors import ConfigError, UsageError
from drivecoach.risk import (
    RiskParams,
    assess,
    closest_approach,
    delta_ttcp_metric,
    flag_segments,
    risk_value,
    ttcp,
)
from drivecoach.sim import VehicleState, make_profile


def grid_ttcp(p_a, v_a, p_b, v_b, params):
    """Oracle: scan t in [0, horizon] on a fine grid for the first proximity hit."""
    ts = np.arange(0.0, params.horizon + 1e-9, 0.005)
    pa = np.asarray(p_a) + np.outer(ts, v_a)
    pb = np.asarray(p_b) + np.outer(ts, v_b)
    d = np.linalg.norm(pa - pb, axis=1)
    k = int(np.argmin(d))
    if d[k] <= params.conflict_radius:
        return float(ts[k])
    return math.inf


def vehicle(vid, x, y, vx, vy):
    speed = math.hypot(vx, vy)
    heading = math.atan2(vy, vx) if speed > 0 else 0.0
    return VehicleState(id=vid, x=x, y=y, speed=speed, heading=heading, lane=0,
                        profile=make_profile("standard", "highway"))


class FakeState:
    def __init__(self, ego, background):
        self.ego = ego
        self.background = background


def pair(p_a, v_a, p_b, v_b):
    a = vehicle(0, float(p_a[0]), float(p_a[1]), float(v_a[0]), float(v_a[1]))
    b = vehicle(1, float(p_b[0]), float(p_b[1]), float(v_b[0]), float(v_b[1]))
    return a, b


class TestParams:
    def test_defaults(self):
        p = RiskParams()
        assert (p.beta, p.delta, p.conflict_radius, p.horizon) == (10.0, 5.0, 4.0, 6.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="horizon"):
            RiskParams(horizon=0.0)
        with pytest.raises(ConfigError, match="beta"):
            RiskParams(beta=-1.0)


class TestTtcp:
    def test_head_on_closing(self):
        # relative position (100, 0), relative velocity (-10, 0): meet at t=10,
        # which needs a horizon past the default
        params = RiskParams(horizon=60.0)
        ego, other = pair((0, 0), (10, 0), (100, 0), (0, 0))
        assert ttcp(ego, other, params) == pytest.approx(10.0, abs=0.01)
        assert grid_ttcp((0, 0), (10, 0), (100, 0), (0, 0), params) == pytest.approx(10.0, abs=0.01)

    def test_default_horizon_marks_it_free(self):
        ego, other = pair((0, 0), (10, 0), (100, 0), (0, 0))
        assert ttcp(ego, other, RiskParams()) == math.inf

    def test_zero_relative_velocity(self):
        ego, other = pair((0, 0), (5, 0), (50, 0), (5, 0))
        assert ttcp(ego, other, RiskParams()) == math.inf
        # already inside the radius: conflict now
        ego, other = pair((0, 0), (5, 0), (3, 0), (5, 0))
        assert ttcp(ego, other, RiskParams()) == 0.0

    def test_diverging_clamps_to_now(self):
        ego, other = pair((0, 0), (10, 0), (3, 0), (20, 0))
        t_star, _ = closest_approach(ego, other, RiskParams().horizon)
        assert t_star == 0.0
        assert ttcp(ego, other, RiskParams()) == 0.0
        ego, other = pair((0, 0), (10, 0), (9, 0), (20, 0))
        assert ttcp(ego, other, RiskParams()) == math.inf

    def test_crossing_paths(self):
        params = RiskParams()
        ego, other = pair((0, -20), (0, 5), (-20, 0), (5, 0))
        tau = ttcp(ego, other, params)
        assert tau == pytest.approx(grid_ttcp((0, -20), (0, 5), (-20, 0), (5, 0), params), abs=0.01)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        params = RiskParams()
        checked = 0
        for _ in range(300):
            p_a = rng.uniform(-40, 40, 2)
            p_b = rng.uniform(-40, 40, 2)
            v_a = rng.uniform(-15, 15, 2)
            v_b = rng.uniform(-15, 15, 2)
            ego, other = pair(p_a, v_a, p_b, v_b)
            _, d_min = closest_approach(ego, other, params.horizon)
            if abs(d_min - params.conflict_radius) < 0.1:
                continue  # grid resolution cannot settle boundary cases
            expected = grid_ttcp(p_a, v_a, p_b, v_b, params)
            got = ttcp(ego, other, params)
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=0.01)
            checked += 1
        assert checked > 250

    def test_scale_invariance_of_time(self):
        rng = np.random.default_rng(7)
        params = RiskParams(conflict_radius=8.0)
        found = 0
        for _ in range(200):
            p_a = rng.uniform(-30, 30, 2)
            v_a = rng.uniform(-10, 10, 2)
            p_b = rng.uniform(-30, 30, 2)
            v_b = rng.uniform(-10, 10, 2)
            ego, other = pair(p_a, v_a, p_b, v_b)
            tau = ttcp(ego, other, params)
            if not math.isfinite(tau) or tau == 0.0:
                continue
            # scaling distances and speeds together keeps the timing
            scaled = RiskParams(conflict_radius=2.0 * params.conflict_radius)
            ego2, other2 = pair(2 * p_a, 2 * v_a, 2 * p_b, 2 * v_b)
            assert ttcp(ego2, other2, scaled) == pytest.approx(tau, abs=1e-9)
            found += 1
        assert found > 10


class TestAssess:
    def test_no_traffic(self):
        a = assess(FakeState(vehicle(0, 0, 0, 10, 0), []), RiskParams())
        assert a.tau_min == math.inf
        assert a.taus == {}

    def test_exhaustive_over_background(self):
        rng = np.random.default_rng(14)
        params = RiskParams()
        for _ in range(50):
            ego = vehicle(0, 0.0, 0.0, float(rng.uniform(0, 20)), 0.0)
            bg = [
                vehicle(i + 1, float(rng.uniform(-50, 50)), float(rng.uniform(-10, 10)),
                        float(rng.uniform(-15, 15)), float(rng.uniform(-2, 2)))
                for i in range(5)
            ]
            a = assess(FakeState(ego, bg), params)
            assert a.taus == {v.id: ttcp(ego, v, params) for v in bg}
            assert a.tau_min == min(ttcp(ego, v, params) for v in bg)


class TestRiskValue:
    def test_moderate_conflict(self):
        assert risk_value(2.0, False, RiskParams()) == pytest.approx(0.5)

    def test_infraction_dominates_free_road(self):
        assert risk_value(math.inf, True, RiskParams()) == pytest.approx(10.0)

    def test_imminent_conflict_exceeds_beta(self):
        assert risk_value(0.05, False, RiskParams()) == pytest.approx(20.0)

    def test_free_road_is_zero(self):
        assert risk_value(math.inf, False, RiskParams()) == 0.0

    def test_max_semantics(self):
        # infraction floor and proximity term compete; the larger one wins
        assert risk_value(0.05, True, RiskParams()) == pytest.approx(20.0)
        assert risk_value(2.0, True, RiskParams()) == pytest.approx(10.0)

    def test_finite_at_zero(self):
        v = risk_value(0.0, False, RiskParams())
        assert math.isfinite(v)
        assert v >= risk_value(0.01, False, RiskParams())


class TestFlagSegments:
    def test_quiet_sequence(self):
        assert flag_segments([0.0] * 10, RiskParams()) == []

    def test_single_spike_padded(self):
        omegas = [0.0] * 10
        omegas[7] = 6.0
        assert flag_segments(omegas, RiskParams()) == [(5, 7)]

    def test_adjacent_runs_not_merged(self):
        d = 5.0
        assert flag_segments([0.0, d, d, 0.0, d], RiskParams()) == [(0, 2), (2, 4)]

    def test_spike_at_start(self):
        assert flag_segments([6.0, 0.0, 0.0], RiskParams()) == [(0, 0)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        params = RiskParams()
        for _ in range(200):
            omegas = list(rng.choice([0.0, 1.0, 5.0, 9.0], size=rng.integers(1, 30)))
            expected = []
            i = 0
            n = len(omegas)
            while i < n:
                if omegas[i] >= params.delta:
                    j = i
                    while j + 1 < n and omegas[j + 1] >= params.delta:
                        j += 1
                    expected.append((max(0, i - 2), j))
                    i = j + 1
                else:
                    i += 1
            assert flag_segments(omegas, params) == expected


class TestDeltaTtcp:
    def test_free_steps_count_as_horizon(self):
        p = RiskParams()
        assert delta_ttcp_metric([1.0, 2.0, math.inf], p) == pytest.approx(3.0)

    def test_single(self):
        assert delta_ttcp_metric([1.3], RiskParams()) == pytest.approx(1.3)

    def test_all_free_equals_horizon(self):
        p = RiskParams()
        assert delta_ttcp_metric([math.inf] * 7, p) == pytest.approx(p.horizon)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            delta_ttcp_metric([], RiskParams())
