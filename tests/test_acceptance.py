"""Release gates for the whole package.

Each test prints one [acceptance] PASS/FAIL line (visible with -s, or in the
captured output) so a log scan shows the gate status at a glance: gradient
correctness, analytic oracles, structural invariants, teacher-pull efficacy,
guided-vs-vanilla training direction, query audit, decision latency, run
determinism, and the reflection loop.
"""

import math
import time

import numpy as np
import pytest

from test_policy import reference_forward

from drivecoach.cli import main as cli_main
from drivecoach.config import build_teacher, from_mapping, load_mapping
from drivecoach.nn import AdamState, adam_step, tmean
from drivecoach.policy import (
    ACTION_DIM,
    VARIANTS,
    FusionPolicyNet,
    entropy_bonus,
    guidance_losses,
    kl_penalty,
    kl_to_teacher,
    ppo_policy_loss,
    teacher_distribution,
    total_loss,
    value_loss,
)
from drivecoach.risk import (
    INFRACTION_EVENTS,
    RiskParams,
    assess,
    closest_approach,
    flag_segments,
    risk_value,
    ttcp,
)
from drivecoach.sim.engine import FLAT_OBS_DIM, TrafficEnv
from drivecoach.sim.scenarios import ScenarioConfig
from drivecoach.sim.vehicles import Maneuver, VehicleState, make_profile
from drivecoach.teacher import (
    BackendError,
    ChatBackend,
    FlaggedSegment,
    MemoryEntry,
    MemoryRepository,
    ScriptedBackend,
    TeacherAgent,
    Telemetry,
    retrieve,
    scripted_decide,
)
from drivecoach.teacher.state import STATE_DIM
from drivecoach.trainer import TrainConfig, Trainer, window_steps


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        net = FusionPolicyNet(FLAT_OBS_DIM, seed=seed)
        obs = rng.normal(size=(6, FLAT_OBS_DIM))
        actions = rng.integers(0, ACTION_DIM, size=6)
        old_logp = np.log(rng.uniform(0.1, 0.9, size=6))
        adv = rng.normal(size=6)
        targets = rng.normal(size=6)
        teacher_actions = rng.integers(0, ACTION_DIM, size=6)

        def objective():
            out = net.forward(obs)
            policy = ppo_policy_loss(out.log_pi, actions, old_logp, adv, 0.2)
            value = value_loss(out.v, targets)
            kl_pen, distill, kl_value = guidance_losses(
                out.pi, out.log_teacher_pi_hat, teacher_actions, 0.05, 10.0)
            ent = entropy_bonus(out.pi, out.log_pi)
            total, _ = total_loss(policy, value, distill, kl_pen, ent, kl_value)
            return total

        total = objective()
        net.params.zero_grad()
        total.backward()
        grads = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                 for k, p in net.params.items()}
        eps = 1e-6
        for name, p in net.params.items():
            flat = p.data.reshape(-1)
            for j in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                keep = flat[j]
                flat[j] = keep + eps
                up = float(objective().data)
                flat[j] = keep - eps
                down = float(objective().data)
                flat[j] = keep
                numeric = (up - down) / (2.0 * eps)
                analytic = float(grads[name].reshape(-1)[j])
                rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    gate("gradient check", worst < 1e-4 and elapsed < 60.0,
         f"max rel err {worst:.2e} over 10 seeds, {elapsed:.1f}s")


def _vehicle(vid, p, v):
    speed = math.hypot(v[0], v[1])
    heading = math.atan2(v[1], v[0]) if speed > 0 else 0.0
    return VehicleState(id=vid, x=float(p[0]), y=float(p[1]), speed=speed,
                        heading=heading, lane=0,
                        profile=make_profile("standard", "highway"))


def test_equation_oracles():
    t0 = time.perf_counter()

    # policy forward pass vs a straight-line numpy transcription
    worst_fwd = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = FusionPolicyNet(FLAT_OBS_DIM, seed=seed)
        x = rng.normal(size=(5, FLAT_OBS_DIM))
        out = net.forward(x)
        pi, v, tpi = reference_forward({k: p.data.copy() for k, p in net.params.items()}, x)
        worst_fwd = max(
            worst_fwd,
            float(np.abs(out.pi.data - pi).max()),
            float(np.abs(out.v.data - v).max()),
            float(np.abs(np.exp(out.log_teacher_pi_hat.data) - tpi).max()),
        )

    # retrieval vs exhaustive cosine sort (ties have measure zero here)
    rng = np.random.default_rng(7)
    retrieve_mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        repo = MemoryRepository(capacity=20)
        for _i in range(n):
            repo.add(MemoryEntry(z=rng.normal(size=STATE_DIM), scenario_kind="merge",
                                 action=int(rng.integers(0, ACTION_DIM)),
                                 outcome="success",
                                 episode_return=float(rng.normal())))
        z = rng.normal(size=STATE_DIM)
        k = min(3, n)
        got = [entry for entry, _sim in retrieve(z, repo, k)]
        sims = [float(np.dot(z, e.z) / (np.linalg.norm(z) * np.linalg.norm(e.z)))
                for e in repo.entries]
        order = sorted(range(n), key=lambda i: (-sims[i], -i))[:k]
        if [id(e) for e in got] != [id(repo.entries[i]) for i in order]:
            retrieve_mismatches += 1

    # pairwise conflict time vs a 0.01 s grid scan of extrapolated distance
    params = RiskParams()
    rng = np.random.default_rng(11)
    ts = np.arange(0.0, params.horizon + 1e-9, 0.01)
    checked = 0
    class_mismatches = 0
    worst_tau = 0.0
    for _ in range(1000):
        p_a, p_b = rng.uniform(-40, 40, 2), rng.uniform(-40, 40, 2)
        v_a, v_b = rng.uniform(-15, 15, 2), rng.uniform(-15, 15, 2)
        ego, other = _vehicle(0, p_a, v_a), _vehicle(1, p_b, v_b)
        _, d_min = closest_approach(ego, other, params.horizon)
        if abs(d_min - params.conflict_radius) < 0.1:
            continue  # the grid cannot classify radius-boundary pairs
        rel = (p_b - p_a) + np.outer(ts, v_b - v_a)
        d = np.hypot(rel[:, 0], rel[:, 1])
        kk = int(np.argmin(d))
        expected = float(ts[kk]) if d[kk] <= params.conflict_radius else math.inf
        got_tau = ttcp(ego, other, params)
        if math.isinf(expected) != math.isinf(got_tau):
            class_mismatches += 1
        elif math.isfinite(expected):
            worst_tau = max(worst_tau, abs(got_tau - expected))
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = (worst_fwd < 1e-10 and retrieve_mismatches == 0
          and class_mismatches == 0 and worst_tau <= 0.01 + 1e-9
          and checked >= 900 and elapsed < 120.0)
    gate("equation oracles", ok,
         f"forward {worst_fwd:.1e}, retrieve mismatches {retrieve_mismatches}/1000, "
         f"conflict-time err {worst_tau:.4f}s on {checked} pairs, {elapsed:.1f}s")


class _TimeoutBackend(ChatBackend):
    kind = "remote"

    def chat(self, prompt):
        raise BackendError("request timed out")


class _GarbageBackend(ChatBackend):
    kind = "remote"

    def chat(self, prompt):
        return "%%% certainly! here is some prose with no payload %%%"


class _EmptyBackend(ChatBackend):
    kind = "remote"

    def chat(self, prompt):
        return ""


def test_structural_invariants():
    rng = np.random.default_rng(0)

    worst_row = 0.0
    for variant in VARIANTS:
        net = FusionPolicyNet(FLAT_OBS_DIM, seed=1, variant=variant)
        out = net.forward(rng.normal(size=(100, FLAT_OBS_DIM)))
        worst_row = max(worst_row, float(np.abs(out.pi.data.sum(axis=1) - 1.0).max()))

    repo = MemoryRepository()
    cap_ok = True
    for i in range(500):
        repo.add(MemoryEntry(z=rng.normal(size=STATE_DIM), scenario_kind="merge",
                             action=int(rng.integers(0, ACTION_DIM)),
                             outcome="collision" if i % 3 else "success",
                             episode_return=float(rng.normal()),
                             lesson="brake earlier" if i % 7 == 0 else ""))
        cap_ok = cap_ok and len(repo) <= 20

    env = TrafficEnv(ScenarioConfig(kind="merge", n_background=3))
    faults = [_TimeoutBackend(), _GarbageBackend(), _EmptyBackend()]
    fallbacks = 0
    for trial in range(100):
        env.reset(seed=trial)
        teacher = TeacherAgent(faults[trial % 3])
        decision, _z = teacher.decide_step(env.state)
        if isinstance(decision.action, Maneuver) and decision.source == "fallback":
            fallbacks += 1

    ok = worst_row <= 1e-9 and cap_ok and fallbacks == 100
    gate("structural invariants", ok,
         f"row-sum err {worst_row:.1e}, capacity held {cap_ok}, "
         f"fault fallbacks {fallbacks}/100")


@pytest.mark.slow
def test_teacher_pull_on_toy_bandit():
    t0 = time.perf_counter()
    dim = 8
    rng = np.random.default_rng(0)

    def sample_contexts(n):
        # one dominant channel per context; the teacher always picks it
        arms = rng.integers(0, ACTION_DIM, size=n)
        x = rng.normal(scale=0.3, size=(n, dim))
        x[np.arange(n), arms] += 3.0
        return x, arms

    net = FusionPolicyNet(dim, seed=0)
    adam = AdamState.for_params(net.params)
    for _step in range(2000):
        xb, arms = sample_contexts(32)
        teacher_pi = np.stack([teacher_distribution(a) for a in arms])
        out = net.forward(xb)
        loss = tmean(kl_penalty(kl_to_teacher(out.pi, teacher_pi), 0.05, 10.0))
        net.params.zero_grad()
        loss.backward()
        adam_step(net.params, adam, 5e-4)
    probes, probe_arms = sample_contexts(500)
    agree = float(np.mean(np.argmax(net.forward(probes).pi.data, axis=1) == probe_arms))

    # control: no constraint, noise rewards; nothing is expected of it
    ctrl = FusionPolicyNet(dim, seed=1)
    ctrl_adam = AdamState.for_params(ctrl.params)
    for _step in range(200):
        xb, _arms = sample_contexts(32)
        out = ctrl.forward(xb)
        acts = rng.integers(0, ACTION_DIM, size=32)
        old_logp = np.take_along_axis(out.log_pi.data, acts[:, None], axis=1)[:, 0]
        loss = ppo_policy_loss(out.log_pi, acts, old_logp, rng.normal(size=32), 0.2)
        ctrl.params.zero_grad()
        loss.backward()
        adam_step(ctrl.params, ctrl_adam, 5e-4)
    ctrl_agree = float(np.mean(
        np.argmax(ctrl.forward(probes).pi.data, axis=1) == probe_arms))

    elapsed = time.perf_counter() - t0
    gate("teacher pull on bandit", agree >= 0.95 and elapsed < 120.0,
         f"agreement {agree:.1%} on 500 probes "
         f"(unconstrained control {ctrl_agree:.1%}), {elapsed:.1f}s")


@pytest.mark.slow
def test_guided_training_beats_vanilla(tmp_path):
    t0 = time.perf_counter()
    seeds = (0, 1, 2)
    results = {}
    slowest = 0.0
    for variant in ("LA-PPO", "V-PPO"):
        for seed in seeds:
            cfg = from_mapping(load_mapping("merge-lite"))
            cfg.train.variant = variant
            cfg.train.seed = seed
            teacher = build_teacher(cfg) if variant == "LA-PPO" else None
            run_start = time.perf_counter()
            trainer = Trainer(cfg.scenario, cfg.train, cfg.risk, teacher=teacher,
                              out_dir=tmp_path / f"{variant.lower()}-s{seed}")
            reports = trainer.run()
            slowest = max(slowest, time.perf_counter() - run_start)
            half = next(r for r in reports if r.step == cfg.train.total_steps // 2)
            results[(variant, seed)] = (half.eval_reward, reports[-1].success_rate)
    # Success rates are k / eval_episodes, and a difference of two such floats
    # can land just under the margin (0.7 - 0.6 < 0.1), so the 0.10 margin is
    # compared as episode counts: 2 more successes out of 20.
    episodes = from_mapping(load_mapping("merge-lite")).train.eval_episodes
    margin = round(0.10 * episodes)
    wins = 0
    details = []
    for seed in seeds:
        la_half, la_final = results[("LA-PPO", seed)]
        v_half, v_final = results[("V-PPO", seed)]
        won = (la_half >= v_half
               and round(la_final * episodes) - round(v_final * episodes) >= margin)
        wins += won
        details.append(f"seed {seed}: half {la_half:.2f} vs {v_half:.2f}, "
                       f"final success {la_final:.2f} vs {v_final:.2f}")
    elapsed = time.perf_counter() - t0
    gate("guided beats vanilla", wins >= 2 and slowest < 900.0,
         f"{wins}/3 seeds ({'; '.join(details)}), slowest run {slowest:.0f}s, "
         f"total {elapsed:.0f}s")


def test_teacher_query_audit():
    cfg = TrainConfig(total_steps=600, eval_interval=100_000, eval_episodes=1,
                      rollout_size=200, batch_size=50, epochs=1, variant="LA-PPO")
    trainer = Trainer(ScenarioConfig(kind="merge", n_background=2), cfg)
    trainer.run()
    expected = window_steps(cfg)
    ok = (trainer.teacher.decision_queries == expected
          and trainer.global_step == cfg.total_steps)
    gate("teacher query audit", ok,
         f"{trainer.teacher.decision_queries} queries, window {expected} "
         f"of {cfg.total_steps} steps, zero after")


def test_decision_latency():
    net = FusionPolicyNet(FLAT_OBS_DIM, seed=0)
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(1000, FLAT_OBS_DIM))
    net.act(obs[0], rng=rng)  # warm-up
    calls = 1000
    t0 = time.perf_counter()
    for i in range(calls):
        net.act(obs[i], rng=rng)
    mean_ms = (time.perf_counter() - t0) * 1000.0 / calls
    gate("decision latency", mean_ms < 10.0,
         f"mean {mean_ms:.3f} ms per sampled decision over {calls} calls")


def test_run_determinism(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "scenario: {kind: merge, n_background: 2}\n"
        "train: {total_steps: 400, eval_interval: 100, eval_episodes: 2,\n"
        "        rollout_size: 100, batch_size: 50, epochs: 2, variant: la-ppo}\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", str(config), "--out", str(a)]) == 0
    assert cli_main(["train", "--config", str(config), "--out", str(b)]) == 0
    identical = (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    cfg = from_mapping(load_mapping(str(config)))
    partial = Trainer(cfg.scenario, cfg.train, cfg.risk, teacher=build_teacher(cfg),
                      out_dir=tmp_path / "part")
    partial.run(stop_after_step=250)
    resumed = Trainer.resume(tmp_path / "part" / "checkpoint_step250.dckp",
                             out_dir=tmp_path / "resumed")
    resumed.run()
    full_rows = (a / "metrics.csv").read_text().splitlines()
    tail = [r for r in full_rows[1:] if int(r.split(",")[0]) > 250]
    resumed_rows = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()[1:]

    ok = identical and bool(tail) and resumed_rows == tail
    gate("run determinism", ok,
         f"repeat byte-identical {identical}, resume matched {len(tail)} tail rows")


def test_reflection_loop():
    params = RiskParams()
    env = TrafficEnv(ScenarioConfig(kind="merge", n_background=1))
    env.reset(seed=3)
    ego = env.state.ego
    blocker = env.state.background[0]
    # park a stalled car shortly ahead in the ego's lane and floor it
    blocker.x = ego.x + 12.0
    blocker.y = ego.y
    blocker.lane = ego.lane
    blocker.speed = 0.0
    blocker.heading = ego.heading
    omegas, taus, actions = [], [], []
    events = set()
    for _ in range(6):
        out = env.step(Maneuver.SpeedUp)
        tau_min = assess(env.state, params).tau_min
        omegas.append(risk_value(tau_min, bool(INFRACTION_EVENTS & out.events), params))
        taus.append(float(tau_min))
        actions.append("speed_up")
        events |= out.events
        if out.done:
            break
    collided = "collision" in events
    flagged = flag_segments(omegas, params)

    teacher = TeacherAgent(ScriptedBackend(), params)
    start, end = flagged[0]
    teacher.run_reflection([FlaggedSegment(scenario_kind="merge",
                                           actions=actions[start:end + 1],
                                           omegas=omegas[start:end + 1],
                                           tau_mins=taus[start:end + 1])])
    one_rule = len(teacher.constraints) == 1
    rule = teacher.constraints[0]
    threshold = rule.guard["tau_min_lt"]

    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        telemetry = Telemetry(
            scenario_kind=rule.scenario_kind,
            speed=float(rng.uniform(0.0, 30.0)),
            desired_speed=float(rng.uniform(5.0, 30.0)),
            lane=int(rng.integers(0, 3)),
            goal_lane=int(rng.integers(0, 3)),
            tau_min=float(rng.uniform(0.0, threshold)),
            conflict_ahead=bool(rng.integers(0, 2)),
            gap_lead=float(rng.uniform(2.0, 100.0)),
            lead_speed=float(rng.uniform(0.0, 30.0)),
            gap_follow=float(rng.uniform(2.0, 100.0)),
            follower_speed=float(rng.uniform(0.0, 30.0)),
        )
        if scripted_decide(telemetry, [rule]) == rule.forbidden_action:
            violations += 1

    ok = (collided and len(flagged) >= 1 and max(omegas) >= params.delta
          and one_rule and rule.forbidden_action == Maneuver.SpeedUp
          and violations == 0)
    gate("reflection loop", ok,
         f"collision flagged {bool(flagged)}, one rule {one_rule} "
         f"(guard tau_min < {threshold}), violations {violations}/1000")
