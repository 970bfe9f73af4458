"""Trainer tests: schedules, buffer, collection gating, updates, artifacts."""

import ctypes
import dataclasses
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from drivecoach.errors import ConfigError, UsageError
from drivecoach import risk
from drivecoach import trainer as trainer_module
from drivecoach.nn import CheckpointError, adam_step, load_checkpoint, save_checkpoint
from drivecoach.policy import VARIANTS, value_targets
from drivecoach.risk import RiskParams, delta_ttcp_metric
from drivecoach.sim.engine import TrafficEnv, trace_record
from drivecoach.sim.scenarios import ScenarioConfig
from drivecoach.sim.vehicles import Maneuver
from drivecoach.teacher import ScriptedBackend, TeacherAgent
from drivecoach.teacher import agent as agent_module
from drivecoach.trainer import (
    APPENDED_ARTIFACTS,
    LOSS_HEADER,
    METRICS_HEADER,
    EpisodeAccumulator,
    EvalReport,
    RolloutBuffer,
    TrainConfig,
    Trainer,
    clip_schedule,
    gae_advantages,
    metrics_row,
    normalize_variant,
    sigma_schedule,
    window_steps,
)


def merge_scenario(n_background=2):
    return ScenarioConfig(kind="merge", n_background=n_background)


def small_cfg(**overrides):
    base = dict(total_steps=200, eval_interval=50, eval_episodes=2,
                rollout_size=50, batch_size=25, epochs=2, seed=0,
                variant="LA-PPO")
    base.update(overrides)
    return TrainConfig(**base)


def collect(tr):
    """Fill a fresh trainer's buffer once, as run() does before its first update."""
    tr.run(stop_after_step=tr.cfg.rollout_size)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_variant_normalization(self):
        assert normalize_variant("la-ppo") == "LA-PPO"
        assert normalize_variant("V_PPO") == "V-PPO"
        assert TrainConfig(variant="a-ppo").variant == "A-PPO"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            TrainConfig(variant="q-ppo")

    def test_window_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError, match="teacher_window_fraction"):
                small_cfg(teacher_window_fraction=bad).validate()

    def test_batch_larger_than_rollout_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            small_cfg(rollout_size=16, batch_size=32).validate()


class TestSchedules:
    def test_clip_endpoints(self):
        cfg = TrainConfig()
        assert clip_schedule(0, cfg) == pytest.approx(0.2)
        assert clip_schedule(cfg.total_steps, cfg) == pytest.approx(0.02)
        assert clip_schedule(2 * cfg.total_steps, cfg) == pytest.approx(0.02)

    def test_clip_monotone(self):
        cfg = TrainConfig()
        grid = [clip_schedule(t, cfg) for t in range(0, cfg.total_steps, 5000)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_sigma_endpoints_and_midpoint(self):
        cfg = TrainConfig()
        w = window_steps(cfg)
        assert sigma_schedule(0, cfg) == pytest.approx(cfg.sigma_initial)
        assert sigma_schedule(w, cfg) == pytest.approx(cfg.sigma_final)
        mid = (cfg.sigma_initial + cfg.sigma_final) / 2.0
        assert sigma_schedule(w / 2, cfg) == pytest.approx(mid)
        assert sigma_schedule(10 * w, cfg) == pytest.approx(cfg.sigma_final)

    def test_sigma_monotone(self):
        cfg = TrainConfig()
        grid = [sigma_schedule(t, cfg) for t in range(0, 2 * window_steps(cfg), 500)]
        assert all(a <= b for a, b in zip(grid, grid[1:]))

    def test_window_steps_exact(self):
        assert window_steps(small_cfg(total_steps=200)) == 20
        assert window_steps(TrainConfig()) == 10_000


def gae_from_rows(rewards, values, next_values, dones, gamma, lam, truncated=None):
    """Advantages as update() computes them: targets first, then GAE."""
    targets = value_targets(rewards, next_values, dones, gamma, truncated=truncated)
    return gae_advantages(targets, values, dones, gamma, lam)


class TestGae:
    def test_hand_computed_with_terminal_cut(self):
        # gamma 0.5, lam 0.5: deltas are [1.0, 1.0, 2.5]; the done at t=1
        # blocks both bootstrap and carry, so adv = [1.25, 1.0, 2.5]
        adv = gae_from_rows(rewards=[1.0, 2.0, 3.0], values=[0.5, 1.0, 1.5],
                            next_values=[1.0, 1.5, 2.0], dones=[False, True, False],
                            gamma=0.5, lam=0.5)
        np.testing.assert_allclose(adv, [1.25, 1.0, 2.5], atol=1e-12)

    def test_hand_computed_with_truncated_row(self):
        # same rows as above, but the done at t=1 is a time limit: its delta
        # bootstraps, 2.0 + 0.5 * 1.5 - 1.0 = 1.75, and the carry from t=2
        # (a new episode) is still cut, so adv = [1.0 + 0.25 * 1.75, 1.75, 2.5]
        adv = gae_from_rows(rewards=[1.0, 2.0, 3.0], values=[0.5, 1.0, 1.5],
                            next_values=[1.0, 1.5, 2.0], dones=[False, True, False],
                            gamma=0.5, lam=0.5, truncated=[False, True, False])
        np.testing.assert_allclose(adv, [1.4375, 1.75, 2.5], atol=1e-12)

    def test_undiscounted_chain_accumulates(self):
        adv = gae_from_rows(rewards=[0.0, 0.0], values=[0.0, 0.0],
                            next_values=[5.0, 10.0], dones=[False, False],
                            gamma=1.0, lam=1.0)
        np.testing.assert_allclose(adv, [15.0, 10.0], atol=1e-12)

    def test_residual_is_target_minus_value(self):
        # lam 0 leaves only the one-step residual of each row
        adv = gae_advantages(targets=[3.0, -1.0], values=[1.0, 0.5], dones=[False, True],
                             gamma=0.9, lam=0.0)
        np.testing.assert_allclose(adv, [2.0, -1.5], atol=1e-12)


class TestRolloutBuffer:
    def test_fill_and_overflow(self):
        buf = RolloutBuffer(2, 3)
        row = dict(obs=np.zeros(3), action=1, logp=-1.0, reward=0.5, value=0.1,
                   done=False, next_obs=np.ones(3))
        buf.add(**row)
        assert not buf.full
        buf.add(**row)
        assert buf.full
        with pytest.raises(UsageError):
            buf.add(**row)

    def test_teacher_columns(self):
        buf = RolloutBuffer(2, 3)
        buf.add(obs=np.zeros(3), action=1, logp=0.0, reward=0.0, value=0.0,
                done=False, next_obs=np.zeros(3), teacher_action=2)
        buf.add(obs=np.zeros(3), action=1, logp=0.0, reward=0.0, value=0.0,
                done=False, next_obs=np.zeros(3))
        assert buf.teacher_actions[0] == 2
        assert buf.teacher_actions[1] == -1

    def test_clear_resets_labels(self):
        buf = RolloutBuffer(1, 3)
        buf.add(obs=np.zeros(3), action=0, logp=0.0, reward=0.0, value=0.0,
                done=False, next_obs=np.zeros(3), teacher_action=1)
        buf.clear()
        assert buf.n == 0
        assert buf.teacher_actions[0] == -1

    def test_arrays_lists_every_column(self):
        # a column left out of ARRAYS would silently not survive a checkpoint
        buf = RolloutBuffer(2, 3)
        columns = [k for k, v in vars(buf).items() if isinstance(v, np.ndarray)]
        assert sorted(RolloutBuffer.ARRAYS) == sorted(columns)


class TestEpisodeAccumulator:
    def test_episode_meta_lists_every_field(self):
        # a field left out of to_meta would silently not survive a checkpoint;
        # z_list travels as the episode.z array instead
        fields = {f.name for f in dataclasses.fields(EpisodeAccumulator)}
        assert set(EpisodeAccumulator().to_meta()) == fields - {"z_list"}


class TestVariantGating:
    def test_la_ppo_builds_scripted_teacher(self):
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO"))
        assert tr.teacher is not None
        assert tr.policy.variant == "LA-PPO"
        assert "attn_out.w" in tr.policy.params and "teacher_pi.w" in tr.policy.params

    def test_a_ppo_no_teacher_fusion_on(self):
        tr = Trainer(merge_scenario(), small_cfg(variant="A-PPO"))
        assert tr.teacher is None
        assert tr.policy.variant == "A-PPO"
        assert "attn_out.w" in tr.policy.params and "teacher_pi.w" not in tr.policy.params

    def test_v_ppo_no_teacher_no_fusion(self):
        tr = Trainer(merge_scenario(), small_cfg(variant="V-PPO"))
        assert tr.teacher is None
        assert tr.policy.variant == "V-PPO"
        assert "f_t.w1" not in tr.policy.params and "attn_out.w" not in tr.policy.params
        assert set(tr.adam.m) == set(tr.policy.params)

    def test_v_ppo_rejects_teacher(self):
        teacher = TeacherAgent(ScriptedBackend())
        with pytest.raises(ConfigError, match="variant"):
            Trainer(merge_scenario(), small_cfg(variant="V-PPO"), teacher=teacher)

    def test_la_ppo_rejects_teacher_on_other_risk_params(self):
        # a resume rebuilds the teacher on the run's risk params, and the
        # teacher reads the trainer's assessments
        teacher = TeacherAgent(ScriptedBackend(), RiskParams(conflict_radius=12.0, horizon=3.0))
        with pytest.raises(ConfigError, match="risk params"):
            Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), teacher=teacher)
        with pytest.raises(ConfigError, match="risk params"):
            Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), RiskParams(beta=2.0),
                    teacher=TeacherAgent(ScriptedBackend()))
        same = TeacherAgent(ScriptedBackend(), RiskParams(beta=2.0))
        assert Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), RiskParams(beta=2.0),
                       teacher=same).teacher is same


class TestCollect:
    def test_fills_buffer_and_counts_episodes(self):
        cfg = small_cfg(total_steps=100, eval_interval=1000, rollout_size=60,
                        batch_size=20, variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg)
        collect(tr)
        assert tr.buffer.n == 60
        assert tr.global_step == 60
        # a merge episode lasts at most the 30-step horizon
        assert tr.episode_index >= 60 // 30

    def test_time_limit_marks_truncated(self):
        # two decision steps cannot reach x = 240 m or the ramp end from x = 20 m,
        # so every episode ends on the time limit
        scenario = ScenarioConfig(kind="merge", n_background=0, horizon=2)
        tr = Trainer(scenario, small_cfg(variant="V-PPO"))
        collect(tr)
        buf = tr.buffer
        assert buf.dones[:buf.n].sum() == 25
        np.testing.assert_array_equal(buf.truncated[:buf.n], buf.dones[:buf.n])

    def test_window_gates_teacher_labels(self):
        # window is int(0.1 * 100) = 10 steps of a 30-step rollout
        cfg = small_cfg(total_steps=100, eval_interval=1000, rollout_size=30,
                        batch_size=10, variant="LA-PPO")
        tr = Trainer(merge_scenario(), cfg)
        collect(tr)
        labeled = tr.buffer.teacher_actions[:30] >= 0
        assert labeled[:10].all()
        assert not labeled[10:].any()
        assert tr.teacher.decision_queries == 10

    def test_v_ppo_never_labels(self):
        cfg = small_cfg(total_steps=100, eval_interval=1000, rollout_size=20,
                        batch_size=10, variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg)
        collect(tr)
        assert (tr.buffer.teacher_actions[:20] == -1).all()

    def test_env_fault_aborts_with_diagnostic(self):
        cfg = small_cfg(total_steps=100, eval_interval=1000, rollout_size=10,
                        batch_size=5, variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg)

        def boom(maneuver):
            raise ValueError("wheels fell off")

        tr.env.step = boom
        with pytest.raises(RuntimeError, match="environment fault"):
            collect(tr)

    def test_window_episode_feeds_teacher_memory(self):
        cfg = small_cfg(total_steps=60, eval_interval=1000, rollout_size=60,
                        batch_size=20, teacher_window_fraction=0.9,
                        variant="LA-PPO")
        tr = Trainer(merge_scenario(), cfg)
        collect(tr)
        assert tr.episode_index >= 1
        assert len(tr.teacher.memory) >= 1


class PhaseCounts:
    """Counts `risk.assess` calls and env steps by the phase of a run they fall
    in: "evaluate", "_write_traces", or "collect" for everything else. The
    teacher assesses and observes through its own module's bindings, which
    are counted apart, in `teacher`. `episode_starts` holds the global step
    at which each training episode began."""

    def __init__(self, monkeypatch):
        self.phase = "collect"
        self.steps, self.assessed, self.teacher = Counter(), Counter(), Counter()
        self.episode_starts = []
        step, assess, begin = TrafficEnv.step, risk.assess, Trainer._begin_episode

        def counted_step(env, maneuver):
            self.steps[self.phase] += 1
            return step(env, maneuver)

        def counted_assess(state, params):
            self.assessed[self.phase] += 1
            return assess(state, params)

        def counted_begin(trainer):
            self.episode_starts.append(trainer.global_step)
            return begin(trainer)

        monkeypatch.setattr(TrafficEnv, "step", counted_step)
        monkeypatch.setattr(risk, "assess", counted_assess)
        monkeypatch.setattr(Trainer, "_begin_episode", counted_begin)
        for name in ("assess", "observe"):
            monkeypatch.setattr(agent_module, name, self._counted(name, getattr(agent_module, name)))
        for name in ("evaluate", "_write_traces"):
            monkeypatch.setattr(Trainer, name, self._phase(name, getattr(Trainer, name)))

    def _counted(self, name, function):
        def counted(*args):
            self.teacher[name] += 1
            return function(*args)
        return counted

    def _phase(self, name, method):
        def phased(trainer, *args, **kwargs):
            self.phase = name
            try:
                return method(trainer, *args, **kwargs)
            finally:
                self.phase = "collect"
        return phased


class TestRiskAssessment:
    """The trainer assesses risk only where it reads it: each evaluation step,
    for delta_ttcp, and each step the teacher labels, for memory and
    reflection. The simulator step assesses nothing."""

    def test_a_ppo_assesses_evaluation_steps_only(self, monkeypatch, tmp_path):
        counts = PhaseCounts(monkeypatch)
        tr = Trainer(merge_scenario(), small_cfg(variant="A-PPO"), out_dir=tmp_path)
        tr.run()
        assert counts.steps["collect"] == 200
        assert counts.steps["evaluate"] > 0 and counts.steps["_write_traces"] > 0
        assert counts.assessed == Counter(evaluate=counts.steps["evaluate"])
        assert not counts.teacher
        assert tr._ep.actions == tr._ep.omegas == tr._ep.taus == []

    def test_la_ppo_collection_assesses_each_labelled_step(self, monkeypatch, tmp_path):
        """The teacher reads the trainer's observation of each labelled state,
        and its assessment of every one but an episode's first."""
        counts = PhaseCounts(monkeypatch)
        cfg = small_cfg(variant="LA-PPO", teacher_window_fraction=0.3)
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run()
        assert tr.teacher.decision_queries == window_steps(cfg) == 60
        assert counts.assessed == Counter(collect=60, evaluate=counts.steps["evaluate"])
        labelled_starts = sum(start < 60 for start in counts.episode_starts)
        assert 1 < labelled_starts < 60
        assert counts.teacher == Counter(assess=labelled_starts)

    def test_resumed_run_assesses_its_first_labelled_state(self, monkeypatch, tmp_path):
        """A checkpoint holds no assessment, so the teacher works out the
        first labelled state after a resume itself."""
        cfg = small_cfg(variant="LA-PPO", teacher_window_fraction=0.3)
        Trainer(merge_scenario(), cfg, out_dir=tmp_path).run(stop_after_step=40)
        part = Trainer.resume(tmp_path / "checkpoint_step40.dckp")
        assert part._ep.length > 0
        counts = PhaseCounts(monkeypatch)
        part.run(stop_after_step=60)
        labelled_starts = sum(start < 60 for start in counts.episode_starts)
        assert counts.teacher == Counter(assess=1 + labelled_starts)

    def test_episode_lists_cover_the_labelled_prefix(self):
        """The teacher labels steps 0..44; the episode open at step 45 began
        inside the window, so only its first steps are labelled."""
        cfg = small_cfg(variant="LA-PPO", total_steps=150, eval_interval=1000,
                        rollout_size=150, batch_size=50, teacher_window_fraction=0.3)
        tr = Trainer(merge_scenario(), cfg)
        crossed = False
        while tr.global_step < 90:
            tr._collect_one_step()
            ep = tr._ep
            n = len(ep.z_list)
            assert len(ep.actions) == len(ep.omegas) == len(ep.taus) == n
            crossed |= 0 < n < ep.length
        assert crossed


class TestUpdate:
    def _collected(self, variant="V-PPO", **overrides):
        cfg = small_cfg(total_steps=100, eval_interval=1000, rollout_size=40,
                        batch_size=20, epochs=2, variant=variant, **overrides)
        tr = Trainer(merge_scenario(), cfg)
        collect(tr)
        return tr

    def test_empty_buffer_rejected(self):
        tr = Trainer(merge_scenario(), small_cfg(variant="V-PPO"))
        with pytest.raises(UsageError):
            tr.update()

    def test_report_count_and_buffer_cleared(self):
        tr = self._collected()
        reports = tr.update()
        assert len(reports) == 2 * (40 // 20)
        assert tr.buffer.n == 0
        assert tr.updates_done == 1

    def test_parameters_move(self):
        tr = self._collected()
        before = {k: p.data.copy() for k, p in tr.policy.params.items()}
        tr.update()
        moved = any(not np.array_equal(before[k], p.data)
                    for k, p in tr.policy.params.items())
        assert moved

    def test_teacher_rows_produce_guidance_losses(self):
        tr = self._collected(variant="LA-PPO", teacher_window_fraction=0.5)
        reports = tr.update()
        assert any(r.distill_loss != 0.0 for r in reports)

    def test_v_ppo_reports_no_guidance_terms(self):
        tr = self._collected(variant="V-PPO")
        for r in tr.update():
            assert r.distill_loss == 0.0
            assert r.kl_penalty == 0.0

    def test_every_parameter_has_a_gradient_at_each_adam_step(self, monkeypatch):
        # past the teacher window no loss reaches teacher_pi.*, yet Adam still
        # moves it on its momentum, so it must hold a (zero) gradient too
        seen = []

        def spy(params, state, lr):
            seen.append({k: p.grad for k, p in params.items()})
            adam_step(params, state, lr)

        monkeypatch.setattr(trainer_module, "adam_step", spy)
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO", total_steps=100))
        tr.run()
        assert len(seen) == tr.updates_done * 2 * (50 // 25)
        assert all(g is not None for grads in seen for g in grads.values())
        assert not np.any(seen[-1]["teacher_pi.w"])


class TestEvaluate:
    def _trainer(self):
        cfg = small_cfg(total_steps=100, eval_interval=1000, rollout_size=10,
                        batch_size=5, variant="LA-PPO")
        return Trainer(merge_scenario(), cfg)

    def test_deterministic_report(self):
        tr = self._trainer()
        a = tr.evaluate()
        b = tr.evaluate()
        assert a == b

    def test_report_invariants(self):
        report = self._trainer().evaluate()
        assert 0.0 <= report.success_rate <= 1.0
        assert report.decision_time > 0
        assert math.isfinite(report.delta_ttcp)

    def test_teacher_not_queried(self):
        tr = self._trainer()
        collect(tr)
        before = tr.teacher.decision_queries
        tr.evaluate()
        assert tr.teacher.decision_queries == before

    def test_training_episode_untouched(self):
        tr = self._trainer()
        collect(tr)
        snapshot = tr.env.state.state_dict()
        tr.evaluate()
        assert tr.env.state.state_dict() == snapshot

    def test_single_episode_reward_matches_manual_rollout(self):
        tr = self._trainer()
        report = tr.evaluate(n_episodes=1)
        env = TrafficEnv(merge_scenario())
        flat = env.reset(seed=tr._eval_seed(0)).vector
        total, done = 0.0, False
        while not done:
            action = np.argmax(tr.policy.infer(flat)[0][0])
            out = env.step(Maneuver(action))
            total += out.reward
            flat = out.observation.vector
            done = out.done
        assert report.eval_reward == pytest.approx(total)


def step_record(action, env, out, risk_params):
    return (int(action), out.reward, sorted(out.events), out.observation.ego_speed,
            risk.assess(env.state, risk_params).tau_min)


def sequential_greedy(tr, n):
    """Reference: each eval episode alone, one B=1 argmax per decision."""
    episodes = []
    for e in range(n):
        env = TrafficEnv(tr.scenario)
        flat = env.reset(seed=tr._eval_seed(e)).vector
        steps, done = [], False
        while not done:
            action = np.argmax(tr.policy.infer(flat)[0][0])
            out = env.step(Maneuver(action))
            steps.append(step_record(action, env, out, tr.risk_params))
            flat = out.observation.vector
            done = out.done
        episodes.append(steps)
    return episodes


def sequential_traces(tr) -> bytes:
    """Reference traces.jsonl: episode after episode, one B=1 argmax per step."""
    lines = []
    env = TrafficEnv(tr.scenario)
    for e in range(tr.cfg.eval_episodes):
        flat = env.reset(seed=tr._eval_seed(e)).vector
        done = False
        while not done:
            pre = env.state.state_dict()
            action = np.argmax(tr.policy.infer(flat)[0][0])
            out = env.step(Maneuver(action))
            record = trace_record(env.state, Maneuver(action), out)
            record["episode"] = e
            record["state"] = pre
            lines.append(json.dumps(record, sort_keys=True) + "\n")
            flat = out.observation.vector
            done = out.done
    return "".join(lines).encode()


class TestLockstepEvaluation:
    """Batched greedy episodes against the same episodes run one at a time."""

    N = 6

    def _trainer(self, out_dir=None):
        # merge with 5 vehicles: seed 2's untrained A-PPO policy ends its six
        # eval episodes after 23, 2, 28, 15, 21 and 15 steps, by success and
        # by collision. Seeds 0 and 1 end all six the same way, so their
        # lockstep batches never see episodes with different endings.
        cfg = small_cfg(total_steps=100, eval_interval=100, eval_episodes=self.N,
                        rollout_size=50, batch_size=25, variant="A-PPO", seed=2)
        return Trainer(merge_scenario(n_background=5), cfg, out_dir=out_dir)

    def test_matches_sequential_rollouts(self, monkeypatch):
        tr = self._trainer()
        want = sequential_greedy(tr, self.N)
        lengths = [len(ep) for ep in want]
        assert len(set(lengths)) > 2
        assert len({ep[-1][2][0] for ep in want}) > 1

        logs = {}
        reset, step = TrafficEnv.reset, TrafficEnv.step

        def logged_reset(env, seed=None):
            env.log = logs.setdefault(seed, [])
            return reset(env, seed=seed)

        def logged_step(env, maneuver):
            out = step(env, maneuver)
            env.log.append(step_record(maneuver, env, out, tr.risk_params))
            return out

        batches = []
        infer = tr.policy.infer

        def counted_infer(obs):
            batches.append(len(obs))
            return infer(obs)

        monkeypatch.setattr(TrafficEnv, "reset", logged_reset)
        monkeypatch.setattr(TrafficEnv, "step", logged_step)
        monkeypatch.setattr(tr.policy, "infer", counted_infer)
        report = tr.evaluate(self.N)

        returns = []
        for e, ep in enumerate(want):
            assert logs[tr._eval_seed(e)] == ep, e  # every step's action and outcome
            ret = 0.0
            for step_ in ep:
                ret += step_[1]
            returns.append(ret)
        assert report.eval_reward == float(np.mean(returns))
        assert report.success_rate == sum("success" in ep[-1][2] for ep in want) / self.N
        assert report.avg_speed == float(np.mean([np.mean([s[3] for s in ep]) for ep in want]))
        assert report.delta_ttcp == float(np.mean(
            [delta_ttcp_metric([s[4] for s in ep], tr.risk_params) for ep in want]))
        # one forward per step of the longest episode, over the episodes still running
        assert batches == [sum(n > t for n in lengths) for t in range(max(lengths))]

    def test_traces_match_sequential_writer(self, tmp_path):
        tr = self._trainer(out_dir=tmp_path)
        tr.run()
        assert (tmp_path / "traces.jsonl").read_bytes() == sequential_traces(tr)


class TestRunArtifacts:
    def test_metrics_row_count_and_columns(self, tmp_path):
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), out_dir=tmp_path)
        reports = tr.run()
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 200 // 50
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == [50, 100, 150, 200]
        assert len(reports) == 4
        row = lines[1].split(",")
        assert row[1] == "LA-PPO"
        assert row[2] == "merge"
        assert row[8] == "0"

    def test_teacher_query_audit_exact(self, tmp_path):
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), out_dir=tmp_path)
        tr.run()
        assert tr.teacher.decision_queries == window_steps(tr.cfg)

    def test_loss_csv_schedules_at_buffer_mean(self, tmp_path):
        cfg = small_cfg(variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run()
        lines = (tmp_path / "losses.csv").read_text().splitlines()
        assert lines[0] == LOSS_HEADER
        assert len(lines) == 1 + tr.updates_done
        first = lines[1].split(",")
        # first rollout covers steps 0..49, so schedules see their mean, 24.5
        assert first[9] == f"{clip_schedule(24.5, cfg):.6f}"
        assert first[10] == f"{sigma_schedule(24.5, cfg):.6f}"

    def test_final_artifacts_exist(self, tmp_path):
        import json

        tr = Trainer(merge_scenario(), small_cfg(variant="V-PPO"), out_dir=tmp_path)
        tr.run()
        assert (tmp_path / "checkpoint_final.dckp").exists()
        episodes = [json.loads(l) for l in (tmp_path / "episodes.jsonl").read_text().splitlines()]
        assert len(episodes) == tr.episode_index
        traces = [json.loads(l) for l in (tmp_path / "traces.jsonl").read_text().splitlines()]
        assert {t["episode"] for t in traces} == {0, 1}
        assert all("state" in t and "maneuver" in t for t in traces)

    @pytest.mark.parametrize("rollout_size", [50, 64], ids=["full-buffer", "partial-rollout"])
    def test_final_row_scores_the_saved_policy(self, tmp_path, rollout_size):
        """The last evaluation comes after the run's last update, so the final
        metrics row, checkpoint_final.dckp and traces.jsonl score one policy.
        With 50-step rollouts step 200 fills the buffer; with 64-step ones
        the run ends on a partial rollout of 8 steps. In both, the last update
        changes seed 1's greedy LA-PPO episodes, so an evaluation before it
        would write another row."""
        cfg = small_cfg(variant="LA-PPO", seed=1, rollout_size=rollout_size)
        Trainer(merge_scenario(), cfg, out_dir=tmp_path).run()
        final_row = (tmp_path / "metrics.csv").read_text().splitlines()[-1]
        report = Trainer.resume(tmp_path / "checkpoint_final.dckp").evaluate()
        saved_row = metrics_row(report, cfg.variant, "merge", cfg.seed)
        assert (drop_column(f"{METRICS_HEADER}\n{final_row}", "decision_time_s")
                == drop_column(f"{METRICS_HEADER}\n{saved_row}", "decision_time_s"))
        episodes = {}
        for line in (tmp_path / "traces.jsonl").read_text().splitlines():
            record = json.loads(line)
            episodes.setdefault(record["episode"], []).append(record)
        assert report.eval_reward == float(np.mean(
            [sum(r["reward"] for r in ep) for ep in episodes.values()]))
        assert report.success_rate == (
            sum("success" in ep[-1]["events"] for ep in episodes.values()) / len(episodes))

    def test_fresh_run_refuses_a_used_out_dir(self, tmp_path):
        """A second run from step 0 into the same directory would append its
        rows to the first run's; it stops before writing anything."""
        cfg = small_cfg(variant="V-PPO", total_steps=64, eval_interval=32, rollout_size=32,
                        batch_size=16)
        Trainer(merge_scenario(), cfg, out_dir=tmp_path).run()
        before = {name: (tmp_path / name).read_bytes() for name in APPENDED_ARTIFACTS}
        second = Trainer(merge_scenario(), dataclasses.replace(cfg), out_dir=tmp_path)
        with pytest.raises(ConfigError, match="metrics.csv"):
            second.run()
        assert second.global_step == 0
        assert {name: (tmp_path / name).read_bytes() for name in APPENDED_ARTIFACTS} == before
        assert len(before["metrics.csv"].splitlines()) == 1 + 2
        assert len(before["losses.csv"].splitlines()) == 1 + 2

    @pytest.mark.parametrize("name", APPENDED_ARTIFACTS)
    def test_each_appended_file_marks_a_used_out_dir(self, tmp_path, name):
        (tmp_path / name).write_text("")
        with pytest.raises(ConfigError, match=name):
            Trainer(merge_scenario(), small_cfg(variant="V-PPO"), out_dir=tmp_path).run()

    def test_metrics_byte_identical_across_runs(self, tmp_path):
        cfg = small_cfg(variant="LA-PPO")
        Trainer(merge_scenario(), cfg, out_dir=tmp_path / "a").run()
        Trainer(merge_scenario(), dataclasses.replace(cfg), out_dir=tmp_path / "b").run()
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b


def drop_column(text: str, column: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    i = rows[0].index(column)
    return "".join(",".join(row[:i] + row[i + 1:]) + "\n" for row in rows)


def _openblas_call(name: str, restype):
    """Call the no-argument function `name` of the scipy-openblas that numpy
    bundles, or return None when numpy bundles none."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        function = getattr(ctypes.CDLL(str(lib)), name, None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            return function()
    return None


def openblas_core() -> str | None:
    """The kernel set the OpenBLAS that numpy bundles has loaded, such as
    "SkylakeX" or "Haswell" (OPENBLAS_CORETYPE can force one), or None when
    numpy bundles no scipy-openblas."""
    core = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return None if core is None else core.decode()


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy bundles
    (OPENBLAS_NUM_THREADS can set it), or None when numpy bundles no
    scipy-openblas."""
    return _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)


# sha256 prefixes of the artifacts of one short training run per variant (two
# updates, the second past the teacher window, and two evaluations of two
# episodes), with metrics.csv less its wall-clock column. A last-bit change in
# forward, backward, Adam or infer changes one of these; one that does so on
# purpose updates them and says why. Every gemm and the sampled actions read
# the BLAS, so they hold for numpy 2.4.6 on scipy-openblas 0.3.31. These four
# read the same on each OpenBLAS core in FINAL_CHECKPOINT_DIGESTS.
TRAINING_DIGESTS = {
    "V-PPO": {
        "losses.csv": "80db8d03d25c5920",
        "episodes.jsonl": "5cc710ef79e7fb02",
        "traces.jsonl": "10faa2f867d06f63",
        "metrics.csv": "0be9f649c443ca20",
    },
    "A-PPO": {
        "losses.csv": "af7611125258858a",
        "episodes.jsonl": "9510f62d82a41f4a",
        "traces.jsonl": "5b248fd2252fa987",
        "metrics.csv": "e1cd69bec7044b31",
    },
    "LA-PPO": {
        "losses.csv": "8adccb1d91c4983b",
        "episodes.jsonl": "60067e0d23a4ccfe",
        "traces.jsonl": "ca27205b9c3f174e",
        "metrics.csv": "5fe6bca0262855f0",
    },
}

# The same run's checkpoint_final.dckp by the OpenBLAS core `openblas_core`
# reads, then by variant: its weights differ in their last bits from one
# kernel set to another. OPENBLAS_CORETYPE=Zen loads the Haswell kernels.
FINAL_CHECKPOINT_DIGESTS = {
    "SkylakeX": {"V-PPO": "9028de7ae26acd60", "A-PPO": "23c4ab8ce474090d",
                 "LA-PPO": "a9f258cd10152425"},
    "Haswell": {"V-PPO": "612f61510473d675", "A-PPO": "66aab1ca56252015",
                "LA-PPO": "bd14f21a540f4574"},
    "Sandybridge": {"V-PPO": "a32ea407842364db", "A-PPO": "fb3a65e7303a0473",
                    "LA-PPO": "247613656f977b35"},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_outputs_are_pinned(variant, tmp_path):
    core = openblas_core()
    assert core in FINAL_CHECKPOINT_DIGESTS, (
        f"OpenBLAS core {core!r} has no pinned checkpoint digests; "
        f"pinned cores: {sorted(FINAL_CHECKPOINT_DIGESTS)}")
    cfg = TrainConfig(total_steps=256, eval_interval=128, eval_episodes=2, rollout_size=128,
                      batch_size=64, epochs=2, teacher_window_fraction=0.5, seed=0,
                      variant=variant)
    tr = Trainer(merge_scenario(5), cfg, out_dir=tmp_path)
    tr.run()
    assert tr.updates_done == 2 and len(tr.eval_reports) == 2
    want = {**TRAINING_DIGESTS[variant],
            "checkpoint_final.dckp": FINAL_CHECKPOINT_DIGESTS[core][variant]}
    digests = {}
    for name in want:
        data = (tmp_path / name).read_bytes()
        if name == "metrics.csv":
            data = drop_column(data.decode(), "decision_time_s").encode()
        digests[name] = hashlib.sha256(data).hexdigest()[:16]
    assert digests == want


class TestCheckpointResume:
    def test_no_gradients_after_run(self, tmp_path):
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), out_dir=tmp_path)
        tr.run()
        assert tr.updates_done > 0
        assert all(p.grad is None for _, p in tr.policy.params.items())

    def test_resumed_evaluation_holds_no_gradients(self, tmp_path):
        Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), out_dir=tmp_path).run()
        resumed = Trainer.resume(tmp_path / "checkpoint_final.dckp")
        resumed.evaluate()
        assert all(p.grad is None for _, p in resumed.policy.params.items())

    def test_stop_resume_matches_uninterrupted(self, tmp_path):
        cfg = small_cfg(variant="LA-PPO")
        Trainer(merge_scenario(), cfg, out_dir=tmp_path / "full").run()
        partial = Trainer(merge_scenario(), dataclasses.replace(cfg),
                          out_dir=tmp_path / "part")
        partial.run(stop_after_step=90)
        assert partial.global_step == 90
        ckpt = tmp_path / "part" / "checkpoint_step90.dckp"
        assert ckpt.exists()
        resumed = Trainer.resume(ckpt, out_dir=tmp_path / "resumed")
        resumed.run()
        full_rows = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        resumed_rows = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
        tail = [r for r in full_rows[1:] if int(r.split(",")[0]) > 90]
        assert resumed_rows[1:] == tail
        assert tail
        # the stop falls inside a rollout, so the first resumed update derives
        # its schedule midpoint from a buffer filled on both sides of the stop
        full_losses = (tmp_path / "full" / "losses.csv").read_text().splitlines()
        resumed_losses = (tmp_path / "resumed" / "losses.csv").read_text().splitlines()
        after = [r for r in full_losses[1:] if int(r.split(",")[1]) > 90]
        assert resumed_losses[1:] == after
        assert after

    @pytest.mark.parametrize("stop", [40, 150])
    def test_stop_in_and_past_the_window_matches_uninterrupted(self, tmp_path, stop):
        """Stopped with an episode open inside the teacher window (steps 0..99)
        or past it, and resumed into its own directory, an LA-PPO run leaves
        the files an uninterrupted run writes."""
        cfg = small_cfg(variant="LA-PPO", teacher_window_fraction=0.5)
        Trainer(merge_scenario(), cfg, out_dir=tmp_path / "full").run()
        part = Trainer(merge_scenario(), dataclasses.replace(cfg), out_dir=tmp_path / "part")
        part.run(stop_after_step=stop)
        assert part._obs is not None and part._ep.length > 0
        assert bool(part._ep.z_list) == (stop < window_steps(cfg))
        Trainer.resume(tmp_path / "part" / f"checkpoint_step{stop}.dckp",
                       out_dir=tmp_path / "part").run()
        for name in (*APPENDED_ARTIFACTS, "traces.jsonl", "memory.json", "checkpoint_final.dckp"):
            full, part_ = ((tmp_path / d / name).read_bytes() for d in ("full", "part"))
            if name == "metrics.csv":
                full, part_ = (drop_column(t.decode(), "decision_time_s") for t in (full, part_))
            assert part_ == full, name

    def test_resume_into_its_own_out_dir_appends(self, tmp_path):
        """A run stopped and resumed into its own directory leaves the rows an
        uninterrupted run writes."""
        cfg = small_cfg(variant="V-PPO")
        Trainer(merge_scenario(), cfg, out_dir=tmp_path / "full").run()
        Trainer(merge_scenario(), dataclasses.replace(cfg), out_dir=tmp_path / "part").run(stop_after_step=90)
        Trainer.resume(tmp_path / "part" / "checkpoint_step90.dckp", out_dir=tmp_path / "part").run()
        for name in APPENDED_ARTIFACTS:
            full, part = ((tmp_path / d / name).read_text() for d in ("full", "part"))
            if name == "metrics.csv":
                full, part = (drop_column(t, "decision_time_s") for t in (full, part))
            assert part == full, name

    def test_resume_restores_counters_and_teacher(self, tmp_path):
        cfg = small_cfg(variant="LA-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path / "run")
        tr.run(stop_after_step=60)
        ckpt = tmp_path / "run" / "checkpoint_step60.dckp"
        resumed = Trainer.resume(ckpt)
        assert resumed.global_step == 60
        assert resumed.buffer.n == tr.buffer.n
        assert resumed.episode_index == tr.episode_index
        assert resumed.teacher.decision_queries == tr.teacher.decision_queries
        assert resumed.teacher.state_dict() == tr.teacher.state_dict()
        for k, p in tr.policy.params.items():
            np.testing.assert_array_equal(resumed.policy.params[k].data, p.data)

    def test_resume_restores_teacher_n_shot(self, tmp_path):
        cfg = small_cfg(variant="LA-PPO", total_steps=3000, eval_interval=1000,
                        rollout_size=64, batch_size=32)
        teacher = TeacherAgent(ScriptedBackend(), n_shot=5)
        tr = Trainer(merge_scenario(), cfg, teacher=teacher, out_dir=tmp_path)
        tr.run(stop_after_step=250)
        assert tr.global_step + 1 < window_steps(cfg)
        assert len(tr.teacher.memory) >= 5
        resumed = Trainer.resume(tmp_path / "checkpoint_step250.dckp")
        assert resumed.teacher.n_shot == 5
        resumed.run(stop_after_step=251)
        assert resumed.teacher.last_prompt.user.count("\nExample ") == 5

    def test_resume_warns_when_teacher_was_not_scripted(self, tmp_path):
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), out_dir=tmp_path)
        tr.run(stop_after_step=50)
        arrays, meta = load_checkpoint(str(tmp_path / "checkpoint_step50.dckp"))
        meta["teacher"]["kind"] = "remote"
        doctored = tmp_path / "remote.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        with pytest.warns(UserWarning, match="'remote' backend"):
            resumed = Trainer.resume(doctored)
        assert resumed.teacher.backend.kind == "scripted"
        assert resumed.evaluate(n_episodes=1).step == 50

    @pytest.mark.parametrize("key,value,named", [
        ("kind", 5, "teacher.kind: expected str, got 5"),
        ("n_shot", 0, "teacher.n_shot: must be >= 1, got 0"),
        ("lessons", "abc", "teacher.lessons: expected a list, got 'abc'"),
        ("decision_queries", "x", "teacher.decision_queries: expected a number, got 'x'"),
        ("reflection_queries", 1.5, "teacher.reflection_queries: expected an integer, got 1.5"),
        ("prev_tau", "x", "teacher.prev_tau: expected a number, got 'x'"),
    ])
    def test_bad_teacher_block_fails_at_resume(self, tmp_path, key, value, named):
        tr = Trainer(merge_scenario(), small_cfg(variant="LA-PPO"), out_dir=tmp_path)
        tr.run(stop_after_step=50)
        arrays, meta = load_checkpoint(str(tmp_path / "checkpoint_step50.dckp"))
        meta["teacher"][key] = value
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        with pytest.raises(ConfigError) as caught:
            Trainer.resume(doctored)
        assert str(caught.value) == named

    def test_truncated_flags_survive_round_trip(self, tmp_path):
        cfg = small_cfg(variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg)
        tr.run(stop_after_step=30)
        tr.buffer.truncated[[3, 17]] = True
        tr.save(tmp_path / "ckpt.dckp")
        resumed = Trainer.resume(tmp_path / "ckpt.dckp")
        np.testing.assert_array_equal(resumed.buffer.truncated, tr.buffer.truncated)
        assert resumed.buffer.truncated.sum() == 2

    def test_save_resume_save_byte_identical(self, tmp_path):
        # stop inside the teacher window: the buffer is part full and the
        # open episode holds teacher state vectors
        cfg = small_cfg(variant="LA-PPO", total_steps=3000, eval_interval=1000,
                        rollout_size=64, batch_size=32)
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=150)
        assert tr.global_step < window_steps(cfg)
        assert 0 < tr.buffer.n < cfg.rollout_size
        ckpt = tmp_path / "checkpoint_step150.dckp"
        arrays, _ = load_checkpoint(str(ckpt))
        assert arrays["episode.z"].shape[0] > 0
        Trainer.resume(ckpt).save(tmp_path / "again.dckp")
        assert (tmp_path / "again.dckp").read_bytes() == ckpt.read_bytes()

    def test_previous_checkpoint_format_rejected(self, tmp_path):
        # stop inside the window, with a labelled episode open
        cfg = small_cfg(variant="LA-PPO", teacher_window_fraction=0.5)
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=40)
        arrays, meta = load_checkpoint(str(tmp_path / "checkpoint_step40.dckp"))
        assert meta["format"] == 8 and "z_steps" not in meta["episode"]
        # format 7's episode block also held z_steps, the step index of each
        # teacher query: 0 .. len(z_list) - 1
        meta["episode"]["z_steps"] = list(range(len(arrays["episode.z"])))
        assert meta["episode"]["z_steps"]
        meta["format"] = 7
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        with pytest.raises(CheckpointError, match="format: 7"):
            Trainer.resume(doctored)

    def test_checkpoint_stores_only_the_live_buffer_rows(self, tmp_path):
        cfg = small_cfg(variant="LA-PPO", teacher_window_fraction=0.5)
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=30)
        arrays, _ = load_checkpoint(str(tmp_path / "checkpoint_step30.dckp"))
        for name in RolloutBuffer.ARRAYS:
            assert np.array_equal(arrays[f"buffer.{name}"], getattr(tr.buffer, name)[:30]), name
        resumed = Trainer.resume(tmp_path / "checkpoint_step30.dckp")
        for name in RolloutBuffer.ARRAYS:
            assert np.array_equal(getattr(resumed.buffer, name), getattr(tr.buffer, name)), name
        Trainer(merge_scenario(), dataclasses.replace(cfg), out_dir=tmp_path / "whole").run()
        arrays, meta = load_checkpoint(str(tmp_path / "whole" / "checkpoint_final.dckp"))
        assert meta["buffer_n"] == 0
        assert all(len(arrays[f"buffer.{name}"]) == 0 for name in RolloutBuffer.ARRAYS)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        cfg = small_cfg(variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=50)
        ckpt = tmp_path / "checkpoint_step50.dckp"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            Trainer.resume(ckpt)

    def test_architecture_mismatch_rejected(self, tmp_path):
        cfg = small_cfg(variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=50)
        ckpt = tmp_path / "checkpoint_step50.dckp"
        arrays, meta = load_checkpoint(str(ckpt))
        meta["architecture"] = "fusion-v1:in7:embed8:heads1:act5:fused0"
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        with pytest.raises(CheckpointError, match="architecture"):
            Trainer.resume(doctored)

    def test_previous_architecture_version_rejected(self, tmp_path):
        cfg = small_cfg(variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=50)
        ckpt = tmp_path / "checkpoint_step50.dckp"
        arrays, meta = load_checkpoint(str(ckpt))
        assert meta["architecture"] == "fusion-v4:in42:embed128:heads2:act5:V-PPO"
        for previous in (
            "fusion-v2:in42:embed128:heads2:act5:fused0",  # all 19 tensors whatever the variant
            "fusion-v3:in42:embed128:heads2:act5:V-PPO",  # with the action-value head q
        ):
            meta["architecture"] = previous
            doctored = tmp_path / "doctored.dckp"
            save_checkpoint(str(doctored), arrays, meta)
            with pytest.raises(CheckpointError, match=f"checkpoint holds '{previous}'"):
                Trainer.resume(doctored)

    def test_periodic_checkpoints_written(self, tmp_path):
        cfg = small_cfg(variant="V-PPO", checkpoint_every_evals=2)
        Trainer(merge_scenario(), cfg, out_dir=tmp_path / "whole").run()
        # the cadence counts evaluations since step 0, across a resume too
        Trainer(merge_scenario(), cfg, out_dir=tmp_path / "split").run(stop_after_step=60)
        Trainer.resume(tmp_path / "split" / "checkpoint_step60.dckp",
                       out_dir=tmp_path / "split").run()

        def steps(run):
            return sorted(int(p.stem.removeprefix("checkpoint_step"))
                          for p in (tmp_path / run).glob("checkpoint_step*.dckp"))

        assert steps("whole") == [100, 200]
        assert steps("split") == [60, 100, 200]


class TestEvalReportShape:
    def test_fields(self):
        report = EvalReport(step=0, success_rate=0.5, eval_reward=1.0,
                            avg_speed=10.0, delta_ttcp=5.0, decision_time=0.001)
        assert report.step == 0
