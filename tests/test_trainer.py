"""Trainer tests: schedules, buffer, collection gating, updates, artifacts."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from drivecoach.errors import ConfigError, UsageError
from drivecoach import trainer as trainer_module
from drivecoach.nn import CheckpointError, adam_step, load_checkpoint, save_checkpoint
from drivecoach.policy import VARIANTS, value_targets
from drivecoach.risk import delta_ttcp_metric
from drivecoach.sim.engine import TrafficEnv, trace_record
from drivecoach.sim.scenarios import ScenarioConfig
from drivecoach.sim.vehicles import Maneuver
from drivecoach.teacher import ScriptedBackend, TeacherAgent
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
        flat = env.reset(seed=tr._eval_seed(0)).flat()
        total, done = 0.0, False
        while not done:
            action, _, _ = tr.policy.act(flat, greedy=True)
            out = env.step(Maneuver(action))
            total += out.reward
            flat = out.observation.flat()
            done = out.done
        assert report.eval_reward == pytest.approx(total)


def step_record(action, out):
    return (int(action), out.reward, sorted(out.events), out.observation.ego_speed,
            out.tau_min)


def sequential_greedy(tr, n):
    """Reference: each eval episode alone, one B=1 greedy act per decision."""
    episodes = []
    for e in range(n):
        env = TrafficEnv(tr.scenario, tr.risk_params)
        flat = env.reset(seed=tr._eval_seed(e)).flat()
        steps, done = [], False
        while not done:
            action, _, _ = tr.policy.act(flat, greedy=True)
            out = env.step(Maneuver(action))
            steps.append(step_record(action, out))
            flat = out.observation.flat()
            done = out.done
        episodes.append(steps)
    return episodes


def sequential_traces(tr) -> bytes:
    """Reference traces.jsonl: episode after episode, one B=1 greedy act per step."""
    lines = []
    env = TrafficEnv(tr.scenario, tr.risk_params)
    for e in range(tr.cfg.eval_episodes):
        flat = env.reset(seed=tr._eval_seed(e)).flat()
        done = False
        while not done:
            pre = env.state.state_dict()
            action, _, _ = tr.policy.act(flat, greedy=True)
            out = env.step(Maneuver(action))
            record = trace_record(env.state, Maneuver(action), out)
            record["episode"] = e
            record["state"] = pre
            lines.append(json.dumps(record, sort_keys=True) + "\n")
            flat = out.observation.flat()
            done = out.done
    return "".join(lines).encode()


class TestLockstepEvaluation:
    """Batched greedy episodes against the same episodes run one at a time."""

    N = 6

    def _trainer(self, out_dir=None):
        # merge with 5 vehicles: seed 0's untrained A-PPO policy ends its six
        # eval episodes after 16, 30, 18, 14, 16 and 26 steps, by success,
        # timeout and leaving the road
        cfg = small_cfg(total_steps=100, eval_interval=100, eval_episodes=self.N,
                        rollout_size=50, batch_size=25, variant="A-PPO")
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
            env.log.append(step_record(maneuver, out))
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


# sha256 prefixes of the artifacts of one short training run per variant (two
# updates, the second past the teacher window, and two evaluations of two
# episodes), with metrics.csv less its wall-clock column. A last-bit change in
# forward, backward, Adam or infer changes one of these; one that does so on
# purpose updates them and says why. Every gemm and the sampled actions read
# the BLAS, so they hold for numpy 2.4.6 on scipy-openblas 0.3.31 (Haswell
# kernels), as TEACHER_DIGESTS does.
TRAINING_DIGESTS = {
    "V-PPO": {
        "losses.csv": "1fd9a2a0ca6fd99f",
        "episodes.jsonl": "ced897a840795d70",
        "traces.jsonl": "5642657748f428e9",
        "checkpoint_final.dckp": "a3a87b3ab6434f00",
        "metrics.csv": "adc77285814d6cec",
    },
    "A-PPO": {
        "losses.csv": "d5429117a31ca3a5",
        "episodes.jsonl": "5edc028874853d84",
        "traces.jsonl": "51030bae760d59b4",
        "checkpoint_final.dckp": "70a8b7c8043038d3",
        "metrics.csv": "51bdec7f7f75f467",
    },
    "LA-PPO": {
        "losses.csv": "f891379b5f37ca84",
        "episodes.jsonl": "08489dfc779b3d10",
        "traces.jsonl": "1df7f85b870beda1",
        "checkpoint_final.dckp": "98f618ece8a277d9",
        "metrics.csv": "8a3c78407d623b6b",
    },
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_outputs_are_pinned(variant, tmp_path):
    cfg = TrainConfig(total_steps=256, eval_interval=128, eval_episodes=2, rollout_size=128,
                      batch_size=64, epochs=2, teacher_window_fraction=0.5, seed=0,
                      variant=variant)
    tr = Trainer(merge_scenario(5), cfg, out_dir=tmp_path)
    tr.run()
    assert tr.updates_done == 2 and len(tr.eval_reports) == 2
    digests = {}
    for name in TRAINING_DIGESTS[variant]:
        data = (tmp_path / name).read_bytes()
        if name == "metrics.csv":
            data = drop_column(data.decode(), "decision_time_s").encode()
        digests[name] = hashlib.sha256(data).hexdigest()[:16]
    assert digests == TRAINING_DIGESTS[variant]


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
        cfg = small_cfg(variant="LA-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=50)
        arrays, meta = load_checkpoint(str(tmp_path / "checkpoint_step50.dckp"))
        # format 5 stored evals_done, the env block's disturbed_ids and each
        # vehicle's is_ego
        env = meta["env"]
        env["disturbed_ids"] = []
        for veh in [env["ego"], *env["background"]]:
            veh["is_ego"] = veh is env["ego"]
        meta["evals_done"] = 0
        meta["format"] = 5
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        with pytest.raises(CheckpointError, match="format"):
            Trainer.resume(doctored)

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
        # fusion-v2 nets held all 19 tensors whatever the variant
        cfg = small_cfg(variant="V-PPO")
        tr = Trainer(merge_scenario(), cfg, out_dir=tmp_path)
        tr.run(stop_after_step=50)
        ckpt = tmp_path / "checkpoint_step50.dckp"
        arrays, meta = load_checkpoint(str(ckpt))
        assert meta["architecture"] == "fusion-v3:in42:embed128:heads2:act5:V-PPO"
        meta["architecture"] = "fusion-v2:in42:embed128:heads2:act5:fused0"
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        with pytest.raises(CheckpointError, match="architecture"):
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
