"""Config resolution and CLI subcommand tests, exit codes included."""

import json

import numpy as np
import pytest

from drivecoach.cli import (
    EXIT_ARTIFACT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    build_parser,
    learning_curve_auc,
    main,
    resolve_config,
)
from drivecoach.config import (
    GlobalConfig,
    TeacherConfig,
    apply_overrides,
    build_teacher,
    from_mapping,
    load_mapping,
    save_config,
    to_mapping,
)
from drivecoach.errors import ConfigError
from drivecoach.nn import load_checkpoint, save_checkpoint
from drivecoach.sim import Maneuver, ScenarioConfig, reset
from drivecoach.teacher import STATE_DIM, MemoryEntry, MemoryRepository, RecordingBackend, ReplayBackend
from drivecoach.trainer import Trainer

SMALL_YAML = """\
scenario: {kind: merge, n_background: 2}
train: {total_steps: 100, eval_interval: 50, eval_episodes: 2,
        rollout_size: 50, batch_size: 25, epochs: 2, variant: la-ppo}
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return path


class TestConfigMapping:
    def test_empty_mapping_gives_defaults(self):
        cfg = from_mapping({})
        assert cfg.train.total_steps == 100_000
        assert cfg.scenario.kind == "merge"
        assert cfg.teacher.backend == "scripted"

    def test_round_trip_identity(self):
        cfg = from_mapping({"train": {"lr": 0.001}, "scenario": {"kind": "highway"}})
        assert from_mapping(to_mapping(cfg)) == cfg

    def test_file_round_trip_identity(self, tmp_path):
        cfg = from_mapping({"train": {"seed": 7, "variant": "a-ppo"}})
        save_config(cfg, tmp_path / "c.yaml")
        assert from_mapping(load_mapping(tmp_path / "c.yaml")) == cfg

    def test_merge_lite_preset(self):
        cfg = from_mapping(load_mapping("merge-lite"))
        assert cfg.scenario.kind == "merge"
        assert cfg.scenario.n_background == 5
        assert cfg.train.total_steps == 20_000
        assert cfg.train.rollout_size == 640

    def test_paper_preset_is_defaults(self):
        assert from_mapping(load_mapping("paper")) == GlobalConfig()

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="trian"):
            from_mapping({"trian": {}})

    def test_unknown_train_key_named(self):
        with pytest.raises(ConfigError, match="lrr"):
            from_mapping({"train": {"lrr": 0.1}})

    def test_unknown_scenario_key_named(self):
        with pytest.raises(ConfigError, match="n_cars"):
            from_mapping({"scenario": {"n_cars": 3}})

    def test_scenario_seed_rejected(self, capsys):
        # episodes draw their seeds from train.seed; the scenario has no seed
        code = main(["train", "--config", "merge-lite", "scenario.seed=3"])
        assert code == EXIT_CONFIG
        assert "scenario: unknown key 'seed'" in capsys.readouterr().err

    def test_unknown_teacher_key_named(self):
        with pytest.raises(ConfigError, match="modle"):
            from_mapping({"teacher": {"modle": "x"}})

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="total_steps"):
            from_mapping({"train": {"total_steps": "many"}})
        with pytest.raises(ConfigError, match=r"scenario\.n_background"):
            from_mapping({"scenario": {"n_background": "abc"}})
        with pytest.raises(ConfigError, match=r"scenario\.dt_physics"):
            from_mapping({"scenario": {"dt_physics": "abc"}})
        with pytest.raises(ConfigError, match=r"scenario\.success_region\.min_x"):
            from_mapping({"scenario": {"success_region": {"min_x": "abc"}}})

    def test_integral_float_coerced(self):
        cfg = from_mapping({"train": {"total_steps": 2e4}})
        assert cfg.train.total_steps == 20_000
        assert isinstance(cfg.train.total_steps, int)

    def test_fractional_int_rejected(self):
        with pytest.raises(ConfigError, match="total_steps"):
            from_mapping({"train": {"total_steps": 100.5}})
        with pytest.raises(ConfigError, match=r"scenario\.n_background"):
            from_mapping({"scenario": {"n_background": 2.5}})
        with pytest.raises(ConfigError, match=r"scenario\.n_background"):
            from_mapping({"scenario": {"n_background": float("inf")}})
        with pytest.raises(ConfigError, match=r"scenario\.success_region\.max_lane"):
            from_mapping({"scenario": {"success_region": {"max_lane": 0.5}}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="train"):
            from_mapping({"train": 5})
        with pytest.raises(ConfigError, match="scenario"):
            from_mapping({"scenario": [1, 2]})
        with pytest.raises(ConfigError, match=r"scenario\.success_region"):
            from_mapping({"scenario": {"success_region": 5}})

    def test_optional_values_accept_null(self):
        cfg = from_mapping({"scenario": {"kind": "highway", "horizon": None,
                                         "spawn_speed_mean": None, "success_region": None}})
        assert cfg.scenario == from_mapping({"scenario": {"kind": "highway"}}).scenario

    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="nope.yaml"):
            load_mapping("/definitely/nope.yaml")

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_mapping(path)


class TestOverrides:
    def test_types_parse_as_yaml(self):
        mapping = {}
        apply_overrides(mapping, ["train.lr=0.001", "scenario.kind=highway",
                                  "out_dir=runs/x", "train.epochs=3"])
        cfg = from_mapping(mapping)
        assert cfg.train.lr == 0.001
        assert cfg.scenario.kind == "highway"
        assert cfg.out_dir == "runs/x"
        assert cfg.train.epochs == 3

    @pytest.mark.parametrize("out", ["007", "yes", "runs/a"])
    def test_out_flag_is_kept_as_typed(self, out):
        args = build_parser().parse_args(["train", "--out", out])
        assert resolve_config(args).out_dir == out

    def test_out_dir_override_beats_out_flag(self):
        args = build_parser().parse_args(["train", "--out", "runs/a", "out_dir=runs/b"])
        assert resolve_config(args).out_dir == "runs/b"

    def test_later_override_wins(self):
        mapping = apply_overrides({}, ["train.seed=1", "train.seed=9"])
        assert from_mapping(mapping).train.seed == 9

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_overrides({}, ["train.lr"])

    def test_path_through_scalar_rejected(self):
        mapping = apply_overrides({}, ["train.lr=0.1"])
        with pytest.raises(ConfigError, match="not a section"):
            apply_overrides(mapping, ["train.lr.x=1"])


class TestTeacherConfig:
    def test_remote_requires_endpoint_and_model(self):
        with pytest.raises(ConfigError, match="endpoint"):
            TeacherConfig(backend="remote").validate()
        with pytest.raises(ConfigError, match="model"):
            TeacherConfig(backend="remote", endpoint="http://x").validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            TeacherConfig(backend="oracle").validate()

    def test_memory_path_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="memory_path"):
            TeacherConfig(memory_path=str(tmp_path / "gone.json")).validate()

    def test_build_teacher_scripted(self):
        cfg = GlobalConfig(teacher=TeacherConfig(memory_capacity=7, n_shot=2))
        teacher = build_teacher(cfg)
        assert teacher.backend.kind == "scripted"
        assert teacher.memory.capacity == 7
        assert teacher.n_shot == 2

    def test_build_teacher_record_and_replay(self, tmp_path):
        cfg = GlobalConfig()
        recorded = build_teacher(cfg, record=tmp_path / "t.jsonl")
        assert isinstance(recorded.backend, RecordingBackend)
        (tmp_path / "t.jsonl").write_text("")
        replayed = build_teacher(cfg, replay=tmp_path / "t.jsonl")
        assert isinstance(replayed.backend, ReplayBackend)

    def test_build_teacher_preloads_memory(self, tmp_path):
        repo = MemoryRepository(capacity=5)
        repo.add(MemoryEntry(z=np.zeros(STATE_DIM), scenario_kind="merge", action=0,
                             outcome="success", episode_return=1.0))
        repo.save(tmp_path / "memory.json")
        cfg = GlobalConfig(teacher=TeacherConfig(memory_path=str(tmp_path / "memory.json"),
                                                 memory_capacity=5))
        cfg.teacher.validate()
        teacher = build_teacher(cfg)
        assert len(teacher.memory) == 1


class TestTrainCommand:
    def test_small_run_writes_artifacts(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", str(small_config), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 100 // 50
        assert (out / "config.yaml").exists()
        assert (out / "checkpoint_final.dckp").exists()
        assert "final step 100" in capsys.readouterr().out

    def test_effective_config_reproduces_run(self, small_config, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["train", "--config", str(small_config), "--out", str(out1)]) == EXIT_OK
        assert main(["train", "--config", str(out1 / "config.yaml"),
                     "--out", str(out2)]) == EXIT_OK
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_variant_flag_without_teacher_block(self, small_config, tmp_path):
        out = tmp_path / "v"
        code = main(["train", "--config", str(small_config), "--out", str(out),
                     "--variant", "v-ppo"])
        assert code == EXIT_OK
        row = (out / "metrics.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "V-PPO"

    def test_seed_flag_lands_in_rows(self, small_config, tmp_path):
        out = tmp_path / "s"
        main(["train", "--config", str(small_config), "--out", str(out), "--seed", "3"])
        row = (out / "metrics.csv").read_text().splitlines()[1]
        assert row.split(",")[8] == "3"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "gone.yaml")])
        assert code == EXIT_CONFIG
        assert "gone.yaml" in capsys.readouterr().err

    def test_unknown_override_key_exits_2(self, small_config, tmp_path, capsys):
        code = main(["train", "--config", str(small_config),
                     "--out", str(tmp_path / "x"), "train.lrr=1"])
        assert code == EXIT_CONFIG
        assert "lrr" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, small_config, tmp_path, capsys):
        for override, key in (("train.gamma=2", "train.gamma"),
                              ("scenario.n_background=2.5", "scenario.n_background"),
                              ("scenario.success_region.min_x=abc",
                               "scenario.success_region.min_x"),
                              ("scenario.n_background=true", "scenario.n_background"),
                              ("train.lr=yes", "train.lr"),
                              ("out_dir=yes", "out_dir: expected str, got True"),
                              ("out_dir=[a]", "out_dir: expected str, got ['a']")):
            code = main(["train", "--config", str(small_config),
                         "--out", str(tmp_path / "x"), override])
            assert code == EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, small_config, tmp_path, monkeypatch, capsys):
        def boom(self, stop_after_step=None):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(Trainer, "run", boom)
        code = main(["train", "--config", str(small_config), "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert "disk on fire" in capsys.readouterr().err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One finished LA-PPO run shared by the eval and teacher command tests."""
    out = tmp_path_factory.mktemp("finished")
    config = out / "cfg.yaml"
    config.write_text(SMALL_YAML)
    assert main(["train", "--config", str(config), "--out", str(out / "run")]) == EXIT_OK
    return out / "run"


class TestEvalCommand:
    def test_eval_prints_and_appends(self, finished_run, tmp_path, capsys):
        ckpt = finished_run / "checkpoint_final.dckp"
        out = tmp_path / "evalout"
        code = main(["eval", str(ckpt), "--episodes", "2", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "success_rate=" in printed
        lines = (out / "eval.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "LA-PPO"

    def test_eval_deterministic(self, finished_run, tmp_path, capsys):
        ckpt = finished_run / "checkpoint_final.dckp"
        main(["eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "a")])
        first = capsys.readouterr().out
        main(["eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "b")])
        assert capsys.readouterr().out == first

    def test_cross_scenario_eval(self, finished_run, tmp_path):
        ckpt = finished_run / "checkpoint_final.dckp"
        code = main(["eval", str(ckpt), "--episodes", "1",
                     "--scenario", "highway", "--out", str(tmp_path / "h")])
        assert code == EXIT_OK
        row = (tmp_path / "h" / "eval.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "highway"

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "gone.dckp")])
        assert code == EXIT_CONFIG
        assert "gone.dckp" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_3(self, finished_run, tmp_path, capsys):
        blob = bytearray((finished_run / "checkpoint_final.dckp").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.dckp"
        bad.write_bytes(bytes(blob))
        code = main(["eval", str(bad)])
        assert code == EXIT_ARTIFACT
        assert "checkpoint error" in capsys.readouterr().err

    def test_architecture_mismatch_exits_3(self, finished_run, tmp_path):
        arrays, meta = load_checkpoint(str(finished_run / "checkpoint_final.dckp"))
        meta["architecture"] = "fusion-v1:in9:embed4:heads1:act5:fused1"
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        assert main(["eval", str(doctored)]) == EXIT_ARTIFACT

    def test_previous_architecture_version_exits_3(self, finished_run, tmp_path, capsys):
        arrays, meta = load_checkpoint(str(finished_run / "checkpoint_final.dckp"))
        # what an LA-PPO run wrote before each variant built its own net
        meta["architecture"] = "fusion-v2:in42:embed128:heads2:act5:fused1"
        doctored = tmp_path / "doctored.dckp"
        save_checkpoint(str(doctored), arrays, meta)
        assert main(["eval", str(doctored)]) == EXIT_ARTIFACT
        assert "fusion-v2" in capsys.readouterr().err


class TestTeacherCommand:
    def test_state_file_decisions(self, finished_run, capsys):
        traces = finished_run / "traces.jsonl"
        code = main(["teacher", "--state", str(traces)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[1]" in out
        assert "source=scripted" in out

    def test_state_file_deterministic(self, finished_run, capsys):
        traces = finished_run / "traces.jsonl"
        main(["teacher", "--state", str(traces)])
        first = capsys.readouterr().out
        main(["teacher", "--state", str(traces)])
        assert capsys.readouterr().out == first

    def test_verbose_prints_prompt(self, finished_run, capsys):
        traces = finished_run / "traces.jsonl"
        main(["teacher", "--state", str(traces), "--verbose"])
        out = capsys.readouterr().out
        assert "--- prompt ---" in out
        assert "TELEMETRY" in out

    def test_malformed_line_exits_2_with_number(self, finished_run, tmp_path, capsys):
        good = (finished_run / "traces.jsonl").read_text().splitlines()[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good + "\n{not json}\n")
        code = main(["teacher", "--state", str(bad)])
        assert code == EXIT_CONFIG
        assert "line 2" in capsys.readouterr().err

    def test_missing_state_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nostate.jsonl"
        path.write_text(json.dumps({"maneuver": "keep_lane"}) + "\n")
        code = main(["teacher", "--state", str(path)])
        assert code == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named", [
        ("dt_physics", "abc", "state.config.dt_physics"),
        ("n_background", "abc", "state.config.n_background"),
        ("success_region", 5, "state.config.success_region"),
        ("success_region.min_x", "abc", "state.config.success_region.min_x"),
        ("dt_physics", 0.0, "state.config.dt_physics"),
        ("decision_period", -1.0, "state.config.decision_period"),
        ("horizon", -5, "state.config.horizon"),
        ("done", "yes", "state.done"),
        ("ego_target_speed", "abc", "state.ego_target_speed"),
        ("decision_step", "x", "state.decision_step"),
        ("disturbed_ids", 3, "state.disturbed_ids"),
        ("ego.lane", 1.5, "state.ego.lane"),
        ("ego.speed", "abc", "state.ego.speed"),
        ("ego.is_ego", 1, "state.ego.is_ego"),
        ("ego.profile", "reckless", "state.ego.profile"),
        ("background.2.lane", 1.5, "state.background[2].lane"),
        ("background.2.speed", -1.0, "state.background[2]"),
    ])
    def test_invalid_state_config_exits_2(self, tmp_path, capsys, key, value, named):
        state, _ = reset(ScenarioConfig(kind="merge", n_background=3), seed=0)
        record = {"state": state.state_dict()}
        # `key` is the path below state.config for a config field, else below state
        node = record["state"]
        if named.startswith("state.config."):
            node = node["config"]
        *parents, leaf = key.split(".")
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[leaf] = value
        path = tmp_path / "bad_config.jsonl"
        path.write_text(json.dumps(record) + "\n")
        code = main(["teacher", "--state", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 1" in err
        assert f"{named}:" in err

    @staticmethod
    def memory_config(tmp_path, entry_edit=None, capacity=5):
        """A config naming a one-entry memory file saved at capacity 5. `entry_edit`
        may change the entry's record; the config sets teacher.memory_capacity."""
        repo = MemoryRepository(capacity=5)
        repo.add(MemoryEntry(z=np.ones(STATE_DIM), scenario_kind="merge", action=Maneuver.Cruise,
                             outcome="success", episode_return=1.0, lesson="keep the gap"))
        data = repo.to_dict()
        if entry_edit is not None:
            entry_edit(data["entries"][0])
        memory = tmp_path / "memory.json"
        memory.write_text(json.dumps(data))
        config = tmp_path / "memory.yaml"
        config.write_text(f"teacher: {{memory_path: '{memory}', memory_capacity: {capacity}}}\n")
        return config

    def test_memory_file_runs(self, tmp_path, capsys):
        config = self.memory_config(tmp_path)
        assert main(["teacher", "--live", "--steps", "1", "--config", str(config)]) == EXIT_OK

    @pytest.mark.parametrize("key,value,named", [
        ("episode_return", "abc", "memory.entries[0].episode_return: expected a number"),
        ("lesson", 5, "memory.entries[0].lesson: expected str"),
        ("lesson", "x" * 2001, "memory.entries[0].lesson: exceeds"),
        ("z", [1.0], "memory.entries[0].z: must hold 36 numbers"),
        ("z", [1.0, "a"], "memory.entries[0].z[1]: expected a number"),
        ("action", "fly", "memory.entries[0].action: unknown Maneuver 'fly'"),
        ("action", 1, "memory.entries[0].action: expected Maneuver"),
        ("outcome", "fine", "memory.entries[0].outcome: must be one of"),
        ("scenario_kind", 3, "memory.entries[0].scenario_kind: expected str"),
        ("surprise", 1, "memory.entries[0]: unknown key 'surprise'"),
    ])
    def test_invalid_memory_file_exits_2(self, tmp_path, capsys, key, value, named):
        config = self.memory_config(tmp_path, lambda entry: entry.__setitem__(key, value))
        code = main(["teacher", "--live", "--steps", "1", "--config", str(config)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(tmp_path / "memory.json") in err
        assert named in err

    def test_memory_capacity_mismatch_exits_2(self, tmp_path, capsys):
        config = self.memory_config(tmp_path, capacity=50)
        code = main(["teacher", "--live", "--steps", "1", "--config", str(config)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "teacher.memory_capacity: 50 does not match the capacity 5" in err

    @pytest.mark.parametrize("line,named", [
        ("{not json}", "Expecting property name"),
        (json.dumps({"kind": "scripted", "request": {}}), "argument: 'response'"),
        (json.dumps({"kind": "scripted", "request": {}, "response": 5}),
         "exchange.response: expected str, got 5"),
    ])
    def test_invalid_transcript_exits_2(self, tmp_path, capsys, line, named):
        path = tmp_path / "transcript.jsonl"
        good = json.dumps({"kind": "scripted", "request": {}, "response": "ok"})
        path.write_text(f"{good}\n{line}\n")
        with pytest.raises(ConfigError, match="line 2"):  # at load, before the first chat
            ReplayBackend(path)
        code = main(["teacher", "--live", "--steps", "1", "--replay", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"transcript {path} line 2: " in err
        assert named in err

    def test_requires_state_or_live(self, capsys):
        assert main(["teacher"]) == EXIT_CONFIG

    def test_live_steps(self, capsys):
        code = main(["teacher", "--live", "--steps", "3", "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("[0]")

    def test_record_then_replay_identical(self, finished_run, tmp_path, capsys):
        traces = finished_run / "traces.jsonl"
        transcript = tmp_path / "transcript.jsonl"
        assert main(["teacher", "--state", str(traces),
                     "--record", str(transcript)]) == EXIT_OK
        recorded = capsys.readouterr().out
        assert transcript.exists()
        assert main(["teacher", "--state", str(traces),
                     "--replay", str(transcript)]) == EXIT_OK
        assert capsys.readouterr().out == recorded


class TestAblateCommand:
    def test_auc_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            steps = np.sort(rng.choice(np.arange(1, 100), size=6, replace=False))
            rewards = rng.normal(size=6)
            ours = learning_curve_auc(steps.tolist(), rewards.tolist())
            assert ours == pytest.approx(np.trapezoid(rewards, steps), abs=1e-12)

    def test_single_point_auc_is_zero(self):
        assert learning_curve_auc([50], [1.0]) == 0.0

    def test_sweep_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["ablate", "--out", str(out), "--seed", "0",
                     "scenario.n_background=1",
                     "train.total_steps=100", "train.eval_interval=50",
                     "train.eval_episodes=1", "train.rollout_size=50",
                     "train.batch_size=25", "train.epochs=1"])
        assert code == EXIT_OK
        run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert run_dirs == sorted(
            f"{v.lower()}-seed{s}" for v in ("V-PPO", "A-PPO", "LA-PPO") for s in (0, 1, 2)
        )
        combined = (out / "ablation.csv").read_text().splitlines()
        assert len(combined) == 1 + 9 * 2  # 9 runs, 2 eval rows each
        summary = (out / "summary.md").read_text()
        for variant in ("V-PPO", "A-PPO", "LA-PPO"):
            assert f"| {variant} |" in summary

    def test_partial_failure_keeps_results_and_exits_1(self, tmp_path, monkeypatch, capsys):
        real_run = Trainer.run

        def selective(self, stop_after_step=None):
            if self.cfg.variant == "A-PPO":
                raise RuntimeError("solver diverged")
            return real_run(self, stop_after_step)

        monkeypatch.setattr(Trainer, "run", selective)
        out = tmp_path / "sweep"
        code = main(["ablate", "--out", str(out), "--seed", "0",
                     "scenario.n_background=1",
                     "train.total_steps=100", "train.eval_interval=50",
                     "train.eval_episodes=1", "train.rollout_size=50",
                     "train.batch_size=25", "train.epochs=1"])
        assert code == EXIT_RUNTIME
        assert "solver diverged" in capsys.readouterr().err
        combined = (out / "ablation.csv").read_text().splitlines()
        assert len(combined) == 1 + 6 * 2  # the six surviving runs
        assert "| A-PPO | n/a | n/a | n/a |" in (out / "summary.md").read_text()
