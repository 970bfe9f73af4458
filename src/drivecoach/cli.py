"""Command line: train, finish an interrupted run, evaluate checkpoints, probe
the teacher, run ablations.

Exit codes: 0 ok, 1 runtime failure, 2 bad configuration or input file (state,
memory, transcript), 3 artifact mismatch (corrupted checkpoint or architecture
disagreement).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    GlobalConfig,
    PRESETS,
    apply_overrides,
    build_section,
    build_teacher,
    from_mapping,
    load_mapping,
    save_config,
)
from .errors import ConfigError, UsageError
from .nn import CheckpointError, load_checkpoint
from .sim.engine import ScenarioState, TrafficEnv
from .sim.scenarios import SCENARIO_KINDS, ScenarioConfig
from .sim.vehicles import MANEUVER_TOKENS
from .trainer import (
    METRICS_HEADER,
    VARIANTS,
    EvalReport,
    Trainer,
    append_csv_row,
    check_fresh_out_dir,
    metrics_row,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivecoach",
        description="Teacher-guided actor-critic driving agents in a kinematic traffic simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help=f"YAML config file or preset name {sorted(PRESETS)}")
    common.add_argument("--seed", type=int, help="master seed (sets train.seed)")
    common.add_argument("--out", metavar="DIR", help="output directory (sets out_dir)")
    common.add_argument("--verbose", action="store_true")

    train_p = sub.add_parser("train", parents=[common], help="run one training job")
    train_p.add_argument("--variant", choices=[v.lower() for v in VARIANTS])
    train_p.add_argument("--scenario", choices=SCENARIO_KINDS)
    train_p.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                         help="dotted config overrides, e.g. train.lr=0.0003")
    train_p.set_defaults(handler=cmd_train)

    resume_p = sub.add_parser(
        "resume", help="finish an interrupted run from its checkpoint",
        description="Finish an interrupted run from its checkpoint, in the checkpoint's "
                    "directory. An LA-PPO run goes on with the scripted teacher, so a run "
                    "whose teacher used another backend is refused, and so is a directory "
                    "holding rows written after the checkpoint.")
    resume_p.add_argument("checkpoint",
                          help="a run's checkpoint_step*.dckp; the run goes on in its directory")
    resume_p.set_defaults(handler=cmd_resume)

    eval_p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    eval_p.add_argument("checkpoint", help="checkpoint file to load")
    eval_p.add_argument("--scenario", choices=SCENARIO_KINDS,
                        help="evaluate on a different scenario kind")
    eval_p.add_argument("--episodes", type=int, default=None,
                        help="episode count (default: the checkpoint's eval_episodes)")
    eval_p.set_defaults(handler=cmd_eval)

    teacher_p = sub.add_parser("teacher", parents=[common],
                               help="query the teacher on stored or live states")
    teacher_p.add_argument("--state", metavar="PATH",
                           help="trace file (JSONL records with embedded state dicts)")
    teacher_p.add_argument("--live", action="store_true",
                           help="step a fresh simulator episode instead of reading a file")
    teacher_p.add_argument("--steps", type=int, default=5,
                           help="decision steps to run with --live")
    teacher_p.add_argument("--record", metavar="PATH",
                           help="append every backend exchange to this transcript")
    teacher_p.add_argument("--replay", metavar="PATH",
                           help="answer from a recorded transcript instead of the backend")
    teacher_p.set_defaults(handler=cmd_teacher)

    ablate_p = sub.add_parser("ablate", parents=[common],
                              help="run all variants on shared seeds and summarize")
    ablate_p.add_argument("--scenario", choices=SCENARIO_KINDS)
    ablate_p.add_argument("overrides", nargs="*", metavar="KEY=VALUE")
    ablate_p.set_defaults(handler=cmd_ablate)
    return parser


def resolve_config(args) -> GlobalConfig:
    """defaults < config file/preset < flags < dotted overrides, then validate."""
    mapping = load_mapping(args.config)
    flag_overrides = []
    if getattr(args, "seed", None) is not None:
        flag_overrides.append(f"train.seed={args.seed}")
    if getattr(args, "variant", None):
        flag_overrides.append(f"train.variant={args.variant}")
    if getattr(args, "scenario", None):
        flag_overrides.append(f"scenario.kind={args.scenario}")
    apply_overrides(mapping, flag_overrides)
    if getattr(args, "out", None):
        mapping["out_dir"] = args.out  # a path, not a YAML value
    apply_overrides(mapping, getattr(args, "overrides", []) or [])
    cfg = from_mapping(mapping)
    cfg.validate()
    return cfg


def _report_line(report: EvalReport) -> str:
    return (
        f"step {report.step}: success_rate={report.success_rate:.3f} "
        f"eval_reward={report.eval_reward:.6f} avg_speed={report.avg_speed:.6f} "
        f"delta_ttcp={report.delta_ttcp:.6f} decision_time={report.decision_time:.3f}s/forward"
    )


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out = Path(cfg.out_dir)
    check_fresh_out_dir(out)  # before config.yaml replaces the earlier run's
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    teacher = build_teacher(cfg) if cfg.train.variant == "LA-PPO" else None
    trainer = Trainer(cfg.scenario, cfg.train, cfg.risk, teacher=teacher, out_dir=out)
    if args.verbose:
        print(f"effective config written to {out / 'config.yaml'}")
    _print_final(trainer.run())
    return EXIT_OK


def _print_final(reports: list[EvalReport]) -> None:
    if reports:
        print("final " + _report_line(reports[-1]))
    else:
        print("run finished before the first evaluation")


def _existing_checkpoint(name: str) -> Path:
    ckpt = Path(name)
    if not ckpt.exists():
        raise ConfigError(f"checkpoint not found: {ckpt}")
    return ckpt


def cmd_resume(args) -> int:
    """Run a checkpoint's run on to `train.total_steps`. It appends to the
    rows in the checkpoint's directory, so a run stopped at the checkpoint
    ends with the files an uninterrupted run writes. `Trainer.run` refuses a
    directory that holds rows past the checkpoint."""
    ckpt = _existing_checkpoint(args.checkpoint)
    trainer = Trainer.resume(ckpt, out_dir=ckpt.parent)
    # running on would rewrite a finished run's final files
    if trainer.global_step >= trainer.cfg.total_steps:
        raise ConfigError(f"checkpoint {ckpt} is at step {trainer.global_step} of "
                          f"train.total_steps {trainer.cfg.total_steps}: its run is finished")
    if trainer.teacher is not None:
        saved = load_checkpoint(str(ckpt))[1]["teacher"]["kind"]
        if saved != trainer.teacher.backend.kind:
            raise ConfigError(f"checkpoint {ckpt}: its teacher ran on the {saved!r} backend, "
                              f"and a resumed run goes on with the scripted one")
    _print_final(trainer.run())
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.episodes is not None and args.episodes < 1:
        raise ConfigError(f"--episodes: must be >= 1, got {args.episodes}")
    ckpt = _existing_checkpoint(args.checkpoint)
    trainer = Trainer.resume(ckpt)
    if args.scenario and args.scenario != trainer.scenario.kind:
        # another kind keeps the kind-independent fields and takes its own
        # defaults for spawn speeds, horizon and success region
        trainer.scenario = replace(trainer.scenario, kind=args.scenario, spawn_speed_mean=None,
                                   spawn_speed_std=None, horizon=None, success_region=None)
    if args.seed is not None:
        trainer.cfg.seed = args.seed  # moves the fixed eval seed set
    report = trainer.evaluate(n_episodes=args.episodes)
    print(_report_line(report))
    out = Path(args.out) if args.out else ckpt.parent
    out.mkdir(parents=True, exist_ok=True)
    append_csv_row(out / "eval.csv", METRICS_HEADER,
                   metrics_row(report, trainer.cfg.variant, trainer.scenario.kind,
                               trainer.cfg.seed))
    return EXIT_OK


def _print_decision(index, decision) -> None:
    print(f"[{index}] {MANEUVER_TOKENS[decision.action]}  source={decision.source}  "
          f"{decision.rationale}")


def _print_prompt(prompt) -> None:
    if prompt is None:
        return
    print("--- prompt ---")
    print(prompt.system)
    print(prompt.user)
    print("--- end prompt ---")


def cmd_teacher(args) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps: must be >= 1, got {args.steps}")
    cfg = resolve_config(args)
    teacher = build_teacher(cfg, record=args.record, replay=args.replay)
    if args.live:
        env = TrafficEnv(cfg.scenario, cfg.risk)
        env.reset(seed=cfg.train.seed)
        for step in range(args.steps):
            decision, _ = teacher.decide_step(env.state)
            if args.verbose:
                _print_prompt(teacher.last_prompt)
            _print_decision(step, decision)
            out = env.step(decision.action)
            if out.done:
                break
        return EXIT_OK
    if not args.state:
        raise ConfigError("teacher command needs --state FILE or --live")
    path = Path(args.state)
    if not path.exists():
        raise ConfigError(f"state file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"state file {path}: {err}") from err
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            config = build_section("state.config", ScenarioConfig, record["state"]["config"])
            config.validate("state.config")
            state = ScenarioState.from_state_dict(record["state"], config)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"state file {path} line {i}: {err}") from err
        decision, _ = teacher.decide_step(state)
        if args.verbose:
            _print_prompt(teacher.last_prompt)
        _print_decision(i, decision)
    return EXIT_OK


def learning_curve_auc(steps, rewards) -> float:
    """Trapezoid area under the eval-reward curve on the shared step grid."""
    if len(steps) != len(rewards):
        raise UsageError("AUC needs one reward per eval step")
    if len(steps) < 2:
        return 0.0
    area = 0.0
    for i in range(len(steps) - 1):
        area += 0.5 * (rewards[i] + rewards[i + 1]) * (steps[i + 1] - steps[i])
    return area


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    out = Path(cfg.out_dir)
    seeds = [cfg.train.seed + k for k in range(3)]
    run_dir_of = {(variant, seed): out / f"{variant.lower()}-seed{seed}"
                  for variant in VARIANTS for seed in seeds}
    # refuse a used sweep before its first run, not after several
    for run_dir in run_dir_of.values():
        check_fresh_out_dir(run_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    results: dict[str, list[list[EvalReport]]] = {}
    rows = []
    failures = []
    for variant in VARIANTS:
        for seed in seeds:
            run_train = replace(cfg.train, variant=variant, seed=seed)
            run_dir = run_dir_of[variant, seed]
            try:
                teacher = build_teacher(cfg) if variant == "LA-PPO" else None
                trainer = Trainer(cfg.scenario, run_train, cfg.risk,
                                  teacher=teacher, out_dir=run_dir)
                reports = trainer.run()
            except Exception as err:  # keep partial results, flag the sweep
                print(f"run failed: {variant} seed {seed}: {err}", file=sys.stderr)
                failures.append((variant, seed))
                continue
            results.setdefault(variant, []).append(reports)
            metrics = run_dir / "metrics.csv"
            if metrics.exists():
                rows.extend(metrics.read_text().splitlines()[1:])
            if args.verbose and reports:
                print(f"{variant} seed {seed} " + _report_line(reports[-1]))
    (out / "ablation.csv").write_text("\n".join([METRICS_HEADER] + rows) + "\n")
    (out / "summary.md").write_text(_summary_markdown(cfg, seeds, results))
    print(f"ablation artifacts in {out}")
    return EXIT_RUNTIME if failures else EXIT_OK


def _summary_markdown(cfg: GlobalConfig, seeds, results) -> str:
    lines = [
        "# Ablation summary",
        "",
        f"scenario: {cfg.scenario.kind}, seeds: {', '.join(str(s) for s in seeds)}",
        "",
        "| variant | final eval reward | final success rate | eval reward AUC |",
        "| --- | --- | --- | --- |",
    ]
    for variant in VARIANTS:
        runs = results.get(variant, [])
        runs = [r for r in runs if r]
        if not runs:
            lines.append(f"| {variant} | n/a | n/a | n/a |")
            continue
        final_reward = sum(r[-1].eval_reward for r in runs) / len(runs)
        final_success = sum(r[-1].success_rate for r in runs) / len(runs)
        auc = sum(
            learning_curve_auc([p.step for p in r], [p.eval_reward for p in r])
            for r in runs
        ) / len(runs)
        lines.append(
            f"| {variant} | {final_reward:.3f} | {final_success:.3f} | {auc:.1f} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_ARTIFACT
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # anything else is a runtime failure
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
