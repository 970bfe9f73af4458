"""One benchmark repeat: a training run, then resumes of its final checkpoint,
each followed by one evaluation. Every one is an operation, checked and counted.

An operation fails when it raises or when a check on its output fails; the
failure keeps the exception type and message. When training fails, the
resume and evaluation that depend on it are counted as failed too, with the
training error as their cause.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from drivecoach.cli import learning_curve_auc
from drivecoach.sim.engine import TrafficEnv
from drivecoach.trainer import LOSS_HEADER, METRICS_HEADER, Trainer

from workloads import build_trainer, resolve_config

DIGESTED = ("metrics.csv", "losses.csv", "episodes.jsonl", "traces.jsonl")
WALL_CLOCK_COLUMN = "decision_time_s"  # left out of the metrics.csv digest
FINAL_CHECKPOINT = "checkpoint_final.dckp"


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def describe(err: BaseException) -> str:
    return f"{type(err).__name__}: {err}"


@dataclass
class Repeat:
    ops: list = field(default_factory=list)  # (op name, None when ok or the error text)
    run_steps: int = 0  # every env step the run took: training, in-run evaluations, traces
    train_s: float = 0.0
    eval_rates: list = field(default_factory=list)  # greedy steps/s of each evaluate call
    checkpoint_bytes: int = 0
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def ok(self, op: str) -> bool:
        return any(name == op and err is None for name, err in self.ops)


def run_repeat(workload, seed: int, out_dir: Path, eval_seconds: float) -> Repeat:
    """Train once, then resume the final checkpoint and evaluate it, pair after
    pair, until eval_seconds have passed (at least once)."""
    rep = Repeat()
    try:
        cfg = resolve_config(workload, seed, out_dir)
        trainer = build_trainer(cfg)
        with counting_env_steps() as steps:
            start = time.perf_counter()
            reports = trainer.run()
            rep.train_s = time.perf_counter() - start
        rep.run_steps = steps[0]
        check_training(cfg, out_dir, reports)
        rep.digests = artifact_digests(out_dir)
        rep.quality = quality(reports)
        rep.checkpoint_bytes = (out_dir / FINAL_CHECKPOINT).stat().st_size
        traced = traced_evaluation(out_dir / "traces.jsonl")
        rep.ops.append(("train", None))
    except Exception as err:
        rep.ops.append(("train", describe(err)))
        cause = f"NotRun: train failed with {describe(err)}"
        rep.ops += [("resume", cause), ("evaluate", cause)]
        return rep

    start = time.perf_counter()
    while not rep.eval_rates or time.perf_counter() - start < eval_seconds:
        try:
            resumed = Trainer.resume(out_dir / FINAL_CHECKPOINT)
            if resumed.global_step != cfg.train.total_steps:
                raise CheckFailed(f"resumed at step {resumed.global_step}, "
                                  f"expected {cfg.train.total_steps}")
            rep.ops.append(("resume", None))
        except Exception as err:
            rep.ops.append(("resume", describe(err)))
            rep.ops.append(("evaluate", f"NotRun: resume failed with {describe(err)}"))
            return rep
        try:
            t0 = time.perf_counter()
            report = resumed.evaluate()
            elapsed = time.perf_counter() - t0
            check_evaluation(report, traced)
            rep.eval_rates.append(traced["steps"] / elapsed)
            rep.ops.append(("evaluate", None))
        except Exception as err:
            rep.ops.append(("evaluate", describe(err)))
            return rep
    return rep


@contextlib.contextmanager
def counting_env_steps():
    """Count TrafficEnv.step calls: one integer add per step, no timing."""
    original = TrafficEnv.__dict__["step"]
    count = [0]

    def step(env, maneuver):
        count[0] += 1
        return original(env, maneuver)

    TrafficEnv.step = step
    try:
        yield count
    finally:
        TrafficEnv.step = original


# --- output checks ----------------------------------------------------------------

def _csv(path: Path, header: str, n_rows: int) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header is {lines[:1]}, expected {header!r}")
    if len(lines) - 1 != n_rows:
        raise CheckFailed(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


def _finite(path: Path, row: dict, names) -> None:
    for name in names:
        if not math.isfinite(float(row[name])):
            raise CheckFailed(f"{path.name}: {name}={row[name]} is not finite")


def check_training(cfg, out_dir: Path, reports) -> None:
    """metrics.csv and losses.csv have the expected rows with finite values,
    and the final checkpoint and traces.jsonl exist."""
    tc = cfg.train
    n_evals = tc.total_steps // tc.eval_interval
    if len(reports) != n_evals:
        raise CheckFailed(f"run returned {len(reports)} eval reports, expected {n_evals}")
    path = out_dir / "metrics.csv"
    for k, row in enumerate(_csv(path, METRICS_HEADER, n_evals), start=1):
        expected = (str(k * tc.eval_interval), tc.variant, cfg.scenario.kind, str(tc.seed))
        if (row["step"], row["variant"], row["scenario"], row["seed"]) != expected:
            raise CheckFailed(f"{path.name} row {k}: {row} does not match {expected}")
        _finite(path, row, ("success_rate", "eval_reward", "avg_speed", "delta_ttcp",
                            WALL_CLOCK_COLUMN))
        if not 0.0 <= float(row["success_rate"]) <= 1.0:
            raise CheckFailed(f"{path.name} row {k}: success_rate {row['success_rate']}")
    path = out_dir / "losses.csv"
    n_updates = math.ceil(tc.total_steps / tc.rollout_size)
    for row in _csv(path, LOSS_HEADER, n_updates):
        _finite(path, row, LOSS_HEADER.split(","))
    if not (out_dir / FINAL_CHECKPOINT).is_file():
        raise CheckFailed(f"{FINAL_CHECKPOINT} was not written")


def traced_evaluation(path: Path) -> dict:
    """Steps, mean return and success rate of the greedy episodes the finished
    run traced on its eval seeds: what evaluating its final policy must give."""
    episodes: dict[int, list[dict]] = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            episodes.setdefault(record["episode"], []).append(record)
    if not episodes:
        raise CheckFailed("traces.jsonl holds no episodes")
    eps = list(episodes.values())
    return {
        "steps": sum(len(ep) for ep in eps),
        "eval_reward": statistics.fmean(sum(r["reward"] for r in ep) for ep in eps),
        "success_rate": sum("success" in ep[-1]["events"] for ep in eps) / len(eps),
    }


def check_evaluation(report, traced: dict) -> None:
    if not math.isclose(report.eval_reward, traced["eval_reward"], rel_tol=1e-9, abs_tol=1e-9):
        raise CheckFailed(f"eval_reward {report.eval_reward} differs from the traced "
                          f"{traced['eval_reward']}")
    if report.success_rate != traced["success_rate"]:
        raise CheckFailed(f"success_rate {report.success_rate} differs from the traced "
                          f"{traced['success_rate']}")


# --- digests and quality --------------------------------------------------------

def drop_column(text: str, column: str) -> str:
    lines = text.splitlines()
    idx = lines[0].split(",").index(column)
    kept = []
    for line in lines:
        fields = line.split(",")
        kept.append(",".join(fields[:idx] + fields[idx + 1:]))
    return "\n".join(kept) + "\n"


def artifact_digests(out_dir: Path) -> dict:
    digests = {}
    for name in DIGESTED:
        data = (out_dir / name).read_bytes()
        if name == "metrics.csv":
            data = drop_column(data.decode(), WALL_CLOCK_COLUMN).encode()
        digests[name] = hashlib.sha256(data).hexdigest()[:16]
    return digests


def quality(reports) -> dict:
    """Learning outcome of the run: reported, never gated."""
    last = reports[-1]
    return {
        "success_rate": last.success_rate,
        "eval_reward": last.eval_reward,
        "eval_reward_auc": learning_curve_auc([r.step for r in reports],
                                              [r.eval_reward for r in reports]),
    }
