"""Benchmark workloads: each is the merge-lite preset plus a few overrides.

This module imports only the standard library at load time, so the set-up
probe can start its clock before the first `drivecoach` import.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]  # dotted KEY=VALUE on top of the merge-lite preset


# Every workload keeps merge-lite's training settings (rollout 640, batch 128,
# 10 epochs, 20 eval episodes); only scenario, variant and run length change.
WORKLOADS = {w.name: w for w in (
    Workload(
        "merge-guided",
        "LA-PPO on merge with 5 vehicles, the paper's headline run: every layer works, "
        "the teacher included",
        ("scenario.kind=merge", "scenario.n_background=5", "train.variant=la-ppo",
         "train.total_steps=1280", "train.eval_interval=640"),
    ),
    Workload(
        "highway-dense",
        "A-PPO on highway with 10 vehicles: simulator-bound, no teacher, so policy "
        "and teacher changes must leave it unchanged",
        ("scenario.kind=highway", "scenario.n_background=10", "train.variant=a-ppo",
         "train.total_steps=640", "train.eval_interval=640"),
    ),
    Workload(
        "highway-free",
        "LA-PPO on an empty highway: policy-bound (act, forward, backward, Adam) with "
        "the teacher on, so simulator changes must leave it unchanged",
        ("scenario.kind=highway", "scenario.n_background=0", "train.variant=la-ppo",
         "train.total_steps=3200", "train.eval_interval=640"),
    ),
)}


def resolve_config(workload: Workload, seed: int, out_dir):
    """Config resolution as `drivecoach train --config merge-lite` does it."""
    from drivecoach.config import apply_overrides, from_mapping, load_mapping

    mapping = load_mapping("merge-lite")
    apply_overrides(mapping, [*workload.overrides, f"train.seed={seed}", f"out_dir={out_dir}"])
    cfg = from_mapping(mapping)
    cfg.validate()
    return cfg


def build_trainer(cfg):
    """Teacher stack (LA-PPO only), both policy nets and the env, as the CLI builds them."""
    from drivecoach.config import build_teacher
    from drivecoach.trainer import Trainer

    teacher = build_teacher(cfg) if cfg.train.variant == "LA-PPO" else None
    return Trainer(cfg.scenario, cfg.train, cfg.risk, teacher=teacher, out_dir=cfg.out_dir)
