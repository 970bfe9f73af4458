"""Training loop: rollouts, teacher guidance scheduling, updates, evaluation.

The student acts at every step. While the run is inside the guidance window
(the first teacher_window_fraction of the step budget) the teacher is queried
once per decision step and its chosen maneuver is stored alongside the
transition; those labels drive the KL and distillation terms during updates.
Outside the window the teacher is never queried and both terms vanish.

Variants share this one loop:
    V-PPO   no teacher, no fusion (the policy holds the student encoder only)
    A-PPO   fusion on, no teacher
    LA-PPO  fusion on, teacher on
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, UsageError
from .nn import (
    AdamState,
    CheckpointError,
    adam_step,
    add,
    load_checkpoint,
    save_checkpoint,
)
from .policy import (
    VARIANTS,
    FusionPolicyNet,
    LossReport,
    entropy_bonus,
    guidance_losses,
    ppo_policy_loss,
    q_value_loss,
    total_loss,
    value_loss,
    value_targets,
)
from .records import build_section
from .risk import INFRACTION_EVENTS, RiskParams, delta_ttcp_metric, flag_segments, risk_value
from .sim.engine import FLAT_OBS_DIM, ScenarioState, TrafficEnv, observe, trace_record
from .sim.scenarios import ScenarioConfig
from .sim.vehicles import MANEUVER_TOKENS, Maneuver
from .teacher import FlaggedSegment, ScriptedBackend, TeacherAgent

METRICS_HEADER = "step,variant,scenario,success_rate,eval_reward,avg_speed,delta_ttcp,decision_time_s,seed"
LOSS_HEADER = "update,step,total,policy_loss,value_loss,distill_loss,kl_penalty,kl_value,entropy,clip,sigma"

# 2: the buffer stores time-limit truncation apart from termination
# 3: the buffer drops its step ids, and the meta its copy of the scenario config
# 4: the teacher block records its n_shot and backend kind
# 5: the teacher's memory is memory schema 2 (entries keyed by field name)
# 6: the env block's vehicles drop is_ego, and the env block drops disturbed_ids;
#    the meta drops evals_done, which global_step // eval_interval gives
CHECKPOINT_FORMAT = 6


def normalize_variant(name: str) -> str:
    key = str(name).strip().lower().replace("_", "-")
    for variant in VARIANTS:
        if key == variant.lower():
            return variant
    raise ConfigError(
        f"train.variant: {name!r} is not one of {[v.lower() for v in VARIANTS]}"
    )


@dataclass
class TrainConfig:
    total_steps: int = 100_000
    eval_interval: int = 500
    eval_episodes: int = 20
    rollout_size: int = 1600
    batch_size: int = 128
    epochs: int = 10
    lr: float = 5e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_initial: float = 0.2
    clip_floor: float = 0.02
    teacher_window_fraction: float = 0.10
    sigma_initial: float = 0.1
    sigma_final: float = 2.0
    kl_weight: float = 10.0
    value_coef: float = 0.5
    distill_coef: float = 1.0
    entropy_coef: float = 0.01
    checkpoint_every_evals: int = 10
    seed: int = 0
    variant: str = "LA-PPO"

    def __post_init__(self):
        self.variant = normalize_variant(self.variant)

    def validate(self) -> None:
        """Range checks, written so that NaN fails them."""
        positives = (
            "total_steps", "eval_interval", "eval_episodes", "rollout_size",
            "batch_size", "epochs", "checkpoint_every_evals",
        )
        for name in positives:
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name}: must be >= 1, got {getattr(self, name)}")
        if self.batch_size > self.rollout_size:
            raise ConfigError(
                f"train.batch_size: must not exceed rollout_size, got {self.batch_size} > {self.rollout_size}"
            )
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"train.lr: must be finite and > 0, got {self.lr}")
        if not 0 < self.gamma <= 1:
            raise ConfigError(f"train.gamma: must be in (0, 1], got {self.gamma}")
        if not 0 <= self.gae_lambda <= 1:
            raise ConfigError(f"train.gae_lambda: must be in [0, 1], got {self.gae_lambda}")
        if not 0 < self.teacher_window_fraction < 1:
            raise ConfigError(
                f"train.teacher_window_fraction: must be in (0, 1), got {self.teacher_window_fraction}"
            )
        if not 0 < self.sigma_initial <= self.sigma_final < math.inf:
            raise ConfigError(
                "train.sigma_initial/sigma_final: need 0 < initial <= final < inf, got "
                f"{self.sigma_initial} and {self.sigma_final}"
            )
        if not (0 < self.clip_initial < math.inf and 0 <= self.clip_floor < math.inf):
            raise ConfigError("train.clip_initial/clip_floor: need finite initial > 0 and floor >= 0, "
                              f"got {self.clip_initial} and {self.clip_floor}")
        for name in ("kl_weight", "value_coef", "distill_coef", "entropy_coef"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"train.{name}: must be finite and >= 0, got {getattr(self, name)}")


def window_steps(cfg: TrainConfig) -> int:
    return int(cfg.teacher_window_fraction * cfg.total_steps)


def clip_schedule(step: float, cfg: TrainConfig) -> float:
    """Linear decay from clip_initial to the floor over the whole budget."""
    progress = min(1.0, max(0.0, step / cfg.total_steps))
    return max(cfg.clip_floor, cfg.clip_initial * (1.0 - progress))


def sigma_schedule(step: float, cfg: TrainConfig) -> float:
    """Linear widening of the KL tolerance across the guidance window."""
    w = window_steps(cfg)
    frac = 1.0 if w == 0 else min(1.0, max(0.0, step / w))
    return cfg.sigma_initial + (cfg.sigma_final - cfg.sigma_initial) * frac


def metrics_row(report: "EvalReport", variant: str, scenario_kind: str, seed: int) -> str:
    """One metrics.csv line; fixed precision keeps identical runs byte-identical."""
    return (
        f"{report.step},{variant},{scenario_kind},"
        f"{report.success_rate:.3f},{report.eval_reward:.6f},"
        f"{report.avg_speed:.6f},{report.delta_ttcp:.6f},"
        f"{report.decision_time:.3f},{seed}"
    )


# the files a run appends to as it goes
APPENDED_ARTIFACTS = ("metrics.csv", "losses.csv", "episodes.jsonl")


def check_fresh_out_dir(out_dir: Path) -> None:
    """Refuse a directory where a run starting at step 0 would append its rows
    to an earlier run's; a resumed run appends to them on purpose."""
    for name in APPENDED_ARTIFACTS:
        path = out_dir / name
        if path.exists():
            raise ConfigError(f"out_dir: {path} already exists, and a run from step 0 would "
                              f"append to it; use an empty directory or resume a checkpoint")


def append_csv_row(path: Path, header: str, line: str) -> None:
    """Append one row to a CSV file, writing the header first if the file is new."""
    new = not path.exists()
    with open(path, "a") as f:
        if new:
            f.write(header + "\n")
        f.write(line + "\n")


def gae_advantages(targets, values, dones, gamma: float, lam: float) -> np.ndarray:
    """Generalized advantage estimates over one stored trajectory segment.

    targets are value_targets' one-step bootstraps, so each TD residual is
    targets - values, and a time-limit truncation bootstraps there. Every
    done row, truncated or not, cuts the recursion: the next stored row
    belongs to a new episode.
    """
    deltas = np.asarray(targets, dtype=np.float64) - np.asarray(values, dtype=np.float64)
    same_episode = 1.0 - np.asarray(dones, dtype=np.float64)
    adv = np.zeros_like(deltas)
    carry = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        carry = deltas[t] + gamma * lam * same_episode[t] * carry
        adv[t] = carry
    return adv


@dataclass
class EvalReport:
    step: int
    success_rate: float
    eval_reward: float
    avg_speed: float
    delta_ttcp: float
    # s per batched forward, one of which serves every live eval episode,
    # rounded up to 1 ms resolution
    decision_time: float


class RolloutBuffer:
    """Fixed-capacity transition store for one collect/update cycle."""

    # every per-row array, in the order checkpoints store them
    ARRAYS = ("obs", "next_obs", "actions", "logp", "rewards", "values", "dones",
              "truncated", "teacher_actions")

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ConfigError(f"rollout buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.next_obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.logp = np.zeros(capacity)
        self.rewards = np.zeros(capacity)
        self.values = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.truncated = np.zeros(capacity, dtype=bool)  # done by the time limit only
        self.teacher_actions = np.full(capacity, -1, dtype=np.int64)  # -1: unlabeled
        self.n = 0

    @property
    def full(self) -> bool:
        return self.n >= self.capacity

    def add(self, *, obs, action, logp, reward, value, done, next_obs,
            teacher_action=None, truncated=False) -> None:
        if self.full:
            raise UsageError("rollout buffer is full")
        i = self.n
        self.obs[i] = obs
        self.next_obs[i] = next_obs
        self.actions[i] = int(action)
        self.logp[i] = logp
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = bool(done)
        self.truncated[i] = bool(truncated)
        if teacher_action is not None:
            self.teacher_actions[i] = int(teacher_action)
        self.n += 1

    def clear(self) -> None:
        self.n = 0
        self.teacher_actions[:] = -1


@dataclass
class EpisodeAccumulator:
    """Per-episode bookkeeping for memory writes, reflection, and logging."""

    seed: int = 0
    ret: float = 0.0
    length: int = 0
    actions: list[int] = field(default_factory=list)
    omegas: list[float] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    z_steps: list[int] = field(default_factory=list)  # step index of each teacher query
    z_list: list[np.ndarray] = field(default_factory=list)

    def to_meta(self) -> dict:
        """Every field but z_list, which checkpoints store as the episode.z array."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "z_list"}


class Trainer:
    """Single-threaded train/eval loop with full-state checkpointing."""

    def __init__(self, scenario: ScenarioConfig, train: TrainConfig,
                 risk: RiskParams | None = None, teacher: TeacherAgent | None = None,
                 out_dir=None):
        train.validate()
        self.scenario = scenario
        self.cfg = train
        self.risk_params = risk or RiskParams()
        if train.variant == "LA-PPO":
            self.teacher = teacher or TeacherAgent(ScriptedBackend(), self.risk_params)
        else:
            if teacher is not None:
                raise ConfigError(f"train.variant: {train.variant} does not take a teacher")
            self.teacher = None
        self.policy = FusionPolicyNet(FLAT_OBS_DIM, seed=train.seed, variant=train.variant)
        self.adam = AdamState.for_params(self.policy.params)
        self.rng = np.random.default_rng(train.seed)
        self.env = TrafficEnv(scenario, self.risk_params)
        self.buffer = RolloutBuffer(train.rollout_size, FLAT_OBS_DIM)
        self.global_step = 0
        self.updates_done = 0
        self.episode_index = 0
        self.eval_reports: list[EvalReport] = []
        self._obs: np.ndarray | None = None
        self._ep = EpisodeAccumulator()
        self._stop_at: int | None = None
        self.out_dir = Path(out_dir) if out_dir is not None else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    # --- rollout collection --------------------------------------------------

    def _begin_episode(self) -> None:
        seed = int(self.rng.integers(2**31 - 1))
        obs = self.env.reset(seed=seed)
        self._obs = obs.flat()
        self._ep = EpisodeAccumulator(seed=seed)

    def _collect_one_step(self) -> None:
        if self._obs is None:
            self._begin_episode()
        in_window = self.global_step < window_steps(self.cfg)
        teacher_action = None
        if self.teacher is not None and in_window:
            decision, z = self.teacher.decide_step(self.env.state)
            teacher_action = int(decision.action)
            self._ep.z_steps.append(self._ep.length)
            self._ep.z_list.append(z)
        action, logp, value = self.policy.act(self._obs, rng=self.rng)
        try:
            out = self.env.step(Maneuver(action))
        except Exception as err:
            raise RuntimeError(
                f"environment fault at global step {self.global_step}, "
                f"episode {self.episode_index}: {err}"
            ) from err
        omega = risk_value(out.tau_min, bool(INFRACTION_EVENTS & out.events), self.risk_params)
        next_flat = out.observation.flat()
        self.buffer.add(obs=self._obs, action=action, logp=logp, reward=out.reward,
                        value=value, done=out.done, next_obs=next_flat,
                        teacher_action=teacher_action,
                        truncated="timeout" in out.events)
        ep = self._ep
        ep.ret += out.reward
        ep.length += 1
        ep.actions.append(action)
        ep.omegas.append(omega)
        ep.taus.append(float(out.tau_min))
        self.global_step += 1
        if out.done:
            self._finish_episode(out.events)
        else:
            self._obs = next_flat
        if self.global_step % self.cfg.eval_interval == 0:
            report = self.evaluate()
            self.eval_reports.append(report)
            self._append_metrics(report)
            evals_done = self.global_step // self.cfg.eval_interval
            if self.out_dir is not None and evals_done % self.cfg.checkpoint_every_evals == 0:
                self.save(self.out_dir / f"checkpoint_step{self.global_step}.dckp")

    @property
    def _stopped(self) -> bool:
        """Whether run(stop_after_step=...) has reached its stop step."""
        return self._stop_at is not None and self.global_step >= self._stop_at

    def _finish_episode(self, events: set) -> None:
        ep = self._ep
        if self.out_dir is not None:
            line = json.dumps({
                "episode": self.episode_index, "seed": ep.seed,
                "global_step": self.global_step, "length": ep.length,
                "return": ep.ret, "events": sorted(events),
                "success": "success" in events,
            }, sort_keys=True)
            with open(self.out_dir / "episodes.jsonl", "a") as f:
                f.write(line + "\n")
        if self.teacher is not None and ep.z_list:
            # one memory entry per episode, anchored at the riskiest queried step
            best = max(range(len(ep.z_steps)), key=lambda i: ep.omegas[ep.z_steps[i]])
            step_idx = ep.z_steps[best]
            if "collision" in events:
                label = "collision"
            elif "success" in events:
                label = "success"
            else:
                label = "other"
            self.teacher.record_episode(ep.z_list[best], self.scenario.kind,
                                        Maneuver(ep.actions[step_idx]), label, ep.ret)
            if self.global_step <= window_steps(self.cfg):
                ranges = flag_segments(ep.omegas, self.risk_params)
                if ranges:
                    segments = [
                        FlaggedSegment(
                            scenario_kind=self.scenario.kind,
                            actions=[MANEUVER_TOKENS[Maneuver(a)] for a in ep.actions[s:e + 1]],
                            omegas=ep.omegas[s:e + 1],
                            tau_mins=ep.taus[s:e + 1],
                        )
                        for s, e in ranges
                    ]
                    self.teacher.run_reflection(segments)
        self.episode_index += 1
        self._obs = None

    def _fill_buffer(self) -> None:
        while (not self.buffer.full and self.global_step < self.cfg.total_steps
               and not self._stopped):
            self._collect_one_step()

    # --- optimization ---------------------------------------------------------

    def update(self) -> list[LossReport]:
        """One optimization cycle over the buffer; clears it afterwards.

        The buffer is normally full; the final rollout of a run may truncate
        at the step budget and update on what it has. The parameters hold
        gradients only inside this call: each minibatch zeroes them, and they
        are dropped before it returns.
        """
        n = self.buffer.n
        if n == 0:
            raise UsageError("update needs collected transitions")
        cfg = self.cfg
        # collection is contiguous and update() empties the buffer, so it holds
        # steps global_step - n .. global_step - 1; this is their exact mean
        t_mid = self.global_step - (n + 1) / 2
        eps_clip = clip_schedule(t_mid, cfg)
        sigma = sigma_schedule(t_mid, cfg)
        next_values = self.policy.infer(self.buffer.next_obs[:n])[2][:, 0]
        buf = self.buffer
        targets = value_targets(buf.rewards[:n], next_values, buf.dones[:n], cfg.gamma,
                                truncated=buf.truncated[:n])
        adv = gae_advantages(targets, buf.values[:n], buf.dones[:n], cfg.gamma, cfg.gae_lambda)
        reports = []
        for _ in range(cfg.epochs):
            perm = self.rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                idx = perm[lo:lo + cfg.batch_size]
                reports.append(self._update_minibatch(idx, adv, targets, eps_clip, sigma))
        self.policy.params.drop_grad()
        self.buffer.clear()
        self.updates_done += 1
        if self.out_dir is not None:
            self._append_losses(reports, eps_clip, sigma)
        return reports

    def _update_minibatch(self, idx, adv_all, targets_all, eps_clip, sigma) -> LossReport:
        cfg = self.cfg
        buf = self.buffer
        actions = buf.actions[idx]
        adv = adv_all[idx]
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        out = self.policy.forward(buf.obs[idx])
        policy = ppo_policy_loss(out.log_pi, actions, buf.logp[idx], adv, eps_clip)
        value = add(value_loss(out.v, targets_all[idx]),
                    q_value_loss(out.q_values, actions, targets_all[idx]))
        ent = entropy_bonus(out.pi, out.log_pi)
        kl_pen, distill, kl_value = guidance_losses(
            out.pi, out.log_teacher_pi_hat, buf.teacher_actions[idx], sigma, cfg.kl_weight)
        total, report = total_loss(policy, value, distill, kl_pen, ent, kl_value,
                                   c_v=cfg.value_coef, c_d=cfg.distill_coef,
                                   c_e=cfg.entropy_coef)
        self.policy.params.zero_grad()
        total.backward()
        adam_step(self.policy.params, self.adam, cfg.lr)
        return report

    # --- evaluation -----------------------------------------------------------

    def _eval_seed(self, episode: int) -> int:
        return 1_000_000 + self.cfg.seed * 1000 + episode

    def _greedy_lockstep(self, n: int, step) -> list[float]:
        """Run the first n eval seeds side by side under the greedy policy.

        Every episode resets first. Each decision step then makes one batched
        `infer` over the episodes still running, takes each row's argmax, and
        calls step(episode, env, maneuver), which steps env and returns the
        outcome. Greedy play draws no randomness, so each episode takes the
        path it would take alone, unless an argmax is within an ulp of a tie.
        Returns the wall time of each batched forward.
        """
        envs = [TrafficEnv(self.scenario, self.risk_params) for _ in range(n)]
        live = {e: env.reset(seed=self._eval_seed(e)).flat() for e, env in enumerate(envs)}
        forward_s = []
        while live:
            t0 = time.perf_counter()
            pi, _, _ = self.policy.infer(np.stack(list(live.values())))
            forward_s.append(time.perf_counter() - t0)
            for e, action in zip(list(live), np.argmax(pi, axis=1)):
                out = step(e, envs[e], Maneuver(int(action)))
                if out.done:
                    del live[e]
                else:
                    live[e] = out.observation.flat()
        return forward_s

    def evaluate(self, n_episodes: int | None = None) -> EvalReport:
        """Greedy policy on a fixed seed set; the training episode is untouched."""
        n = self.cfg.eval_episodes if n_episodes is None else n_episodes
        if n < 1:
            raise UsageError("evaluate needs at least one episode")
        returns = [0.0] * n
        speeds = [[] for _ in range(n)]
        taus = [[] for _ in range(n)]
        success = [False] * n

        def step(e, env, maneuver):
            out = env.step(maneuver)
            returns[e] += out.reward
            speeds[e].append(out.observation.ego_speed)
            taus[e].append(out.tau_min)
            success[e] = "success" in out.events
            return out

        forward_s = self._greedy_lockstep(n, step)
        # wall time is reported at millisecond resolution, rounded up, so the
        # figure is reproducible across identical runs and never reads as zero
        decision_time = math.ceil(float(np.mean(forward_s)) * 1000.0) / 1000.0
        return EvalReport(
            step=self.global_step,
            success_rate=sum(success) / n,
            eval_reward=float(np.mean(returns)),
            avg_speed=float(np.mean([np.mean(s) for s in speeds])),
            delta_ttcp=float(np.mean([delta_ttcp_metric(t, self.risk_params) for t in taus])),
            decision_time=decision_time,
        )

    # --- artifacts ------------------------------------------------------------

    def _append_metrics(self, report: EvalReport) -> None:
        if self.out_dir is None:
            return
        append_csv_row(self.out_dir / "metrics.csv", METRICS_HEADER,
                       metrics_row(report, self.cfg.variant, self.scenario.kind, self.cfg.seed))

    def _append_losses(self, reports: list[LossReport], eps_clip: float, sigma: float) -> None:
        mean = lambda name: float(np.mean([getattr(r, name) for r in reports]))
        line = (
            f"{self.updates_done},{self.global_step},{mean('total'):.6f},"
            f"{mean('policy_loss'):.6f},{mean('value_loss'):.6f},"
            f"{mean('distill_loss'):.6f},{mean('kl_penalty'):.6f},"
            f"{mean('kl_value'):.6f},{mean('entropy'):.6f},"
            f"{eps_clip:.6f},{sigma:.6f}"
        )
        append_csv_row(self.out_dir / "losses.csv", LOSS_HEADER, line)

    def _write_traces(self) -> None:
        """Greedy trajectories on the eval seed set, one JSON record per step."""
        lines = [[] for _ in range(self.cfg.eval_episodes)]

        def step(e, env, maneuver):
            pre = env.state.state_dict()
            out = env.step(maneuver)
            record = trace_record(env.state, maneuver, out)
            record["episode"] = e
            record["state"] = pre
            lines[e].append(json.dumps(record, sort_keys=True) + "\n")
            return out

        self._greedy_lockstep(self.cfg.eval_episodes, step)
        with open(self.out_dir / "traces.jsonl", "w") as f:
            for episode in lines:
                f.writelines(episode)

    # --- checkpointing ----------------------------------------------------------

    def save(self, path) -> None:
        # the live arrays: saving only reads them
        arrays = {f"param.{name}": p.data for name, p in self.policy.params.items()}
        for name in self.adam.m:
            arrays[f"adam_m.{name}"] = self.adam.m[name]
            arrays[f"adam_v.{name}"] = self.adam.v[name]
        for name in RolloutBuffer.ARRAYS:
            arrays[f"buffer.{name}"] = getattr(self.buffer, name)
        if self._ep.z_list:
            arrays["episode.z"] = np.stack(self._ep.z_list)
        env = None
        if self.env.state is not None:
            env = self.env.state.state_dict()
            del env["config"]  # meta["scenario"] holds it
        meta = {
            "format": CHECKPOINT_FORMAT,
            "architecture": self.policy.architecture_id(),
            "train": asdict(self.cfg),
            "scenario": self.scenario.to_dict(),
            "risk": asdict(self.risk_params),
            "global_step": self.global_step,
            "updates_done": self.updates_done,
            "episode_index": self.episode_index,
            "buffer_n": self.buffer.n,
            "adam_step": self.adam.step,
            "rng": self.rng.bit_generator.state,
            "env": env,
            "episode": self._ep.to_meta(),
            "teacher": self.teacher.state_dict() if self.teacher is not None else None,
        }
        save_checkpoint(str(path), arrays, meta)

    @classmethod
    def resume(cls, path, out_dir=None) -> "Trainer":
        """Rebuild a run from its checkpoint alone; an LA-PPO teacher comes back on the scripted backend.

        It constructs a Trainer from the saved configs and then loads the saved
        arrays into it. Construction still draws every weight from the seed,
        which the checkpoint's weights then overwrite; the fresh Adam moments
        it replaces were never written, and the parameters hold no gradients.
        """
        arrays, meta = load_checkpoint(str(path))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"unsupported checkpoint format: {meta.get('format')!r}")
        train = build_section("train", TrainConfig, meta["train"])
        scenario = build_section("scenario", ScenarioConfig, meta["scenario"])
        risk = build_section("risk", RiskParams, meta["risk"])
        trainer = cls(scenario, train, risk, out_dir=out_dir)
        want = trainer.policy.architecture_id()
        if meta["architecture"] != want:
            raise CheckpointError(
                f"architecture mismatch: checkpoint holds {meta['architecture']!r}, "
                f"this configuration builds {want!r}"
            )
        trainer.policy.load_state_dict(_strip(arrays, "param."))
        adam_m = _strip(arrays, "adam_m.")
        adam_v = _strip(arrays, "adam_v.")
        for name in trainer.adam.m:
            trainer.adam.m[name] = adam_m[name]
            trainer.adam.v[name] = adam_v[name]
        trainer.adam.step = int(meta["adam_step"])
        for name in RolloutBuffer.ARRAYS:
            getattr(trainer.buffer, name)[:] = arrays[f"buffer.{name}"]
        trainer.buffer.n = int(meta["buffer_n"])
        trainer.global_step = int(meta["global_step"])
        trainer.updates_done = int(meta["updates_done"])
        trainer.episode_index = int(meta["episode_index"])
        trainer.rng.bit_generator.state = meta["rng"]
        if meta["env"] is not None:
            trainer.env.state = ScenarioState.from_state_dict(meta["env"], scenario, section="env")
        trainer._ep = build_section("episode", EpisodeAccumulator, {
            **meta["episode"], "z_list": list(arrays.get("episode.z", ()))})
        if trainer.env.state is not None and not trainer.env.state.done:
            trainer._obs = observe(trainer.env.state).flat()
        if trainer.teacher is not None:
            trainer.teacher.load_state_dict(meta["teacher"])
        return trainer

    def _check_no_rows_past(self) -> None:
        """Refuse an out_dir whose appended files hold more rows than this run
        had written by its step: a run killed after its last checkpoint leaves
        them, and running on from the checkpoint would write them again."""
        written = {"metrics.csv": self.global_step // self.cfg.eval_interval,
                   "losses.csv": self.updates_done,
                   "episodes.jsonl": self.episode_index}
        for name in APPENDED_ARTIFACTS:
            path = self.out_dir / name
            if not path.exists():
                continue
            rows = len(path.read_text().splitlines())
            if name.endswith(".csv"):
                rows -= 1  # the header
            if rows > written[name]:
                raise ConfigError(
                    f"out_dir: {path} holds {rows} rows, {rows - written[name]} of them past "
                    f"step {self.global_step}, which running on would write again; resume the "
                    f"run's latest checkpoint")

    # --- top level --------------------------------------------------------------

    def run(self, stop_after_step: int | None = None) -> list[EvalReport]:
        """Collect/update until the step budget; returns the eval history.

        stop_after_step halts collection once the global step reaches it and
        writes a resumable checkpoint instead of finishing the run. A run from
        step 0 refuses an out_dir that holds an earlier run's rows
        (`check_fresh_out_dir`); a resumed run appends to them, and refuses an
        out_dir that holds rows past its step (`_check_no_rows_past`). A finished
        run writes checkpoint_final.dckp, traces.jsonl and, for LA-PPO, the
        teacher's memory.json, a file teacher.memory_path can preload.
        """
        if self.out_dir is not None:
            if self.global_step == 0:
                check_fresh_out_dir(self.out_dir)
            else:
                self._check_no_rows_past()
        self._stop_at = stop_after_step
        while self.global_step < self.cfg.total_steps and not self._stopped:
            self._fill_buffer()
            if self.buffer.n and not self._stopped:
                self.update()
        if self.out_dir is not None:
            if self._stopped:
                self.save(self.out_dir / f"checkpoint_step{self.global_step}.dckp")
            else:
                self.save(self.out_dir / "checkpoint_final.dckp")
                if self.teacher is not None:
                    self.teacher.memory.save(self.out_dir / "memory.json")
                self._write_traces()
        return self.eval_reports


def _strip(arrays: dict, prefix: str) -> dict:
    return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
