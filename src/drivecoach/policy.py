"""Teacher-fused actor-critic network and its training losses.

Two encoders read the same flattened observation: a student branch and a
teacher branch. Each fusion head projects the teacher embedding; the heads
are concatenated, projected back down, and added to the student embedding as
a residual. A policy head and a state-value head read the fused vector, the
two outputs the PPO objective reads. One demonstration head reads the raw
teacher embedding, so that distillation trains the teacher branch without
steering the student heads directly.

Each variant builds only the weights its objective trains:
    V-PPO   the student encoder and the policy/value heads; no teacher branch
    A-PPO   adds the teacher encoder and the fusion
    LA-PPO  adds the demonstration head, which only teacher labels train

Two passes read the same weights in the same op order. `forward` records the
autodiff tape and serves only the training minibatches that backpropagate.
`infer` is plain numpy and serves every call that never differentiates:
`act` during rollouts, the bootstrap values of an update, and the batched
greedy evaluation and trace episodes. At equal input they give bit-identical
pi, log_pi and v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .sampling import draw_indices, weighted_cdf
from .nn import (
    ParamStore,
    ShapeError,
    Tensor,
    add,
    clip,
    concat,
    exp,
    gather,
    log,
    log_softmax,
    matmul,
    minimum,
    mul,
    neg,
    relu,
    scale,
    softmax,
    sub,
    tanh,
    tmean,
    tsum,
)

VARIANTS = ("V-PPO", "A-PPO", "LA-PPO")

ACTION_DIM = 5
EMBED_DIM = 128
N_HEADS = 2

# probability mass a teacher demonstration puts on its chosen action; the
# remainder spreads evenly so the KL term stays finite
TEACHER_CONFIDENCE = 0.9

# floors applied before taking logs inside the KL
TEACHER_PROB_FLOOR = 1e-8
STUDENT_PROB_FLOOR = 1e-12


@dataclass
class PolicyOutput:
    """One forward pass. All fields are graph tensors over a (batch, ...) axis."""

    pi: Tensor  # (B, 5) action distribution from the fused embedding
    log_pi: Tensor  # (B, 5) its log, computed stably for ratios and entropy
    v: Tensor  # (B, 1) state value
    log_teacher_pi_hat: Tensor | None  # (B, 5) log of the demonstration head; LA-PPO only


class FusionPolicyNet:
    """Actor-critic with a teacher branch fused in as a residual.

    h = h_s + concat_i(h_t @ attn{i}.wv) @ attn_out.w, where h_s and h_t are
    the student and teacher embeddings, and the policy and state-value heads
    read h. V-PPO has no teacher branch and its heads read h_s alone; only
    LA-PPO has the demonstration head.
    """

    def __init__(self, input_dim: int, seed: int = 0, variant: str = "LA-PPO"):
        if variant not in VARIANTS:
            raise UsageError(f"unknown variant {variant!r}, expected one of {list(VARIANTS)}")
        self.input_dim = int(input_dim)
        self.variant = variant
        self.fused = variant != "V-PPO"
        self.guided = variant == "LA-PPO"
        self.params = ParamStore()
        rng = np.random.default_rng(seed)
        # Every variant draws every weight in one fixed order and drops the ones
        # it does not keep, so each kept weight starts byte-identical across
        # variants: V-PPO, A-PPO and LA-PPO start from the same student
        # encoder and heads, and the ablation stays paired.
        for enc, keep in (("f_s", True), ("f_t", self.fused)):
            self._linear(rng, f"{enc}.w1", f"{enc}.b1", self.input_dim, EMBED_DIM, keep)
            self._linear(rng, f"{enc}.w2", f"{enc}.b2", EMBED_DIM, EMBED_DIM, keep)
        self._linear(rng, "teacher_pi.w", "teacher_pi.b", EMBED_DIM, ACTION_DIM, self.guided)
        for i in range(N_HEADS):
            self._weight(rng, f"attn{i}.wv", EMBED_DIM, EMBED_DIM, self.fused)
        self._weight(rng, "attn_out.w", N_HEADS * EMBED_DIM, EMBED_DIM, self.fused)
        self._linear(rng, "pi.w", "pi.b", EMBED_DIM, ACTION_DIM)
        self._linear(rng, "v.w", "v.b", EMBED_DIM, 1)

    def _weight(self, rng, name, fan_in, fan_out, keep=True):
        w = _glorot(rng, fan_in, fan_out)
        if keep:
            self.params.add(name, w)

    def _linear(self, rng, w_name, b_name, fan_in, fan_out, keep=True):
        self._weight(rng, w_name, fan_in, fan_out, keep)
        if keep:
            self.params.add(b_name, np.zeros(fan_out))

    def _encode(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        h = tanh(add(matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return tanh(add(matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"]))

    def _batch(self, obs) -> np.ndarray:
        x = np.asarray(obs, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(
                f"expected observations of width {self.input_dim}, got {x.shape}"
            )
        return x

    def forward(self, obs) -> PolicyOutput:
        p = self.params
        xt = Tensor(self._batch(obs))
        h = self._encode(xt, "f_s")
        log_teacher_pi_hat = None
        if self.fused:
            h_t = self._encode(xt, "f_t")
            heads = [matmul(h_t, p[f"attn{i}.wv"]) for i in range(N_HEADS)]
            h = add(matmul(concat(heads, axis=-1), p["attn_out.w"]), h)
            if self.guided:
                log_teacher_pi_hat = log_softmax(
                    add(matmul(h_t, p["teacher_pi.w"]), p["teacher_pi.b"]))

        logits = add(matmul(h, p["pi.w"]), p["pi.b"])
        return PolicyOutput(
            pi=softmax(logits),
            log_pi=log_softmax(logits),
            v=add(matmul(h, p["v.w"]), p["v.b"]),
            log_teacher_pi_hat=log_teacher_pi_hat,
        )

    def infer(self, obs) -> tuple:
        """(pi, log_pi, v) as plain arrays, with no tape.

        The ops and their order are forward's, so each output is bit-identical
        to forward(obs)'s at the same input. Rows of a batch may differ from
        the same rows run one at a time in the last ulp, as any gemm may. Each
        bias, tanh and residual is applied in place, the heads are projected
        into one preallocated block, and the teacher embedding and that block
        are released once read, so a large batch holds few arrays at once.
        """
        x = self._batch(obs)
        p = self.params

        def encode(prefix):
            h = x @ p[f"{prefix}.w1"].data
            h += p[f"{prefix}.b1"].data
            np.tanh(h, out=h)
            out = h @ p[f"{prefix}.w2"].data
            out += p[f"{prefix}.b2"].data
            return np.tanh(out, out=out)

        h = encode("f_s")
        if self.fused:
            h_t = encode("f_t")
            block = np.empty((len(x), N_HEADS * EMBED_DIM))
            for i in range(N_HEADS):
                cols = slice(i * EMBED_DIM, (i + 1) * EMBED_DIM)
                np.matmul(h_t, p[f"attn{i}.wv"].data, out=block[:, cols])
            del h_t
            fused = block @ p["attn_out.w"].data
            del block
            fused += h
            h = fused
        logits = h @ p["pi.w"].data + p["pi.b"].data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        pi = e / e.sum(axis=-1, keepdims=True)
        log_pi = shifted - np.log(e.sum(axis=-1, keepdims=True))
        return pi, log_pi, h @ p["v.w"].data + p["v.b"].data

    def act(self, obs, rng: np.random.Generator):
        """Sample one action for a single observation.

        Returns (action, log-prob of that action, state value). Sampling
        needs an explicit generator so rollouts stay reproducible; it draws
        the action `rng.choice(ACTION_DIM, p=pi)` would, and probabilities
        with a NaN or infinite total raise ValueError.
        """
        pi, log_pi, v = self.infer(obs)
        action = int(draw_indices(rng, weighted_cdf(pi[0]), 1)[0])
        return action, float(log_pi[0, action]), float(v[0, 0])

    def architecture_id(self) -> str:
        """Identity string stored in checkpoints to reject mismatched loads."""
        return (
            f"fusion-v4:in{self.input_dim}:embed{EMBED_DIM}"
            f":heads{N_HEADS}:act{ACTION_DIM}:{self.variant}"
        )

    def load_state_dict(self, state: dict) -> None:
        self.params.load_state_dict(state)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def teacher_distribution(action) -> np.ndarray:
    """Smoothed one-hot over actions for a teacher demonstration.

    An array of actions gives one row per entry.
    """
    a = np.asarray(action, dtype=np.int64)
    d = np.full(a.shape + (ACTION_DIM,), (1.0 - TEACHER_CONFIDENCE) / (ACTION_DIM - 1))
    np.put_along_axis(d, a[..., None], TEACHER_CONFIDENCE, axis=-1)
    return d


def value_targets(rewards, next_values, dones, gamma: float, truncated=None) -> np.ndarray:
    """One-step bootstrap targets; terminal transitions use the reward alone.

    A done row that is also truncated (the episode hit its time limit) is not
    terminal: the observation carries no clock, so its successor has a value
    like any other state and the target bootstraps from it (Pardo et al.
    2018, "Time Limits in Reinforcement Learning").
    """
    r = np.asarray(rewards, dtype=np.float64)
    nv = np.asarray(next_values, dtype=np.float64)
    terminal = np.asarray(dones, dtype=bool)
    if truncated is not None:
        terminal = terminal & ~np.asarray(truncated, dtype=bool)
    return r + gamma * nv * (1.0 - terminal.astype(np.float64))


def value_loss(values: Tensor, targets) -> Tensor:
    """Mean squared error of the state-value head against bootstrap targets."""
    if values.data.size == 0:
        raise UsageError("value loss needs a non-empty batch")
    t = Tensor(np.asarray(targets, dtype=np.float64).reshape(values.data.shape))
    d = sub(values, t)
    return tmean(mul(d, d))


def ppo_policy_loss(log_pi: Tensor, actions, logp_old, advantages, clip_range: float) -> Tensor:
    """Clipped surrogate objective, negated for minimization."""
    if log_pi.data.shape[0] == 0:
        raise UsageError("policy loss needs a non-empty batch")
    logp_new = gather(log_pi, np.asarray(actions, dtype=np.int64))
    old = np.asarray(logp_old, dtype=np.float64).reshape(logp_new.data.shape)
    adv = Tensor(np.asarray(advantages, dtype=np.float64).reshape(logp_new.data.shape))
    ratio = exp(sub(logp_new, Tensor(old)))
    surrogate = minimum(mul(ratio, adv), mul(clip(ratio, 1.0 - clip_range, 1.0 + clip_range), adv))
    return neg(tmean(surrogate))


def kl_to_teacher(pi_student: Tensor, pi_teacher: np.ndarray) -> Tensor:
    """KL(student || teacher), per sample for batched input.

    The teacher distribution is floored and renormalized so a hard one-hot
    cannot produce an infinite divergence; the student side is floored only
    at the log to guard exact zeros out of a saturated softmax.
    """
    pt = np.maximum(np.asarray(pi_teacher, dtype=np.float64), TEACHER_PROB_FLOOR)
    pt = pt / pt.sum(axis=-1, keepdims=True)
    ps = clip(pi_student, STUDENT_PROB_FLOOR, 1.0)
    return tsum(mul(ps, sub(log(ps), Tensor(np.log(pt)))), axis=-1)


def kl_penalty(kl: Tensor, sigma: float, lam: float) -> Tensor:
    """Quadratic hinge: zero up to the tolerance, lam * (kl - sigma)^2 above."""
    h = relu(sub(kl, Tensor(np.asarray(float(sigma)))))
    return scale(mul(h, h), lam)


def guidance_losses(pi: Tensor, log_teacher_pi_hat: Tensor | None, teacher_actions,
                    sigma: float, kl_weight: float) -> tuple:
    """KL hinge and distillation over the teacher-labeled rows of a batch.

    teacher_actions holds -1 where the teacher gave no label. Returns
    (kl penalty, distillation, mean raw KL): the hinge on KL(student ||
    smoothed teacher) and the negative log-likelihood of the demonstrated
    action under the demonstration head, each averaged over labeled rows.
    A batch with no labels gives zeros and never reads log_teacher_pi_hat,
    which is None for the variants that take no teacher.
    """
    acts = np.asarray(teacher_actions, dtype=np.int64)
    mask = acts >= 0
    n_labeled = int(mask.sum())
    if not n_labeled:
        return Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0)), 0.0
    maskf = mask.astype(np.float64)
    demo = np.where(mask, acts, 0)
    pi_teacher = np.where(mask[:, None], teacher_distribution(demo), 0.0)
    kl_vec = kl_to_teacher(pi, pi_teacher)
    penalty = kl_penalty(kl_vec, sigma, kl_weight)
    kl_pen = scale(tsum(mul(penalty, Tensor(maskf))), 1.0 / n_labeled)
    kl_value = float((kl_vec.data * maskf).sum() / n_labeled)
    nll = neg(gather(log_teacher_pi_hat, demo))
    distill = scale(tsum(mul(nll, Tensor(maskf[:, None]))), 1.0 / n_labeled)
    return kl_pen, distill, kl_value


def entropy_bonus(pi: Tensor, log_pi: Tensor) -> Tensor:
    """Mean policy entropy over the batch."""
    return neg(tmean(tsum(mul(pi, log_pi), axis=-1)))


@dataclass
class LossReport:
    """Scalar snapshot of one update's loss components."""

    total: float
    policy_loss: float
    value_loss: float
    distill_loss: float
    kl_penalty: float
    kl_value: float
    entropy: float


def total_loss(
    policy_loss: Tensor,
    value: Tensor,
    distill: Tensor,
    kl_pen: Tensor,
    entropy: Tensor,
    kl_value: float,
    c_v: float = 0.5,
    c_d: float = 1.0,
    c_e: float = 0.01,
) -> tuple:
    """Weighted sum of the components; returns (graph scalar, float report).

    The KL penalty carries its own multiplier already, so it enters with
    weight 1. kl_value is the raw divergence for the report.
    """
    total = add(policy_loss, scale(value, c_v))
    total = add(total, scale(distill, c_d))
    total = add(total, kl_pen)
    total = sub(total, scale(entropy, c_e))
    report = LossReport(
        total=float(total.data),
        policy_loss=float(policy_loss.data),
        value_loss=float(value.data),
        distill_loss=float(distill.data),
        kl_penalty=float(kl_pen.data),
        kl_value=float(kl_value),
        entropy=float(entropy.data),
    )
    return total, report
