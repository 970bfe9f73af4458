"""Fusion network and loss tests.

The forward oracle is a loop-free numpy reimplementation of the published
equations operating on the network's raw weight arrays; losses are checked
against hand arithmetic and finite differences.
"""

import math

import numpy as np
import pytest

from drivecoach.errors import UsageError
from drivecoach.sim.engine import FLAT_OBS_DIM
from drivecoach.nn import Tensor, ShapeError
from drivecoach.sampling import draw_indices, weighted_cdf
from drivecoach.policy import (
    ACTION_DIM,
    VARIANTS,
    FusionPolicyNet,
    LossReport,
    entropy_bonus,
    guidance_losses,
    kl_penalty,
    kl_to_teacher,
    ppo_policy_loss,
    teacher_distribution,
    total_loss,
    value_loss,
    value_targets,
)

IN_DIM = 42


def reference_forward(weights: dict, x: np.ndarray):
    """Straight-line forward pass: encoders, residual fusion, heads.

    A weight set without the teacher encoder (V-PPO) reads the student
    embedding alone; one without the demonstration head gives None for it.
    """

    def mlp(prefix):
        h = np.tanh(x @ weights[f"{prefix}.w1"] + weights[f"{prefix}.b1"])
        return np.tanh(h @ weights[f"{prefix}.w2"] + weights[f"{prefix}.b2"])

    def soft(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    h = mlp("f_s")
    teacher_pi = None
    if "f_t.w1" in weights:
        h_t = mlp("f_t")
        heads = [h_t @ weights[f"attn{i}.wv"] for i in range(2)]
        h = np.concatenate(heads, axis=-1) @ weights["attn_out.w"] + h
        if "teacher_pi.w" in weights:
            teacher_pi = soft(h_t @ weights["teacher_pi.w"] + weights["teacher_pi.b"])

    pi = soft(h @ weights["pi.w"] + weights["pi.b"])
    v_out = h @ weights["v.w"] + weights["v.b"]
    return pi, v_out, teacher_pi


def batch_obs(rng, n=4):
    return rng.normal(size=(n, IN_DIM))


class TestForward:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        x = batch_obs(rng, 6)
        for variant in VARIANTS:
            net = FusionPolicyNet(IN_DIM, seed=1, variant=variant)
            out = net.forward(x)
            ref = reference_forward({k: p.data.copy() for k, p in net.params.items()}, x)
            np.testing.assert_allclose(out.pi.data, ref[0], atol=1e-10)
            np.testing.assert_allclose(out.v.data, ref[1], atol=1e-10)
            if variant == "LA-PPO":
                np.testing.assert_allclose(np.exp(out.log_teacher_pi_hat.data), ref[2],
                                           atol=1e-10)
            else:
                assert out.log_teacher_pi_hat is None and ref[2] is None

    def test_output_invariants(self):
        rng = np.random.default_rng(3)
        net = FusionPolicyNet(IN_DIM, seed=2)
        out = net.forward(batch_obs(rng, 5))
        assert out.pi.data.shape == (5, ACTION_DIM)
        assert out.log_teacher_pi_hat.data.shape == (5, ACTION_DIM)
        assert out.v.data.shape == (5, 1)
        np.testing.assert_allclose(out.pi.data.sum(axis=-1), 1.0, atol=1e-9)
        teacher_pi_hat = np.exp(out.log_teacher_pi_hat.data)
        np.testing.assert_allclose(teacher_pi_hat.sum(axis=-1), 1.0, atol=1e-9)
        for field in (out.pi.data, out.v.data, teacher_pi_hat):
            assert np.all(np.isfinite(field))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        net = FusionPolicyNet(IN_DIM, seed=4)
        x = batch_obs(rng)
        a = net.forward(x)
        b = net.forward(x)
        assert np.array_equal(a.pi.data, b.pi.data)
        assert np.array_equal(a.v.data, b.v.data)

    def test_zero_value_projection_reduces_to_student_path(self):
        rng = np.random.default_rng(6)
        net = FusionPolicyNet(IN_DIM, seed=7)
        for i in range(2):
            net.params[f"attn{i}.wv"].data[:] = 0.0
        x = batch_obs(rng)
        before = net.forward(x)
        # the teacher encoder no longer reaches the fused embedding
        net.params["f_t.w1"].data += rng.normal(size=net.params["f_t.w1"].data.shape)
        after = net.forward(x)
        assert np.array_equal(before.pi.data, after.pi.data)
        assert np.array_equal(before.v.data, after.v.data)
        # h reduces to h_s exactly: recompute the student path by hand
        w = {k: p.data.copy() for k, p in net.params.items()}
        h_s = np.tanh(np.tanh(x @ w["f_s.w1"] + w["f_s.b1"]) @ w["f_s.w2"] + w["f_s.b2"])
        def soft(z):
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(after.pi.data, soft(h_s @ w["pi.w"] + w["pi.b"]), atol=1e-12)

    def test_v_ppo_holds_student_path_only(self):
        rng = np.random.default_rng(8)
        net = FusionPolicyNet(IN_DIM, seed=9, variant="V-PPO")
        assert not [name for name in net.params
                    if name.startswith(("f_t.", "attn", "teacher_pi."))]
        x = batch_obs(rng)
        out = net.forward(x)
        assert out.log_teacher_pi_hat is None
        w = {k: p.data.copy() for k, p in net.params.items()}
        h_s = np.tanh(np.tanh(x @ w["f_s.w1"] + w["f_s.b1"]) @ w["f_s.w2"] + w["f_s.b2"])
        logits = h_s @ w["pi.w"] + w["pi.b"]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(out.pi.data, e / e.sum(axis=-1, keepdims=True), atol=1e-12)
        np.testing.assert_allclose(out.v.data, h_s @ w["v.w"] + w["v.b"], atol=1e-12)

    def test_parameter_inventory(self):
        expected = {"V-PPO": (8, 22_790), "A-PPO": (15, 110_342), "LA-PPO": (17, 110_987)}
        for variant, (n_tensors, n_params) in expected.items():
            net = FusionPolicyNet(FLAT_OBS_DIM, seed=0, variant=variant)
            assert len(net.params) == n_tensors, variant
            assert sum(p.data.size for _, p in net.params.items()) == n_params, variant
            assert net.architecture_id().startswith("fusion-v4:")
            assert net.architecture_id().endswith(f":{variant}")

    def test_kept_weights_start_identical_across_variants(self):
        full = {k: p.data.copy() for k, p in FusionPolicyNet(IN_DIM, seed=5, variant="LA-PPO").params.items()}
        for variant in ("V-PPO", "A-PPO"):
            for name, p in FusionPolicyNet(IN_DIM, seed=5, variant=variant).params.items():
                assert np.array_equal(p.data, full[name]), (variant, name)

    def test_construction_draws_each_weight_once(self, monkeypatch):
        """Every variant draws the same documented sequence and nothing else;
        a kept weight is its draw, and a bias starts at zero."""
        order = [("f_s.w1", IN_DIM, 128), ("f_s.w2", 128, 128),
                 ("f_t.w1", IN_DIM, 128), ("f_t.w2", 128, 128),
                 ("teacher_pi.w", 128, ACTION_DIM), ("attn0.wv", 128, 128),
                 ("attn1.wv", 128, 128), ("attn_out.w", 256, 128),
                 ("pi.w", 128, ACTION_DIM), ("v.w", 128, 1)]
        default_rng = np.random.default_rng
        for variant in VARIANTS:
            made = []

            def recorded_rng(seed):
                made.append(default_rng(seed))
                return made[-1]

            monkeypatch.setattr(np.random, "default_rng", recorded_rng)
            net = FusionPolicyNet(IN_DIM, seed=5, variant=variant)
            monkeypatch.undo()
            fresh = default_rng(5)
            draws = {}
            for name, fan_in, fan_out in order:
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                draws[name] = fresh.uniform(-limit, limit, size=(fan_in, fan_out))
            assert len(made) == 1
            assert made[0].bit_generator.state == fresh.bit_generator.state, variant
            for name, p in net.params.items():
                if name in draws:
                    assert np.array_equal(p.data, draws[name]), (variant, name)
                else:  # a bias
                    assert not np.any(p.data), (variant, name)

    def test_unknown_variant_rejected(self):
        with pytest.raises(UsageError, match="variant"):
            FusionPolicyNet(IN_DIM, variant="la-ppo")

    def test_wrong_input_dimension_rejected(self):
        net = FusionPolicyNet(IN_DIM, seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((3, IN_DIM + 1)))

    def test_single_observation_accepted(self):
        net = FusionPolicyNet(IN_DIM, seed=0)
        out = net.forward(np.zeros(IN_DIM))
        assert out.pi.data.shape == (1, ACTION_DIM)

    def test_act_sampling_deterministic_per_rng(self):
        net = FusionPolicyNet(IN_DIM, seed=12)
        x = np.zeros(IN_DIM)
        a = [net.act(x, rng=np.random.default_rng(3))[0] for _ in range(3)]
        assert a[0] == a[1] == a[2]

    def test_act_samples_the_action_generator_choice_draws(self):
        rng = np.random.default_rng(15)
        for seed in range(20):
            net = FusionPolicyNet(IN_DIM, seed=seed)
            x = rng.normal(size=IN_DIM)
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                action, _, _ = net.act(x, rng=mine)
                assert action == int(ref.choice(ACTION_DIM, p=net.infer(x)[0][0]))
            assert mine.bit_generator.state == ref.bit_generator.state

    def test_act_rejects_nan_probabilities(self):
        net = FusionPolicyNet(IN_DIM, seed=16)
        net.params["pi.b"].data[0] = np.nan
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            net.act(np.zeros(IN_DIM), rng=rng)
        assert rng.bit_generator.state == before

    def test_infer_bit_identical_to_forward(self):
        rng = np.random.default_rng(13)
        for variant in VARIANTS:
            net = FusionPolicyNet(IN_DIM, seed=14, variant=variant)
            # 20: the lockstep evaluation batch; 640: the bootstrap batch of an update
            for batch in (1, 20, 128, 640):
                x = batch_obs(rng, batch)
                out = net.forward(x)
                pi, log_pi, v = net.infer(x)
                assert np.array_equal(pi, out.pi.data), (variant, batch)
                assert np.array_equal(log_pi, out.log_pi.data), (variant, batch)
                assert np.array_equal(v, out.v.data), (variant, batch)
            # a single observation is a batch of one, as in forward
            pi, _, _ = net.infer(x[0])
            assert np.array_equal(pi, net.forward(x[0]).pi.data), variant

    def test_infer_wrong_input_dimension_rejected(self):
        net = FusionPolicyNet(IN_DIM, seed=0)
        with pytest.raises(ShapeError):
            net.infer(np.zeros((3, IN_DIM + 1)))
        with pytest.raises(ShapeError):
            net.infer(np.zeros(IN_DIM - 1))


class TestValueLoss:
    def test_zero_when_exact(self):
        v = Tensor(np.array([[1.0], [2.0], [3.0]]))
        assert value_loss(v, np.array([1.0, 2.0, 3.0])).data == pytest.approx(0.0)

    def test_terminal_target_is_reward(self):
        t = value_targets(rewards=np.array([4.0]), next_values=np.array([9.0]),
                          dones=np.array([True]), gamma=0.99)
        assert t[0] == pytest.approx(4.0)

    def test_bootstrap_target(self):
        t = value_targets(rewards=np.array([1.0]), next_values=np.array([2.0]),
                          dones=np.array([False]), gamma=0.99)
        assert t[0] == pytest.approx(1.0 + 0.99 * 2.0)

    def test_truncated_target_bootstraps(self):
        # gamma 0.5: a live row and a time-limit row bootstrap, a terminal row does not
        t = value_targets(rewards=np.array([1.0, 2.0, 3.0]),
                          next_values=np.array([10.0, 20.0, 30.0]),
                          dones=np.array([False, True, True]), gamma=0.5,
                          truncated=np.array([False, True, False]))
        np.testing.assert_allclose(t, [6.0, 12.0, 3.0], atol=1e-12)

    def test_hand_computed_msbe(self):
        v = Tensor(np.array([[1.0], [0.0], [2.0]]))
        targets = np.array([2.0, 0.5, 2.0])
        # ((1-2)^2 + (0-0.5)^2 + 0) / 3
        want = (1.0 + 0.25 + 0.0) / 3.0
        assert value_loss(v, targets).data == pytest.approx(want, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            value_loss(Tensor(np.zeros((0, 1))), np.zeros(0))


class TestPpoLoss:
    def test_ratio_one_recovers_mean_advantage(self):
        logp = np.log(np.full((4, ACTION_DIM), 0.2))
        actions = np.array([0, 1, 2, 3])
        adv = np.array([1.0, -2.0, 0.5, 3.0])
        old = logp[np.arange(4), actions]
        loss = ppo_policy_loss(Tensor(logp), actions, old, adv, clip_range=0.2)
        assert loss.data == pytest.approx(-adv.mean(), abs=1e-12)

    def test_positive_advantage_clips_at_upper_bound(self):
        # new prob 0.4 vs old 0.2: ratio 2, clipped to 1.2 for positive advantage
        new = np.full((1, ACTION_DIM), 0.15)
        new[0, 0] = 0.4
        old_logp = np.array([math.log(0.2)])
        loss = ppo_policy_loss(Tensor(np.log(new)), np.array([0]), old_logp,
                               np.array([2.0]), clip_range=0.2)
        assert loss.data == pytest.approx(-1.2 * 2.0, abs=1e-12)

    def test_negative_advantage_clips_at_lower_bound(self):
        new = np.full((1, ACTION_DIM), 0.21)
        new[0, 0] = 0.1  # ratio 0.5 vs old 0.2
        old_logp = np.array([math.log(0.2)])
        loss = ppo_policy_loss(Tensor(np.log(new)), np.array([0]), old_logp,
                               np.array([-1.0]), clip_range=0.2)
        # max(0.5*-1, 0.8*-1) picked by -min(...): clipped arm -0.8 wins
        assert loss.data == pytest.approx(0.8, abs=1e-12)

    def test_random_batch_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 16
            logits = rng.normal(size=(n, ACTION_DIM))
            z = logits - logits.max(axis=-1, keepdims=True)
            log_pi = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            actions = rng.integers(ACTION_DIM, size=n)
            old = log_pi[np.arange(n), actions] + rng.normal(scale=0.3, size=n)
            adv = rng.normal(size=n)
            eps = 0.15
            ratio = np.exp(log_pi[np.arange(n), actions] - old)
            surrogate = np.minimum(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)
            want = -surrogate.mean()
            got = ppo_policy_loss(Tensor(log_pi), actions, old, adv, clip_range=eps)
            assert got.data == pytest.approx(want, abs=1e-12)


class TestKl:
    def test_identical_distributions_zero(self):
        p = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        assert float(kl_to_teacher(Tensor(p), p).data) == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_value(self):
        ps = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
        pt = teacher_distribution(0)
        want = (0.7 * math.log(0.7 / 0.9)
                + 0.1 * math.log(0.1 / 0.025) * 2
                + 0.05 * math.log(0.05 / 0.025) * 2)
        assert float(kl_to_teacher(Tensor(ps), pt).data) == pytest.approx(want, abs=1e-9)

    def test_batched_per_sample(self):
        ps = np.array([[0.7, 0.1, 0.1, 0.05, 0.05],
                       [0.9, 0.025, 0.025, 0.025, 0.025]])
        pt = np.stack([teacher_distribution(0), teacher_distribution(0)])
        kl = kl_to_teacher(Tensor(ps), pt)
        assert kl.data.shape == (2,)
        assert kl.data[1] == pytest.approx(0.0, abs=1e-9)

    def test_teacher_floor_keeps_kl_finite(self):
        ps = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        pt = np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # hard one-hot
        kl = float(kl_to_teacher(Tensor(ps), pt).data)
        assert math.isfinite(kl) and kl > 0

    def test_penalty_hinge(self):
        def pen(k):
            return float(kl_penalty(Tensor(np.asarray(k)), 1.0, 10.0).data)

        assert pen(0.5) == 0.0
        assert pen(1.0) == 0.0
        assert pen(1.3) == pytest.approx(10.0 * 0.09)
        # strictly increasing above sigma
        grid = [pen(k) for k in (1.1, 1.5, 2.0, 3.0)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_penalty_on_tensor(self):
        kl = Tensor(np.array([0.5, 1.5]))
        pen = kl_penalty(kl, sigma=1.0, lam=10.0)
        np.testing.assert_allclose(pen.data, [0.0, 10.0 * 0.25], atol=1e-12)

    def test_teacher_distribution_shape(self):
        d = teacher_distribution(3)
        assert d.shape == (ACTION_DIM,)
        assert d.sum() == pytest.approx(1.0)
        assert d[3] == pytest.approx(0.9)
        assert d[0] == pytest.approx(0.025)
        rows = teacher_distribution(np.array([4, 0, 3]))
        assert rows.shape == (3, ACTION_DIM)
        assert np.array_equal(rows[2], d)


def distill_of(log_teacher_pi_hat, teacher_actions) -> float:
    """The distillation term of guidance_losses for a given head output."""
    log_p = np.asarray(log_teacher_pi_hat, dtype=np.float64)
    _, distill, _ = guidance_losses(Tensor(np.exp(log_p)), Tensor(log_p),
                                    teacher_actions, sigma=1.0, kl_weight=10.0)
    return float(distill.data)


class TestDistill:
    def test_confident_head_zero_loss(self):
        log_pi = np.log(np.full((3, ACTION_DIM), 1e-12))
        log_pi[np.arange(3), [1, 1, 2]] = 0.0  # prob 1 on the demo action
        actions = np.array([1, 1, 2])
        assert distill_of(log_pi, actions) == pytest.approx(0.0)

    def test_uniform_head_log5(self):
        log_pi = np.log(np.full((4, ACTION_DIM), 0.2))
        actions = np.array([0, 1, 2, 3])
        assert distill_of(log_pi, actions) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_mixed_batch_mean_nll(self):
        probs = np.array([[0.5, 0.2, 0.1, 0.1, 0.1],
                          [0.1, 0.6, 0.1, 0.1, 0.1]])
        actions = np.array([0, 1])
        want = -(math.log(0.5) + math.log(0.6)) / 2.0
        assert distill_of(np.log(probs), actions) == pytest.approx(want, abs=1e-12)

    def test_empty_demo_set_is_zero(self):
        assert distill_of(np.zeros((0, ACTION_DIM)), np.zeros(0, dtype=int)) == 0.0
        kl_pen, distill, kl_value = guidance_losses(
            Tensor(np.full((2, ACTION_DIM), 0.2)), Tensor(np.zeros((2, ACTION_DIM))),
            np.array([-1, -1]), sigma=0.1, kl_weight=10.0)
        assert float(kl_pen.data) == 0.0 and float(distill.data) == 0.0 and kl_value == 0.0

    def test_unlabeled_rows_contribute_nothing(self):
        rng = np.random.default_rng(40)
        logits = rng.normal(size=(5, ACTION_DIM))
        pi = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        log_t = np.log(np.full((5, ACTION_DIM), 0.2)) + rng.normal(scale=0.1, size=(5, ACTION_DIM))
        acts = np.array([3, -1, 0, -1, 4])
        keep = acts >= 0
        mixed = guidance_losses(Tensor(pi), Tensor(log_t), acts, sigma=0.01, kl_weight=10.0)
        labeled = guidance_losses(Tensor(pi[keep]), Tensor(log_t[keep]), acts[keep],
                                  sigma=0.01, kl_weight=10.0)
        assert float(mixed[0].data) == pytest.approx(float(labeled[0].data), abs=1e-12)
        assert float(mixed[1].data) == pytest.approx(float(labeled[1].data), abs=1e-12)
        assert mixed[2] == pytest.approx(labeled[2], abs=1e-12)

    def test_kl_uses_smoothed_teacher_rows(self):
        pi = np.array([[0.7, 0.1, 0.1, 0.05, 0.05],
                       [0.2, 0.2, 0.2, 0.2, 0.2]])
        acts = np.array([0, 2])
        want = kl_to_teacher(Tensor(pi), np.stack([teacher_distribution(a) for a in acts]))
        kl_pen, _, kl_value = guidance_losses(Tensor(pi), Tensor(np.log(pi)), acts,
                                              sigma=0.1, kl_weight=10.0)
        assert kl_value == pytest.approx(float(want.data.mean()), abs=1e-12)
        hinge = np.maximum(want.data - 0.1, 0.0)
        assert float(kl_pen.data) == pytest.approx(10.0 * float(np.mean(hinge ** 2)), abs=1e-12)


class TestTotalLoss:
    def test_policy_only(self):
        total, report = total_loss(
            policy_loss=Tensor(np.asarray(1.5)), value=Tensor(np.asarray(2.0)),
            distill=Tensor(np.asarray(3.0)), kl_pen=Tensor(np.asarray(4.0)),
            entropy=Tensor(np.asarray(0.7)), kl_value=0.0,
            c_v=0.0, c_d=0.0, c_e=0.0,
        )
        assert float(total.data) == pytest.approx(1.5 + 4.0)  # kl penalty has no weight knob
        assert isinstance(report, LossReport)

    def test_linear_combination(self):
        total, report = total_loss(
            policy_loss=Tensor(np.asarray(1.0)), value=Tensor(np.asarray(2.0)),
            distill=Tensor(np.asarray(3.0)), kl_pen=Tensor(np.asarray(0.5)),
            entropy=Tensor(np.asarray(0.25)), kl_value=0.9,
            c_v=0.5, c_d=1.0, c_e=0.01,
        )
        want = 1.0 + 0.5 * 2.0 + 1.0 * 3.0 + 0.5 - 0.01 * 0.25
        assert float(total.data) == pytest.approx(want, abs=1e-12)
        assert report.total == pytest.approx(want, abs=1e-12)
        assert report.policy_loss == 1.0
        assert report.value_loss == 2.0
        assert report.distill_loss == 3.0
        assert report.kl_penalty == 0.5
        assert report.kl_value == 0.9
        assert report.entropy == 0.25

    def test_window_closed_removes_distillation(self):
        total, _ = total_loss(
            policy_loss=Tensor(np.asarray(1.0)), value=Tensor(np.asarray(0.0)),
            distill=Tensor(np.asarray(100.0)), kl_pen=Tensor(np.asarray(0.0)),
            entropy=Tensor(np.asarray(0.0)), kl_value=0.0,
            c_v=0.5, c_d=0.0, c_e=0.01,
        )
        assert float(total.data) == pytest.approx(1.0)


class TestGradients:
    def test_distillation_path_separated(self):
        """With c_d=0 and no KL, teacher heads receive no gradient."""
        rng = np.random.default_rng(20)
        net = FusionPolicyNet(IN_DIM, seed=21)
        x = batch_obs(rng, 8)
        actions = rng.integers(ACTION_DIM, size=8)
        out = net.forward(x)
        old_logp = out.log_pi.data[np.arange(8), actions].copy()
        adv = rng.normal(size=8)

        policy = ppo_policy_loss(out.log_pi, actions, old_logp, adv, 0.2)
        value = value_loss(out.v, rng.normal(size=8))
        ent = entropy_bonus(out.pi, out.log_pi)
        total, _ = total_loss(policy_loss=policy, value=value,
                              distill=Tensor(np.asarray(0.0)),
                              kl_pen=Tensor(np.asarray(0.0)),
                              entropy=ent, kl_value=0.0,
                              c_v=0.5, c_d=0.0, c_e=0.01)
        net.params.zero_grad()
        total.backward()
        for name in ("teacher_pi.w", "teacher_pi.b"):
            grad = net.params[name].grad
            assert grad is None or np.all(grad == 0.0)
        # while the shared encoder path does train
        assert net.params["f_s.w1"].grad is not None
        assert np.any(net.params["f_s.w1"].grad != 0.0)

    def test_distill_trains_teacher_path_not_student_encoder(self):
        rng = np.random.default_rng(22)
        net = FusionPolicyNet(IN_DIM, seed=23)
        x = batch_obs(rng, 4)
        out = net.forward(x)
        _, loss, _ = guidance_losses(out.pi, out.log_teacher_pi_hat, np.array([0, 1, 2, 3]),
                                     sigma=0.1, kl_weight=10.0)
        net.params.zero_grad()
        loss.backward()
        assert np.any(net.params["teacher_pi.w"].grad != 0.0)
        assert np.any(net.params["f_t.w1"].grad != 0.0)
        for name in ("f_s.w1", "f_s.w2", "pi.w", "v.w"):
            grad = net.params[name].grad
            assert grad is None or np.all(grad == 0.0)

    def test_finite_difference_gradcheck(self):
        """Central differences on the full objective for sampled coordinates."""
        rng = np.random.default_rng(30)
        net = FusionPolicyNet(IN_DIM, seed=31)
        x = batch_obs(rng, 4)
        actions = np.array([0, 1, 2, 3])
        adv = rng.normal(size=4)
        targets = rng.normal(size=4)

        def objective():
            out = net.forward(x)
            old_logp = np.log(np.full(4, 0.2))
            policy = ppo_policy_loss(out.log_pi, actions, old_logp, adv, 0.2)
            value = value_loss(out.v, targets)
            kl_pen, distill, _ = guidance_losses(out.pi, out.log_teacher_pi_hat, actions,
                                                 sigma=0.05, kl_weight=10.0)
            ent = entropy_bonus(out.pi, out.log_pi)
            return total_loss(policy_loss=policy, value=value, distill=distill,
                              kl_pen=kl_pen, entropy=ent, kl_value=0.0,
                              c_v=0.5, c_d=1.0, c_e=0.01)[0]

        total = objective()
        net.params.zero_grad()
        total.backward()

        for name in ("f_s.w1", "f_t.w2", "attn0.wv", "attn1.wv", "attn_out.w",
                     "pi.w", "v.w", "teacher_pi.w"):
            param = net.params[name]
            flat_idx = rng.integers(param.data.size, size=3)
            for idx in flat_idx:
                ij = np.unravel_index(idx, param.data.shape)
                eps = 1e-6
                orig = param.data[ij]
                param.data[ij] = orig + eps
                up = float(objective().data)
                param.data[ij] = orig - eps
                down = float(objective().data)
                param.data[ij] = orig
                numeric = (up - down) / (2 * eps)
                analytic = param.grad[ij] if param.grad is not None else 0.0
                assert numeric == pytest.approx(analytic, abs=1e-5), name

    def test_every_parameter_trains_under_full_objective(self):
        """Each variant's own objective reaches every weight it holds: none is
        stored but never trained. Only LA-PPO sees teacher labels."""
        dead = {}
        for variant in VARIANTS:
            rng = np.random.default_rng(32)
            net = FusionPolicyNet(IN_DIM, seed=33, variant=variant)
            x = batch_obs(rng, 8)
            actions = rng.integers(ACTION_DIM, size=8)
            teacher_actions = rng.integers(ACTION_DIM, size=8)
            if variant != "LA-PPO":
                teacher_actions[:] = -1
            out = net.forward(x)
            old_logp = np.log(np.full(8, 0.2))
            targets = rng.normal(size=8)
            policy = ppo_policy_loss(out.log_pi, actions, old_logp, rng.normal(size=8), 0.2)
            value = value_loss(out.v, targets)
            kl_pen, distill, kl_value = guidance_losses(out.pi, out.log_teacher_pi_hat,
                                                        teacher_actions, sigma=0.01,
                                                        kl_weight=10.0)
            ent = entropy_bonus(out.pi, out.log_pi)
            total, _ = total_loss(policy, value, distill, kl_pen, ent, kl_value)
            net.params.zero_grad()
            total.backward()
            dead[variant] = [name for name, p in net.params.items()
                             if p.grad is None or not np.any(p.grad != 0.0)]
        assert dead == {variant: [] for variant in VARIANTS}


class TestDrawIndices:
    """`weighted_cdf` and `draw_indices`, which `spawn` and `act` draw
    through, against the `Generator.choice` call each replaces."""

    def test_matches_generator_choice(self):
        meta = np.random.default_rng(0)
        for _ in range(300):
            k = int(meta.integers(1, 9))
            p = meta.random(k)
            p[meta.random(k) < 0.2] = 0.0  # some impossible picks
            p[int(meta.integers(k))] += 0.1
            p /= p.sum()
            cdf = weighted_cdf(p)
            for size in (0, 1, int(meta.integers(2, 50))):
                seed = int(meta.integers(2**32))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = draw_indices(got_rng, cdf, size)
                want = want_rng.choice(k, size=size, p=p)
                assert np.array_equal(got, want), (p, size)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
            # one draw is choice's scalar draw
            got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
            assert draw_indices(got_rng, cdf, 1)[0] == want_rng.choice(k, p=p)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [np.inf, 0.0, 0.0], [0.2, 0.3, np.inf],
                                   [np.inf, -np.inf, 1.0], [0.0, 0.0, 0.0]])
    def test_non_finite_or_zero_total_raises_as_choice_does(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, p=p)
        with pytest.raises(ValueError, match="finite positive total"), np.errstate(invalid="ignore"):
            weighted_cdf(p)
