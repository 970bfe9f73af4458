"""Autodiff engine tests: finite-difference checks per op, accumulation, Adam, checkpoints."""

from __future__ import annotations

import hashlib
import struct
import weakref
import zlib

import numpy as np
import pytest

from drivecoach import nn
from drivecoach.nn import (
    AdamState,
    CheckpointError,
    ParamStore,
    ShapeError,
    Tensor,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, x: np.ndarray, rtol: float = 1e-6) -> None:
    """Compare autodiff grad against central differences for loss = sum(build(x))."""
    t = Tensor(x.copy(), requires_grad=True)
    loss = nn.tsum(build(t))
    loss.backward()

    def scalar(arr):
        return float(nn.tsum(build(Tensor(arr))).data)

    num = numeric_grad(scalar, x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=1e-7)


RNG = np.random.default_rng(7)


class TestOps:
    def test_matmul(self):
        b = Tensor(RNG.normal(size=(4, 3)))
        check_op(lambda t: nn.matmul(t, b), RNG.normal(size=(5, 4)))

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            nn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_add_broadcast_bias(self):
        bias = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        loss = nn.tsum(nn.add(x, bias))
        loss.backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_sub_mul_neg_scale(self):
        a = RNG.normal(size=(3, 4))
        b = Tensor(RNG.normal(size=(3, 4)))
        check_op(lambda t: nn.sub(t, b), a.copy())
        check_op(lambda t: nn.mul(t, b), a.copy())
        check_op(lambda t: nn.neg(t), a.copy())
        check_op(lambda t: nn.scale(t, -2.5), a.copy())

    def test_exp_log_tanh_relu(self):
        check_op(nn.exp, RNG.normal(size=(3, 4)))
        check_op(nn.log, RNG.uniform(0.5, 2.0, size=(3, 4)))
        check_op(nn.tanh, RNG.normal(size=(3, 4)))
        # keep points away from the relu kink where the derivative jumps
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.05] = 0.5
        check_op(nn.relu, x)

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(6, 5))
        out = nn.softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)

    def test_softmax_grad(self):
        w = Tensor(RNG.normal(size=(4, 5)))
        check_op(lambda t: nn.mul(nn.softmax(t), w), RNG.normal(size=(4, 5)))

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.normal(size=(4, 5)) * 10
        a = nn.log_softmax(Tensor(x)).data
        b = np.log(nn.softmax(Tensor(x)).data)
        np.testing.assert_allclose(a, b, atol=1e-12)
        check_op(lambda t: nn.log_softmax(t), x.copy())

    def test_concat_and_split_grad(self):
        b = Tensor(RNG.normal(size=(3, 2)))
        check_op(lambda t: nn.concat([t, b], axis=-1), RNG.normal(size=(3, 4)))
        check_op(lambda t: nn.concat([b, t], axis=-1), RNG.normal(size=(3, 4)))

    def test_sum_mean_axes(self):
        x = RNG.normal(size=(3, 4))
        check_op(lambda t: nn.tsum(t, axis=0), x.copy())
        check_op(lambda t: nn.tmean(t, axis=1), x.copy())
        check_op(lambda t: nn.tmean(t), x.copy())

    def test_gather_picks_and_scatters(self):
        x = RNG.normal(size=(5, 4))
        idx = np.array([0, 3, 1, 2, 2])
        out = nn.gather(Tensor(x), idx)
        np.testing.assert_allclose(out.data[:, 0], x[np.arange(5), idx])
        check_op(lambda t: nn.gather(t, idx), x.copy())

    def test_clip_grad_passes_inside_only(self):
        x = np.array([-2.0, -0.5, 0.3, 0.9, 2.0])
        t = Tensor(x, requires_grad=True)
        nn.tsum(nn.clip(t, -1.0, 1.0)).backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_minimum_routes_to_smaller(self):
        a = Tensor(np.array([1.0, 5.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0, 2.0]), requires_grad=True)
        nn.tsum(nn.minimum(a, b)).backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])  # tie goes to the first arg
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestAccumulation:
    def test_backward_twice_doubles_grads(self):
        x = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        loss = nn.tsum(nn.tanh(x))
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_diamond_reuse_accumulates(self):
        # y feeds the loss through two paths: d/dx [x*x + x] = 2x + 1
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        y = nn.mul(x, x)
        loss = nn.tsum(nn.add(y, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)

    def test_zero_grad_resets(self):
        store = ParamStore()
        x = store.add("x", np.ones(3))
        nn.tsum(nn.mul(x, x)).backward()
        held = x.grad
        store.zero_grad()
        assert x.grad is held
        np.testing.assert_allclose(x.grad, np.zeros(3))

    def test_grad_exists_only_once_given(self):
        store = ParamStore()
        x = store.add("x", np.ones(3))
        unused = store.add("unused", np.ones(2))
        assert x.grad is None and unused.grad is None
        nn.tsum(nn.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))
        assert unused.grad is None  # backward allocates only what it reaches
        store.zero_grad()
        np.testing.assert_array_equal(unused.grad, np.zeros(2))
        store.drop_grad()
        assert x.grad is None and unused.grad is None

    def test_interior_flow_freed_once_passed_on(self):
        # x -> a -> b -> loss; each op's backward checks that the flow of the
        # node visited before it is gone, then doubles the flow it was given
        x = Tensor(np.ones(4), requires_grad=True)
        received = []

        def double(t):
            def bwd(g):
                assert all(ref() is None for ref in received)
                received.append(weakref.ref(g))
                return (g * 2.0,)

            return nn.tensor._make(t.data * 2.0, (t,), bwd)

        loss = nn.tsum(double(double(x)))
        loss.backward()
        assert len(received) == 2
        np.testing.assert_array_equal(x.grad, np.full(4, 4.0))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            nn.tanh(x).backward()


class TestAdam:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="w"):
            store.add("w", np.zeros(2))

    def test_first_step_matches_closed_form(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        store = ParamStore()
        w = store.add("w", np.array([1.0, -2.0, 0.5]))
        g = np.array([0.3, -0.7, 0.0])
        w.grad = g.copy()
        state = AdamState.for_params(store)
        adam_step(store, state, lr=0.01)
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(w.data, expected, atol=1e-12)
        assert state.step == 1

    def test_converges_on_quadratic(self):
        store = ParamStore()
        w = store.add("w", np.array([5.0, -3.0]))
        state = AdamState.for_params(store)
        target = np.array([1.0, 2.0])
        for _ in range(2000):
            store.zero_grad()
            w.grad += 2 * (w.data - target)
            adam_step(store, state, lr=0.05)
        np.testing.assert_allclose(w.data, target, atol=1e-3)


class TestCheckpoint:
    def test_roundtrip_and_byte_identity(self, tmp_path):
        arrays = {
            "enc/w": RNG.normal(size=(4, 3)),
            "enc/b": RNG.normal(size=(3,)),
            "scalar": np.array(2.5),
        }
        meta = {"step": 42, "rng": {"state": [1, 2, 3]}}
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(str(p1), arrays, meta)
        loaded, meta2 = load_checkpoint(str(p1))
        assert meta2 == meta
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])
        save_checkpoint(str(p2), loaded, meta2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(str(p), {"w": np.ones(4)}, {})
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(str(p))

    def test_bad_magic_and_truncation(self, tmp_path):
        p = tmp_path / "d.ckpt"
        p.write_bytes(b"atari")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))
        save_checkpoint(str(p), {"w": np.ones(4)}, {})
        whole = p.read_bytes()
        p.write_bytes(whole[: len(whole) - 9])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_bytes_are_pinned(self, tmp_path):
        # sha256 of the bytes the format has always written; a roundtrip
        # check alone would still pass after a change to them
        arrays = {
            "scalar": np.array(2.5),
            "enc/w.T": np.arange(12.0).reshape(3, 4).T,
            "f32": np.array([0.1, -2.0, 3.5], dtype=np.float32),
            "big": np.arange(6, dtype=">f8").reshape(2, 3) / 7,
            "none": np.zeros((0, 3)),
        }
        cases = {
            "be2241030cde104794c91e15c569a3d8fddc078f9ef3415f0546ca6c536c0008":
                (arrays, {"step": 42, "nested": {"b": [1, 2.5, None], "a": "\u00fc"}}),
            "4b413772656a7c19db7a4b8b151bf1e126400adf3b709fea958f962cc1b3fb84":
                ({}, {"run": {"seed": 7, "tags": ["x", {"y": True}]}}),
        }
        for digest, (arrs, meta) in cases.items():
            p = tmp_path / f"{digest[:8]}.ckpt"
            save_checkpoint(str(p), arrs, meta)
            assert hashlib.sha256(p.read_bytes()).hexdigest() == digest

    def _small(self, tmp_path) -> bytes:
        p = tmp_path / "small.ckpt"
        save_checkpoint(str(p), {"w": np.arange(6.0).reshape(2, 3)}, {"k": "v"})
        return p.read_bytes()

    def test_every_truncation_and_byte_flip_is_a_checkpoint_error(self, tmp_path):
        # every offset is covered: magic, version, meta length, meta, array
        # count, name length, name, ndim, each dimension, payload and CRC
        whole = self._small(tmp_path)
        p = tmp_path / "bad.ckpt"
        corrupt = [whole[:n] for n in range(len(whole))]
        for i in range(len(whole)):
            flipped = bytearray(whole)
            flipped[i] ^= 0xFF
            corrupt.append(bytes(flipped))
        for blob in corrupt:
            p.write_bytes(blob)
            with pytest.raises(CheckpointError):
                load_checkpoint(str(p))

    def test_declared_sizes_checked_before_allocating(self, tmp_path):
        # each size field at its maximum behind a valid CRC: the reader must
        # refuse it from the bytes left, not try to allocate or decode it
        whole = self._small(tmp_path)
        count_at = 12 + len(b'{"k":"v"}')
        fields = {"meta length": (8, "<I"), "array count": (count_at, "<I"),
                  "name length": (count_at + 4, "<H"), "ndim": (count_at + 7, "<B"),
                  "dimension": (count_at + 8, "<I")}
        p = tmp_path / "bad.ckpt"
        for field, (at, fmt) in fields.items():
            blob = bytearray(whole)
            struct.pack_into(fmt, blob, at, 256 ** struct.calcsize(fmt) - 1)
            struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]))
            p.write_bytes(bytes(blob))
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(str(p))

    def test_loaded_arrays_are_writable_and_independent(self, tmp_path):
        p = tmp_path / "e.ckpt"
        save_checkpoint(str(p), {"a": np.ones((3, 2)), "b": np.ones(4), "c": np.array(1.0)}, {})
        arrays, _ = load_checkpoint(str(p))
        for arr in arrays.values():
            assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.aligned
        loaded = list(arrays.values())
        assert not any(np.shares_memory(x, y) for i, x in enumerate(loaded) for y in loaded[i + 1:])

    def test_failed_save_changes_nothing_on_disk(self, tmp_path):
        p = tmp_path / "f.ckpt"
        save_checkpoint(str(p), {"w": np.ones(4)}, {"good": True})
        before = p.read_bytes()
        bad = {"ok": np.zeros(3), "bad": np.array([object()], dtype=object)}
        with pytest.raises(TypeError):
            save_checkpoint(str(p), bad, {"good": False})
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == [p.name]

    def test_param_store_roundtrip(self, tmp_path):
        store = ParamStore()
        store.add("a", RNG.normal(size=(2, 2)))
        store.add("b", RNG.normal(size=(2,)))
        p = tmp_path / "s.ckpt"
        save_checkpoint(str(p), {k: t.data.copy() for k, t in store.items()}, {"note": "x"})
        arrays, _ = load_checkpoint(str(p))
        fresh = ParamStore()
        fresh.add("a", np.zeros((2, 2)))
        fresh.add("b", np.zeros(2))
        fresh.load_state_dict(arrays)
        np.testing.assert_array_equal(fresh["a"].data, store["a"].data)
        with pytest.raises(ValueError, match="mismatch"):
            fresh.load_state_dict({"a": np.zeros((2, 2))})
