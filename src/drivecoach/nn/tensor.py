"""Minimal reverse-mode autodiff over dense float64 numpy buffers.

The tape is define-by-run: every forward op returns a fresh Tensor holding
closures over its parents. backward() walks the graph once per call and adds
the pass's gradients into .grad, so calling backward twice doubles them.

A tracked tensor's .grad is None until something gives it one: backward()
allocates it on first use, and ParamStore.zero_grad allocates a zeroed one for
every parameter, so a store holds gradients only between zero_grad and the
point its owner drops them.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """Dense float64 array with optional gradient tracking.

    requires_grad marks a leaf whose .grad backward() fills; .grad starts
    as None and is allocated by whoever first writes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate dSelf/dParam into .grad of every reachable tracked tensor.

        Nodes are visited children first, so a node's flow is complete when it
        is reached. An interior node's flow is dropped once its parents have
        their shares, and a leaf's once it is added into .grad.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # per-call gradient flows, each held only until its node is visited
        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None:
                        continue
                    pid = id(parent)
                    if pid in flows:
                        flows[pid] = flows[pid] + pg
                    else:
                        flows[pid] = pg


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = False  # intermediates track flow but hold no .grad
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach the op's output shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} and {b.data.shape} incompatible")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting add; with b a bias vector this is the affine bias term."""
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shapes {a.data.shape} and {b.data.shape} incompatible") from None

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub shapes {a.data.shape} and {b.data.shape} incompatible") from None

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shapes {a.data.shape} and {b.data.shape} incompatible") from None

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)
    return _make(a.data * f, (a,), lambda g: (g * f,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    return _make(out, (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), bwd)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / n,)

    return _make(out, (a,), bwd)


def gather(a: Tensor, indices: np.ndarray, axis: int = -1) -> Tensor:
    """Pick one entry per row along axis (e.g. the log-prob of the taken action)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim == a.data.ndim - 1:
        idx = np.expand_dims(idx, axis)
    out = np.take_along_axis(a.data, idx, axis=axis)

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx, g, axis=axis)
        return (full,)

    return _make(out, (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: (g * mask,))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    out = np.minimum(a.data, b.data)
    mask = a.data <= b.data  # ties route gradient to the first operand

    def bwd(g):
        return _unbroadcast(g * mask, a.data.shape), _unbroadcast(g * (~mask), b.data.shape)

    return _make(out, (a, b), bwd)
