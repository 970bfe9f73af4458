"""Named parameter store and Adam with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


class ParamStore:
    """Ordered name -> Tensor mapping; names are unique and insertion-ordered."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        """Give every parameter a zeroed .grad, allocating the ones it lacks.

        Every parameter then has a gradient when adam_step runs, so Adam moves
        even the ones a loss does not reach, on their momentum.
        """
        for p in self._params.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            else:
                p.grad[...] = 0.0

    def drop_grad(self) -> None:
        """Release every parameter's .grad; the next zero_grad allocates them again."""
        for p in self._params.values():
            p.grad = None

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for k, v in state.items():
            arr = np.asarray(v, dtype=np.float64)
            if arr.shape != self._params[k].data.shape:
                raise ValueError(f"shape mismatch for {k!r}: {arr.shape} vs {self._params[k].data.shape}")
            self._params[k].data[...] = arr


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter.

    for_params starts the moments as np.zeros, whose pages the OS maps on first
    write, so moments that a checkpoint replaces before any step cost nothing.
    adam_step reads each parameter's .grad, which ParamStore.zero_grad
    allocates before the backward pass that fills it.
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        return cls(
            m={k: np.zeros(p.data.shape) for k, p in params.items()},
            v={k: np.zeros(p.data.shape) for k, p in params.items()},
            step=0,
        )


def adam_step(
    params: ParamStore,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update in place from the gradients currently held in .grad."""
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
