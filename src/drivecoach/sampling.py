"""Weighted index draws, spelled out from the cdf.

`Generator.choice(k, size=n, p=p)` builds the running sum of p over its
total, draws n uniforms with `Generator.random` and looks each one up in
that sum. `weighted_cdf` and `draw_indices` do the same steps, so they
return `choice`'s indices and leave the generator in the same state; a
caller with fixed weights builds their cdf once.
"""

from __future__ import annotations

import numpy as np


def weighted_cdf(p) -> np.ndarray:
    """The running sum of the weights p over their total. A total that is
    NaN, infinite or not positive raises ValueError, as `choice` does."""
    cdf = np.cumsum(p, dtype=np.float64)
    total = cdf[-1]
    if not 0.0 < total < np.inf:  # NaN fails too
        raise ValueError(f"probabilities must have a finite positive total, got {total}")
    cdf /= total
    return cdf


def draw_indices(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """`size` indices into `cdf`, one uniform each, drawn as `choice` draws them."""
    return cdf.searchsorted(rng.random(size), side="right")
