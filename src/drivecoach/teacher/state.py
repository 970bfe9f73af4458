"""Fixed-layout numeric state vector handed to memory retrieval and prompts.

Layout for N neighbor slots: ego block (x, y, vx, vy, cos h, sin h), then
(px, py, vx, vy) per slot in the ego frame, then one conflict time per slot.
Empty slots hold zeros in the kinematic blocks and the horizon value in the
conflict block, so "no vehicle" and "vehicle with no conflict" read the same
to the similarity metric.
"""

from __future__ import annotations

import math

import numpy as np

from ..sim.scenarios import N_NEIGHBOR_SLOTS

EGO_BLOCK = 6
STATE_DIM = EGO_BLOCK + 5 * N_NEIGHBOR_SLOTS  # 36


def encode_state(obs, assessment, horizon: float = 6.0) -> np.ndarray:
    z = np.zeros(STATE_DIM)
    z[:EGO_BLOCK] = obs.ego
    tau_offset = EGO_BLOCK + 4 * N_NEIGHBOR_SLOTS
    z[tau_offset:] = horizon
    neighbors = obs.neighbors
    for slot in range(obs.neighbor_count):
        base = EGO_BLOCK + 4 * slot
        z[base:base + 4] = neighbors[:4, slot]
        z[tau_offset + slot] = min(assessment.taus[obs.neighbor_ids[slot]], horizon)
    return z


def neighbor_tau(z: np.ndarray, slot: int) -> float:
    return float(z[EGO_BLOCK + 4 * N_NEIGHBOR_SLOTS + slot])


def ego_speed_of(z: np.ndarray) -> float:
    return float(math.hypot(z[2], z[3]))
