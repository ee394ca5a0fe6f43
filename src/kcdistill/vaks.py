"""Value-adaptive knowledge summary.

direct_selection turns a stage's labeling into the ids the stage trains on:
its kept samples (label 1), ascending. condense turns it into the stage's
blend. Ordered best first, the last min(|K0|, |K1|) kept samples, the
lowest-ranked ones, form the borderline slice. Each borderline soft label is
blended with the soft label of its rank-aligned discarded partner (the j-th
borderline sample with the j-th best discarded one) under a linearly growing
blend ratio, so the borderline samples nearest the cut absorb the most
outside knowledge. The blend is the pair (aug_ids, aug_probs): the
borderline slice and the blended matrix, one row per borderline sample.
Neither function checks its result: the stage loop checks each blend against
its labeling (emdriver._check_boundary) before the stage trains.
"""

from __future__ import annotations

import numpy as np

from .knowledge import KnowledgeStore, ValueLabeling

_CHUNK_ROWS = 8192


def epsilon_schedule(n: int, eps_m: float) -> np.ndarray:
    """Blend ratios for the borderline slice: n values rising linearly from
    eps_m/n to exactly eps_m. Empty when n == 0; all zeros when eps_m == 0."""
    if eps_m < 0.0 or not np.isfinite(eps_m):
        raise ValueError(f"eps_m must be finite and >= 0, got {eps_m}")
    if n < 0:
        raise ValueError(f"schedule length must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    return np.linspace(eps_m / n, eps_m, n)


def augment(k1l_ids, k0_ids, schedule, store: KnowledgeStore) -> np.ndarray:
    """Blend each borderline soft label with its rank-aligned discarded partner.

    The j-th borderline sample (descending by score) pairs with the j-th
    discarded sample (descending by score) and blend ratio schedule[j]; row j
    of the returned len(k1l_ids) x C matrix, (p_a + eps * p_b) / (1 + eps),
    stays on the probability simplex. The store itself is never touched.
    """
    k1l = np.asarray(k1l_ids, dtype=np.int64)
    k0 = np.asarray(k0_ids, dtype=np.int64)
    eps = np.asarray(schedule, dtype=np.float64)
    if not (k1l.size == k0.size == eps.size):
        raise ValueError(
            f"augment inputs must be equal length, got {k1l.size}, {k0.size}, {eps.size}"
        )
    # in place; eps * p_b + p_a is p_a + eps * p_b bit for bit (IEEE + commutes),
    # and p_a comes a chunk of rows at a time, so no second n x C gather lives
    blended = store.teacher_probs.take(k0, axis=0)
    blended *= eps[:, None]
    for s in range(0, k1l.size, _CHUNK_ROWS):
        blended[s:s + _CHUNK_ROWS] += store.teacher_probs.take(k1l[s:s + _CHUNK_ROWS], axis=0)
    blended /= (1.0 + eps)[:, None]
    return blended


def condense(labeling: ValueLabeling, store: KnowledgeStore, eps_m: float,
             constant_eps: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The borderline slice of the kept samples and their blended soft
    labels, (aug_ids, aug_probs), blended under epsilon_schedule, or under
    eps_m throughout with constant_eps (the non-adaptive variant)."""
    # sample ids from rank 0 down: np.argsort(labeling.ranks) by one O(N) scatter
    order = np.empty(labeling.n, dtype=np.int64)
    order[labeling.ranks] = np.arange(labeling.n)
    kept = labeling.labels[order] == 1
    members, discarded = order[kept], order[~kept]
    del order, kept  # not alive beside augment's n_low x C gather
    n_low = min(members.size, discarded.size)
    border = members[members.size - n_low:]
    schedule = np.full(n_low, float(eps_m)) if constant_eps else epsilon_schedule(n_low, eps_m)
    return border, augment(border, discarded[:n_low], schedule, store)


def direct_selection(labeling: ValueLabeling) -> np.ndarray:
    """The ids a stage trains on: its kept samples, ascending."""
    return np.flatnonzero(labeling.labels)
