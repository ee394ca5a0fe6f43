"""Value-adaptive knowledge summary.

condense turns a stage's labeling into its condensed set in one pass. The
kept samples (label 1), ordered best first, are the members. The last
min(|K0|, |K1|) of them, the lowest-ranked kept samples, form the borderline
slice. Each borderline soft label is blended with the soft label of its
rank-aligned discarded partner (the j-th borderline sample with the j-th
best discarded one) under a linearly growing blend ratio, so the borderline
samples nearest the cut absorb the most outside knowledge. The condensed
set's aug_ids are the borderline slice and its aug_probs the blended matrix,
one row per borderline sample. direct_selection keeps the members alone.
"""

from __future__ import annotations

import numpy as np

from .knowledge import CondensedSet, KnowledgeStore, ValueLabeling


def _best_to_worst(labeling: ValueLabeling) -> np.ndarray:
    """Sample ids from rank 0 down: the inverse of the ranks permutation,
    built by one O(N) scatter; equal to np.argsort(labeling.ranks)."""
    order = np.empty(labeling.n, dtype=np.int64)
    order[labeling.ranks] = np.arange(labeling.n)
    return order


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
    # in place; eps * p_b + p_a is p_a + eps * p_b bit for bit (IEEE + commutes)
    blended = store.teacher_probs.take(k0, axis=0)
    blended *= eps[:, None]
    blended += store.teacher_probs.take(k1l, axis=0)
    blended /= (1.0 + eps)[:, None]
    return blended


def condense(labeling: ValueLabeling, store: KnowledgeStore, eps_m: float,
             constant_eps: bool = False) -> CondensedSet:
    """The kept samples, best first, with the borderline slice blended under
    epsilon_schedule, or under eps_m throughout with constant_eps (the
    non-adaptive variant)."""
    order = _best_to_worst(labeling)
    kept = labeling.labels[order] == 1
    members, discarded = order[kept], order[~kept]
    del order, kept  # not alive beside augment's two n_low x C gathers
    n_low = min(members.size, discarded.size)
    border = members[members.size - n_low:]
    schedule = np.full(n_low, float(eps_m)) if constant_eps else epsilon_schedule(n_low, eps_m)
    blended = augment(border, discarded[:n_low], schedule, store)
    return CondensedSet(member_ids=members, aug_ids=border, aug_probs=blended)


def direct_selection(labeling: ValueLabeling) -> CondensedSet:
    """Kept samples only, best first, original soft labels, no blending."""
    order = _best_to_worst(labeling)
    return CondensedSet(member_ids=order[labeling.labels[order] == 1])
