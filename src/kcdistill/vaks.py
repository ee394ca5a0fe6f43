"""Value-adaptive knowledge summary.

The labeled knowledge set splits into kept (label 1) and discarded (label 0)
samples. The lowest-scored kept samples form a borderline slice, sized to
match the discarded set (clamped when the discarded set is larger). Each
borderline soft label is blended with the soft label of its rank-aligned
discarded partner under a linearly growing blend ratio, so the borderline
samples nearest the cut absorb the most outside knowledge. The condensed set
is the safe slice plus the blended slice: its members are both slices, its
aug_ids the blended slice and its aug_probs the blended matrix, one row per
borderline sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knowledge import CondensedSet, KnowledgeStore, ValueLabeling


@dataclass(frozen=True)
class Partition:
    """Disjoint id lists (kept-high, kept-low, discarded), each ordered
    descending by score."""

    k1h_ids: np.ndarray
    k1l_ids: np.ndarray
    k0_ids: np.ndarray

    @property
    def k1_size(self) -> int:
        return int(self.k1h_ids.size + self.k1l_ids.size)


def partition(labeling: ValueLabeling) -> Partition:
    """Split the labeled set; the borderline slice takes the min(|K0|, |K1|)
    lowest-scored kept samples. Ordering follows the labeling's ranks, which
    already encode descending score with ascending-id tie-break."""
    order = np.argsort(labeling.ranks)  # sample ids from best to worst
    in_order_labels = labeling.labels[order]
    k1 = order[in_order_labels == 1]
    k0 = order[in_order_labels == 0]
    n_low = min(k0.size, k1.size)
    split = k1.size - n_low
    return Partition(
        k1h_ids=k1[:split].astype(np.int64),
        k1l_ids=k1[split:].astype(np.int64),
        k0_ids=k0.astype(np.int64),
    )


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
    p_a = store.teacher_probs[k1l]
    p_b = store.teacher_probs[k0]
    return (p_a + eps[:, None] * p_b) / (1.0 + eps)[:, None]


def summarize(part: Partition, blended: np.ndarray) -> CondensedSet:
    """Union of the safe slice (original soft labels) and the borderline slice,
    whose row j of blended replaces the soft label of part.k1l_ids[j]."""
    return CondensedSet(member_ids=np.concatenate([part.k1h_ids, part.k1l_ids]),
                        aug_ids=part.k1l_ids, aug_probs=blended)


def condense(labeling: ValueLabeling, store: KnowledgeStore, eps_m: float,
             constant_eps: bool = False) -> CondensedSet:
    """Full summary pipeline: partition, schedule, blend, union.

    With constant_eps the whole borderline slice uses the maximum ratio eps_m
    instead of the linear ramp (the non-adaptive variant).
    """
    part = partition(labeling)
    n_low = int(part.k1l_ids.size)
    if constant_eps:
        schedule = np.full(n_low, float(eps_m))
    else:
        schedule = epsilon_schedule(n_low, eps_m)
    condensed = summarize(part, augment(part.k1l_ids, part.k0_ids[:n_low], schedule, store))
    kept = int(np.count_nonzero(labeling.labels))
    if condensed.size != kept:
        raise ValueError(f"condensed size {condensed.size} does not equal kept size {kept}")
    return condensed


def direct_selection(labeling: ValueLabeling) -> CondensedSet:
    """Kept samples only, original soft labels, no blending."""
    order = np.argsort(labeling.ranks)
    return CondensedSet(member_ids=order[labeling.labels[order] == 1])
