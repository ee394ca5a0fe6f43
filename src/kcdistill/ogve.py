"""Online global value estimation.

Each training forward pass yields a prediction entropy for every sample it
touches; those observations are folded into a per-sample running mean. At a
stage boundary the complete store is ranked by the frequency-weighted score
value * frequency**alpha (descending), the rank is mapped to a rank
probability 1 - rank/N, and a threshold on that probability produces the
binary keep labels.

Entropies are natural-log throughout; the choice of base rescales every score
by the same constant and cannot change any ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knowledge import (
    KnowledgeStore,
    ValueLabeling,
    ValueRecord,
    check_permutation,
    check_simplex,
)


@dataclass(frozen=True)
class OgveConfig:
    """alpha is the exponent applied to training frequency when ranking."""

    alpha: float = 0.03

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


def prediction_entropy(student_probs) -> float:
    """Entropy -sum(p log p) of one prediction, with 0 log 0 taken as 0."""
    p = np.asarray(student_probs, dtype=np.float64)
    check_simplex(p, context="student_probs")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise prediction entropy of a batch of probability vectors."""
    p = np.asarray(probs, dtype=np.float64)
    pos = p > 0.0
    terms = np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0)
    return -np.add.reduce(terms, axis=1)


def record_value(record: ValueRecord, new_value: float) -> ValueRecord:
    """Fold one observation into the running mean and bump the frequency.

    At frequency 1 the stored value is exactly the observation; afterwards the
    update ((F-1)/F) * previous + (1/F) * observation keeps the value equal to
    the arithmetic mean of everything observed so far.
    """
    v = float(new_value)
    if not np.isfinite(v) or v < 0.0:
        raise ValueError(f"observed value must be finite and >= 0, got {new_value}")
    freq = record.frequency + 1
    if freq == 1:
        return ValueRecord(value=v, frequency=1)
    updated = ((freq - 1) / freq) * record.value + v / freq
    return ValueRecord(value=updated, frequency=freq)


def observe_batch(store: KnowledgeStore, sample_ids, new_values) -> None:
    """Apply the running-mean update to a batch of store entries."""
    ids = np.asarray(sample_ids, dtype=np.int64)
    vals = np.asarray(new_values, dtype=np.float64)
    if ids.size != vals.size:
        raise ValueError("sample_ids and new_values lengths differ")
    if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("observed values must be finite and >= 0")
    freq = store.frequencies[ids] + 1
    first = freq == 1
    prev = store.values[ids]
    updated = np.where(first, vals, ((freq - 1) / freq) * np.where(first, 0.0, prev) + vals / freq)
    store.values[ids] = updated
    store.last_values[ids] = vals
    store.frequencies[ids] = freq


def cost_aware_score(record: ValueRecord, cfg: OgveConfig) -> float:
    """Score used for ranking: running value times frequency**alpha."""
    if record.frequency < 1:
        raise ValueError("unobserved sample: frequency is 0")
    return float(record.value * record.frequency ** cfg.alpha)


def cost_aware_scores(store: KnowledgeStore, cfg: OgveConfig,
                      value_source: str = "mean") -> np.ndarray:
    """Vectorized scores over the whole store; unobserved entries get -inf so
    they sort below every observed sample."""
    if value_source == "mean":
        values = store.values
    elif value_source == "latest":
        values = store.last_values
    else:
        raise ValueError(f"unknown value_source {value_source!r}")
    observed = store.frequencies > 0
    with np.errstate(invalid="ignore"):
        raw = values * store.frequencies.astype(np.float64) ** cfg.alpha
    return np.where(observed, raw, -np.inf)


def rank(store: KnowledgeStore, cfg: OgveConfig, value_source: str = "mean") -> np.ndarray:
    """Rank positions 0..N-1 (0 = highest score), descending by score with
    ties broken by ascending sample id."""
    scores = cost_aware_scores(store, cfg, value_source)
    return ranks_from_scores(scores)


def ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    ids = np.arange(s.size)
    order = np.lexsort((ids, -s))
    ranks = np.empty(s.size, dtype=np.int64)
    ranks[order] = ids
    return ranks


def rank_probability(ranks: np.ndarray, n: int) -> np.ndarray:
    """Rank probability 1 - rank/N; the top-ranked sample gets exactly 1.0."""
    r = np.asarray(ranks, dtype=np.int64)
    check_permutation(r, n)
    return 1.0 - r / float(n)


def binarize(probs: np.ndarray, tau: float) -> np.ndarray:
    """Keep label 1 where the rank probability is >= tau (boundary inclusive)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    p = np.asarray(probs, dtype=np.float64)
    return (p >= tau).astype(np.uint8)


def keep_count(n: int, keep_ratio: float) -> int:
    """Number of samples retained for a stage keep ratio: round(ratio * N),
    half away from zero, clamped to at least one sample."""
    if not (0.0 < keep_ratio <= 1.0):
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    m = int(np.floor(keep_ratio * n + 0.5))
    return max(1, min(n, m))


def ratio_threshold(n: int, keep_ratio: float) -> float:
    """Rank-probability cutoff whose inclusive threshold retains exactly
    keep_count(n, keep_ratio) top-ranked samples."""
    m = keep_count(n, keep_ratio)
    return 1.0 - (m - 1) / float(n)


def labeling_from_ranks(ranks: np.ndarray, keep_ratio: float) -> ValueLabeling:
    """Assemble the full labeling for one stage from rank positions."""
    n = int(np.asarray(ranks).size)
    probs = rank_probability(ranks, n)
    labels = binarize(probs, ratio_threshold(n, keep_ratio))
    return ValueLabeling(ranks=np.asarray(ranks, dtype=np.int64), probs=probs, labels=labels)


def label_by_ratio(store: KnowledgeStore, cfg: OgveConfig, keep_ratio: float,
                   value_source: str = "mean") -> ValueLabeling:
    """Rank the store and label the top round(keep_ratio * N) samples as kept."""
    return labeling_from_ranks(rank(store, cfg, value_source), keep_ratio)
