"""Online global value estimation.

Each training forward pass yields a prediction entropy for every sample it
touches; those observations are folded into a per-sample running mean in the
run's own ValueState. At a stage boundary every sample is ranked by the
frequency-weighted score value * frequency**alpha (descending), the rank is
mapped to a rank probability 1 - rank/N, and a threshold on that probability
produces the binary keep labels.

Entropies are natural-log throughout; the choice of base rescales every score
by the same constant and cannot change any ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knowledge import ValueLabeling, check_permutation


class ValueState:
    """One run's estimate for n samples: running mean entropy (NaN until
    observed), latest observation (for no-ovr) and passes observed."""

    def __init__(self, n: int):
        self.values = np.full(n, np.nan)
        self.last_values = np.full(n, np.nan)
        self.frequencies = np.zeros(n, dtype=np.int64)


@dataclass(frozen=True)
class OgveConfig:
    """alpha is the exponent applied to training frequency when ranking."""

    alpha: float = 0.03

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Prediction entropy -sum(p log p) along the last axis, with 0 log 0
    taken as 0."""
    p = np.asarray(probs, dtype=np.float64)
    pos = p > 0.0
    terms = np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0)
    return -np.add.reduce(terms, axis=-1)


def observe_batch(state: ValueState, sample_ids, new_values) -> None:
    """Apply the running-mean update to a batch of samples."""
    ids = np.asarray(sample_ids, dtype=np.int64)
    vals = np.asarray(new_values, dtype=np.float64)
    if ids.size != vals.size:
        raise ValueError("sample_ids and new_values lengths differ")
    if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("observed values must be finite and >= 0")
    freq = state.frequencies[ids] + 1
    first = freq == 1
    prev = state.values[ids]
    updated = np.where(first, vals, ((freq - 1) / freq) * np.where(first, 0.0, prev) + vals / freq)
    state.values[ids] = updated
    state.last_values[ids] = vals
    state.frequencies[ids] = freq


def cost_aware_scores(state: ValueState, cfg: OgveConfig,
                      value_source: str = "mean") -> np.ndarray:
    """Vectorized scores over every sample; unobserved entries get -inf so
    they sort below every observed sample."""
    if value_source == "mean":
        values = state.values
    elif value_source == "latest":
        values = state.last_values
    else:
        raise ValueError(f"unknown value_source {value_source!r}")
    observed = state.frequencies > 0
    with np.errstate(invalid="ignore"):
        raw = values * state.frequencies.astype(np.float64) ** cfg.alpha
    return np.where(observed, raw, -np.inf)


def rank(state: ValueState, cfg: OgveConfig, value_source: str = "mean") -> np.ndarray:
    """Rank positions 0..N-1 (0 = highest score), descending by score with
    ties broken by ascending sample id."""
    return ranks_from_scores(cost_aware_scores(state, cfg, value_source))


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


def label_by_ratio(state: ValueState, cfg: OgveConfig, keep_ratio: float,
                   value_source: str = "mean") -> ValueLabeling:
    """Rank every sample and label the top round(keep_ratio * N) as kept."""
    return labeling_from_ranks(rank(state, cfg, value_source), keep_ratio)
