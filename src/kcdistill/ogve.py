"""Online global value estimation.

Each training forward pass yields a prediction entropy for every sample it
touches; those observations are folded into one value per sample in the
run's own ValueState: their running mean, or for the no-ovr ablation the
latest one. At a stage boundary every sample is ranked by the
frequency-weighted score value * frequency**alpha (descending) and a stage
with keep ratio tau_s keeps the samples of rank < round(tau_s * N). The
stage's StageRecord.threshold is 1 - r/N for the largest kept rank r.

Entropies are natural-log throughout; the choice of base rescales every score
by the same constant and cannot change any ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knowledge import ValueLabeling


class ValueState:
    """One run's estimate for n samples: a value (NaN until observed) and
    the passes observed. The value is the running mean of the observed
    entropies, or with latest=True (no-ovr) the latest observation."""

    def __init__(self, n: int, latest: bool = False):
        self.values = np.full(n, np.nan)
        self.frequencies = np.zeros(n, dtype=np.int64)
        self.latest = latest


@dataclass(frozen=True)
class OgveConfig:
    """alpha is the exponent applied to training frequency when ranking."""

    alpha: float = 0.03

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Prediction entropy -sum(p log p) along the last axis, with 0 log 0
    taken as 0; a row holding a NaN comes back NaN."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size and p.min() > 0.0:
        # no 0 and no NaN: the masked terms below, bit for bit, without np.where
        return -np.add.reduce(p * np.log(p), axis=-1)
    pos = p > 0.0
    terms = np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0 * p)
    return -np.add.reduce(terms, axis=-1)


def observe_batch(state: ValueState, sample_ids, new_values) -> None:
    """Fold a batch of distinct samples' observations into the state: a
    first observation becomes the value, a later one gives
    ((F-1)/F) * previous + value/F at frequency F, or replaces the value in
    a latest state. One gather and one scatter per array; the mean is
    computed in place."""
    ids = np.asarray(sample_ids, dtype=np.int64)
    vals = np.asarray(new_values, dtype=np.float64)
    if ids.size != vals.size:
        raise ValueError("sample_ids and new_values lengths differ")
    if not np.all((vals >= 0.0) & (vals < np.inf)):  # NaN fails both
        raise ValueError("observed values must be finite and >= 0")
    freq = state.frequencies.take(ids)
    freq += 1
    if not state.latest:
        f = freq.astype(np.float64)
        mean = state.values.take(ids)  # NaN at a first observation: overwritten below
        mean *= (f - 1.0) / f
        mean += vals / f
        np.copyto(mean, vals, where=freq == 1)
        vals = mean
    state.values.put(ids, vals)
    state.frequencies.put(ids, freq)


def cost_aware_scores(state: ValueState, cfg: OgveConfig) -> np.ndarray:
    """Vectorized scores over every sample; unobserved entries get -inf so
    they sort below every observed sample."""
    observed = state.frequencies > 0
    with np.errstate(invalid="ignore"):
        raw = state.values * state.frequencies.astype(np.float64) ** cfg.alpha
    return np.where(observed, raw, -np.inf)


def rank(state: ValueState, cfg: OgveConfig) -> np.ndarray:
    """Rank positions 0..N-1 (0 = highest score), descending by score with
    ties broken by ascending sample id."""
    return ranks_from_scores(cost_aware_scores(state, cfg))


def ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    """Rank positions 0..N-1 (0 = highest score): descending by score, equal
    scores (-0.0 and 0.0 among them) in ascending id order, NaN scores last
    as one tie.

    The default argsort leaves ties in no set order, so only the positions
    inside runs of equal sorted scores are re-sorted by id; with that repair
    it still takes about a third of the time of a stable sort at N=200k.
    """
    key = -np.asarray(scores, dtype=np.float64)
    n = key.size
    order = np.argsort(key)
    ordered = key[order]
    # tie[i]: sorted positions i and i+1 hold equal scores; NaNs sort last,
    # so a NaN is always followed by another NaN
    tie = (ordered[1:] == ordered[:-1]) | np.isnan(ordered[:-1])
    if tie.any():
        pos = np.flatnonzero(np.append(tie, False) | np.insert(tie, 0, False))
        # offset each run by its run number so one sort orders ids within runs
        offset = np.insert(np.cumsum(~tie), 0, 0)[pos] * n
        order[pos] = np.sort(offset + order[pos]) - offset
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return ranks


def keep_count(n: int, keep_ratio: float) -> int:
    """Number of samples retained for a stage keep ratio: round(ratio * N),
    half away from zero, clamped to at least one sample."""
    if not (0.0 < keep_ratio <= 1.0):
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    m = int(np.floor(keep_ratio * n + 0.5))
    return max(1, min(n, m))


def labeling_from_ranks(ranks: np.ndarray, keep_ratio: float) -> ValueLabeling:
    """The labeling for one stage: keep the samples of rank <
    keep_count(N, keep_ratio)."""
    ranks = np.asarray(ranks, dtype=np.int64)
    return ValueLabeling(ranks=ranks, labels=ranks < keep_count(ranks.size, keep_ratio))


def label_by_ratio(state: ValueState, cfg: OgveConfig, keep_ratio: float) -> ValueLabeling:
    """Rank every sample and label the top round(keep_ratio * N) as kept."""
    return labeling_from_ranks(rank(state, cfg), keep_ratio)
