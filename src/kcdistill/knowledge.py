"""Knowledge store: sample features, teacher soft labels, per-sample value state.

The store is the immutable record of what the teacher says about each training
sample, plus the mutable bookkeeping (running value estimate plus training
frequency) that the condensation loop maintains. Features and teacher soft
labels never change after construction; a stage's blended soft labels live in
CondensedSet as one matrix with a row per augmented sample and never overwrite
the store. Every check runs over whole arrays at once and names the first
offending sample or record.

Single-writer model: value-state updates are expected to come from one training
loop at a time. Read-only access to features and soft labels is safe to share.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import write_atomic

SIMPLEX_ATOL = 1e-6

LABEL_MAGIC = b"KCL1"
LABEL_VERSION = 1
_LABEL_HEADER = struct.Struct("<4sIQ")
# packed, 9 bytes per record: the byte layout of struct format "<IIB"
_LABEL_RECORD = np.dtype([("sample_id", "<u4"), ("rank", "<u4"), ("label", "u1")])


class LabelStreamError(ValueError):
    """A serialized label stream could not be parsed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_simplex(probs: np.ndarray, *, context: str = "probability vector") -> None:
    """Reject vectors that are not on the probability simplex (within 1e-6)."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{context} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{context} is not a probability simplex: non-finite entry")
    if np.any(p < 0.0):
        raise ValueError(f"{context} is not a probability simplex: negative entry")
    total = float(p.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ValueError(
            f"{context} is not a probability simplex (sum={total:.8f})"
        )


def _first_off_simplex(probs: np.ndarray) -> int:
    """Index of the first row of a 2-d array that check_simplex would reject,
    or -1. A NaN or inf entry makes the row sum fail the tolerance test."""
    ok = np.all(probs >= 0.0, axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= SIMPLEX_ATOL)
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else -1


def check_permutation(ranks: np.ndarray, n: int) -> None:
    """Reject integer ranks that are not a permutation of 0..n-1, in O(n):
    n values, all in range, that together hit every position."""
    r = np.asarray(ranks)
    if r.size != n or (n and (r.min() < 0 or r.max() >= n)):
        raise ValueError("ranks are not a permutation of 0..N-1")
    seen = np.zeros(n, dtype=bool)
    seen[r] = True
    if not seen.all():
        raise ValueError("ranks are not a permutation of 0..N-1")


@dataclass(frozen=True)
class ValueRecord:
    """Running value estimate for one sample.

    frequency counts training passes that fed the sample forward; value is the
    running mean of the prediction entropies observed on those passes (nats).
    frequency == 0 means the sample has never been trained on and value is the
    NaN sentinel.
    """

    value: float = float("nan")
    frequency: int = 0

    @property
    def observed(self) -> bool:
        return self.frequency > 0


@dataclass
class ValueLabeling:
    """Global value labeling: rank position, rank probability, binary keep label.

    ranks is a permutation of 0..N-1 with 0 the highest-scored sample;
    probs[i] = 1 - ranks[i]/N; labels[i] is 1 for samples kept at the current
    stage threshold.
    """

    ranks: np.ndarray
    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        n = self.ranks.size
        if self.probs.size != n or self.labels.size != n:
            raise ValueError(
                f"labeling arrays disagree in length: {n}, {self.probs.size}, {self.labels.size}"
            )
        if n == 0:
            raise ValueError("empty labeling")
        check_permutation(self.ranks, n)
        expected = 1.0 - self.ranks / float(n)
        if not np.array_equal(self.probs, expected):
            raise ValueError("probs do not equal 1 - rank/N")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be binary")

    @property
    def n(self) -> int:
        return int(self.ranks.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueLabeling):
            return NotImplemented
        return (
            np.array_equal(self.ranks, other.ranks)
            and np.array_equal(self.probs, other.probs)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass
class CondensedSet:
    """The active knowledge encoding for one stage.

    member_ids lists the kept sample ids. aug_ids, a subset of the members,
    lists the borderline samples whose soft labels were blended, and row j of
    the len(aug_ids) x C matrix aug_probs is the blended label of aug_ids[j].
    Every other member distills against the store's original teacher probs.
    """

    member_ids: np.ndarray
    aug_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    # one column broadcasts to any class count when no row is blended
    aug_probs: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))

    def __post_init__(self):
        self.member_ids = np.asarray(self.member_ids, dtype=np.int64)
        self.aug_ids = np.asarray(self.aug_ids, dtype=np.int64)
        self.aug_probs = np.asarray(self.aug_probs, dtype=np.float64)
        if np.unique(self.member_ids).size != self.member_ids.size:
            raise ValueError("condensed set has duplicate member ids")
        if self.aug_probs.ndim != 2 or self.aug_probs.shape[0] != self.aug_ids.size:
            raise ValueError(
                f"aug_probs of shape {self.aug_probs.shape} needs one row per "
                f"aug id ({self.aug_ids.size})"
            )
        outside = np.flatnonzero(~np.isin(self.aug_ids, self.member_ids))
        if outside.size:
            raise ValueError(f"aug id {self.aug_ids[outside[0]]} is not a member")
        if np.unique(self.aug_ids).size != self.aug_ids.size:
            raise ValueError("condensed set has duplicate aug ids")
        j = _first_off_simplex(self.aug_probs)
        if j >= 0:
            check_simplex(self.aug_probs[j], context=f"aug_probs for sample {self.aug_ids[j]}")

    @property
    def size(self) -> int:
        return int(self.member_ids.size)


class KnowledgeStore:
    """All knowledge points of a run plus their mutable value state."""

    def __init__(self, features: np.ndarray, teacher_probs: np.ndarray,
                 hard_labels: np.ndarray | None = None):
        features = np.array(features, dtype=np.float64)
        teacher_probs = np.array(teacher_probs, dtype=np.float64)
        if features.size == 0:
            raise ValueError("empty knowledge set")
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array (N x D)")
        if teacher_probs.ndim != 2:
            raise ValueError("teacher_probs must be a 2-d array (N x C)")
        if features.shape[0] != teacher_probs.shape[0]:
            raise ValueError(
                f"dataset and teacher_probs lengths differ: "
                f"{features.shape[0]} vs {teacher_probs.shape[0]}"
            )
        i = _first_off_simplex(teacher_probs)
        if i >= 0:
            check_simplex(teacher_probs[i], context=f"sample {i}: teacher_probs")
        if hard_labels is not None:
            hard_labels = np.array(hard_labels, dtype=np.int64)
            if hard_labels.shape != (features.shape[0],):
                raise ValueError("hard_labels length does not match features")
            classes = teacher_probs.shape[1]
            bad = np.flatnonzero((hard_labels < 0) | (hard_labels >= classes))
            if bad.size:
                raise ValueError(
                    f"sample {bad[0]}: hard label {hard_labels[bad[0]]} is outside [0, {classes})"
                )
        features.setflags(write=False)
        teacher_probs.setflags(write=False)
        if hard_labels is not None:
            hard_labels.setflags(write=False)

        self.features = features
        self.teacher_probs = teacher_probs
        self.hard_labels = hard_labels
        n = features.shape[0]
        # running mean of observed values; NaN marks the unobserved state
        self.values = np.full(n, np.nan, dtype=np.float64)
        # most recent observation, kept for the no-moving-average ablation
        self.last_values = np.full(n, np.nan, dtype=np.float64)
        self.frequencies = np.zeros(n, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.teacher_probs.shape[1])

    def reset_value_state(self) -> None:
        """Forget all observations; every sample returns to the unobserved state."""
        self.values.fill(np.nan)
        self.last_values.fill(np.nan)
        self.frequencies.fill(0)


def build_store(dataset, teacher_probs, hard_labels=None) -> KnowledgeStore:
    """Materialize the knowledge set from (N, D) features and cached teacher outputs."""
    return KnowledgeStore(dataset, teacher_probs, hard_labels)


def export_labels(labeling: ValueLabeling) -> bytes:
    """Serialize a labeling to bytes: header (magic, version, N) then one
    (sample_id, rank, label) record per sample in sample-id order."""
    records = np.empty(labeling.n, dtype=_LABEL_RECORD)
    records["sample_id"] = np.arange(labeling.n)
    records["rank"] = labeling.ranks
    records["label"] = labeling.labels
    return _LABEL_HEADER.pack(LABEL_MAGIC, LABEL_VERSION, labeling.n) + records.tobytes()


def import_labels(stream: bytes) -> ValueLabeling:
    """Parse a label stream produced by export_labels; round-trips bit-exactly."""
    data = bytes(stream)
    if len(data) < _LABEL_HEADER.size:
        raise LabelStreamError(
            f"truncated header: got {len(data)} bytes, need {_LABEL_HEADER.size}", len(data)
        )
    magic, version, n = _LABEL_HEADER.unpack_from(data, 0)
    if magic != LABEL_MAGIC:
        raise LabelStreamError(f"bad magic {magic!r}", 0)
    if version != LABEL_VERSION:
        raise LabelStreamError(f"unsupported version {version}", 4)
    expected = _LABEL_HEADER.size + n * _LABEL_RECORD.itemsize
    if len(data) != expected:
        raise LabelStreamError(
            f"stream length {len(data)} does not match header (expected {expected})",
            min(len(data), expected),
        )
    records = np.frombuffer(data, dtype=_LABEL_RECORD, count=n, offset=_LABEL_HEADER.size)
    sids, labels = records["sample_id"], records["label"]
    out_of_order = sids != np.arange(n)
    bad = np.flatnonzero(out_of_order | (labels > 1))
    if bad.size:
        i = int(bad[0])
        offset = _LABEL_HEADER.size + i * _LABEL_RECORD.itemsize
        if out_of_order[i]:
            raise LabelStreamError(f"record {i} has out-of-order sample_id {sids[i]}", offset)
        raise LabelStreamError(f"record {i} has non-binary label {labels[i]}", offset)
    ranks = records["rank"].astype(np.int64)
    probs = 1.0 - ranks / float(n)
    try:
        return ValueLabeling(ranks=ranks, probs=probs, labels=labels.copy())
    except ValueError as exc:
        raise LabelStreamError(f"invalid labeling content: {exc}", _LABEL_HEADER.size) from None


def save_labels(path, labeling: ValueLabeling) -> None:
    write_atomic(path, export_labels(labeling))


def load_labels(path) -> ValueLabeling:
    with open(path, "rb") as fh:
        return import_labels(fh.read())
