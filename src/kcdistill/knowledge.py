"""Knowledge store: sample features and teacher soft labels.

The store is the immutable record of what the teacher says about each training
sample: its arrays are read-only, so runs in any number of threads may share
one. A run's value estimate lives in its own ogve.ValueState. Each check runs
over whole arrays at once and names the first offending sample or record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, first_non_finite_row, read_only, write_atomic

SIMPLEX_ATOL = 1e-6

LABEL_MAGIC = b"KCL1"
LABEL_VERSION = 1
_LABEL_HEADER = struct.Struct("<4sIQ")
# packed, 9 bytes per record: the byte layout of struct format "<IIB"
_LABEL_RECORD = np.dtype([("sample_id", "<u4"), ("rank", "<u4"), ("label", "u1")])


def check_simplex(probs: np.ndarray, context) -> None:
    """Reject the first row of a 2-d float array that is not on the
    probability simplex (within 1e-6), named context(row index). A NaN or inf
    entry makes the row sum fail the tolerance test.

    Whole-array reductions accept most inputs: no entry below 0 (a NaN fails
    the test) and every row sum, taken as probs @ ones, within half the
    tolerance, a margin far wider than the rounding by which that sum can
    differ from the row scan's. Anything they do not accept goes to the row
    scan, which decides and names the row."""
    if probs.size and probs.min() >= 0.0 and np.all(
            np.abs(probs @ np.ones(probs.shape[1]) - 1.0) <= SIMPLEX_ATOL / 2):
        return
    ok = np.all(probs >= 0.0, axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= SIMPLEX_ATOL)
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return
    p, where = probs[bad[0]], context(int(bad[0]))
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{where} is not a probability simplex: non-finite entry")
    if np.any(p < 0.0):
        raise ValueError(f"{where} is not a probability simplex: negative entry")
    raise ValueError(f"{where} is not a probability simplex (sum={float(p.sum()):.8f})")


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


@dataclass
class ValueLabeling:
    """Global value labeling: a rank position and a binary keep label per sample.

    ranks is a permutation of 0..N-1 with 0 the highest-scored sample;
    labels[i] is 1 for the samples a stage keeps. A stage with keep ratio
    tau_s keeps the ranks < round(tau_s * N) (ogve.labeling_from_ranks); an
    imported labeling may keep any set. Either way the stage records
    threshold 1 - r/N for the largest kept rank r.
    """

    ranks: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        n = self.ranks.size
        if self.labels.size != n:
            raise ValueError(f"labeling arrays disagree in length: {n}, {self.labels.size}")
        if n == 0:
            raise ValueError("empty labeling")
        check_permutation(self.ranks, n)
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be binary")

    @property
    def n(self) -> int:
        return int(self.ranks.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueLabeling):
            return NotImplemented
        return np.array_equal(self.ranks, other.ranks) and np.array_equal(self.labels, other.labels)


class KnowledgeStore:
    """All knowledge points: read-only finite features, teacher soft labels
    and optional hard labels. Each array goes through data.read_only, so a
    Dataset's split is shared, not copied, and any other input is copied."""

    def __init__(self, features: np.ndarray, teacher_probs: np.ndarray,
                 hard_labels: np.ndarray | None = None):
        features = read_only(features, np.float64)
        teacher_probs = read_only(teacher_probs, np.float64)
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
        bad = first_non_finite_row(features)
        if bad is not None:
            raise ValueError(f"sample {bad}: non-finite feature value")
        check_simplex(teacher_probs, lambda i: f"sample {i}: teacher_probs")
        if hard_labels is not None:
            hard_labels = read_only(hard_labels, np.int64)
            if hard_labels.shape != (features.shape[0],):
                raise ValueError("hard_labels length does not match features")
            classes = teacher_probs.shape[1]
            bad = np.flatnonzero((hard_labels < 0) | (hard_labels >= classes))
            if bad.size:
                raise ValueError(
                    f"sample {bad[0]}: hard label {hard_labels[bad[0]]} is outside [0, {classes})"
                )
        self.features = features
        self.teacher_probs = teacher_probs
        self.hard_labels = hard_labels

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.teacher_probs.shape[1])


def build_store(features, teacher_probs, hard_labels=None) -> KnowledgeStore:
    """Materialize the knowledge set from (N, D) features and cached teacher outputs."""
    return KnowledgeStore(features, teacher_probs, hard_labels)


def export_labels(labeling: ValueLabeling) -> bytes:
    """Serialize a labeling to bytes: header (magic, version, N) then one
    (sample_id, rank, label) record per sample in sample-id order."""
    records = np.empty(labeling.n, dtype=_LABEL_RECORD)
    records["sample_id"] = np.arange(labeling.n)
    records["rank"] = labeling.ranks
    records["label"] = labeling.labels
    return _LABEL_HEADER.pack(LABEL_MAGIC, LABEL_VERSION, labeling.n) + records.tobytes()


def _bad_stream(message: str, offset: int) -> DataFormatError:
    return DataFormatError(f"{message} (byte offset {offset})")


def import_labels(stream: bytes) -> ValueLabeling:
    """Parse a label stream produced by export_labels; round-trips bit-exactly.
    A bad stream raises a DataFormatError that ends with its byte offset."""
    data = bytes(stream)
    if len(data) < _LABEL_HEADER.size:
        raise _bad_stream(
            f"truncated header: got {len(data)} bytes, need {_LABEL_HEADER.size}", len(data))
    magic, version, n = _LABEL_HEADER.unpack_from(data, 0)
    if magic != LABEL_MAGIC:
        raise _bad_stream(f"bad magic {magic!r}", 0)
    if version != LABEL_VERSION:
        raise _bad_stream(f"unsupported version {version}", 4)
    expected = _LABEL_HEADER.size + n * _LABEL_RECORD.itemsize
    if len(data) != expected:
        raise _bad_stream(f"stream length {len(data)} does not match header "
                          f"(expected {expected})", min(len(data), expected))
    records = np.frombuffer(data, dtype=_LABEL_RECORD, count=n, offset=_LABEL_HEADER.size)
    sids, labels = records["sample_id"], records["label"]
    out_of_order = sids != np.arange(n)
    bad = np.flatnonzero(out_of_order | (labels > 1))
    if bad.size:
        i = int(bad[0])
        offset = _LABEL_HEADER.size + i * _LABEL_RECORD.itemsize
        if out_of_order[i]:
            raise _bad_stream(f"record {i} has out-of-order sample_id {sids[i]}", offset)
        raise _bad_stream(f"record {i} has non-binary label {labels[i]}", offset)
    ranks = records["rank"].astype(np.int64)
    try:
        return ValueLabeling(ranks=ranks, labels=labels.copy())
    except ValueError as exc:
        # point at the first rank that is out of range or repeats an earlier one
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(ranks, return_index=True)[1]] = False
        bad = np.flatnonzero(repeat | (ranks >= n))
        offset = _LABEL_HEADER.size + (int(bad[0]) * _LABEL_RECORD.itemsize + 4 if bad.size else 0)
        raise _bad_stream(f"invalid labeling content: {exc}", offset) from None


def save_labels(path, labeling: ValueLabeling) -> None:
    write_atomic(path, export_labels(labeling))


def load_labels(path) -> ValueLabeling:
    """import_labels of the file at path; its DataFormatError names the path."""
    with open(path, "rb") as fh:
        stream = fh.read()
    try:
        return import_labels(stream)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
