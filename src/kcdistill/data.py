"""Synthetic class-blob datasets and CSV ingestion.

Generated features are standardized per dimension against the train split so
models see zero-mean unit-variance inputs; the written CSVs carry the
standardized values, so a reload never re-standardizes.
"""

from __future__ import annotations

import os
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_FLOAT_FORMAT = "%.17g"
_CSV_CHUNK_ROWS = 1024
_INT_LITERAL = re.compile(r"[+-]?[0-9]+")
TRAIN_FILE = "train.csv"
TEST_FILE = "test.csv"


class DataFormatError(ValueError):
    """A data file could not be parsed; the message names the line or byte offset."""


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValueError("features must be N x D with one label per row")
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: non-finite feature value")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")
        if np.intersect1d(self.train_indices, self.test_indices).size:
            raise ValueError("train and test splits overlap")
        if self.train_indices.size + self.test_indices.size != self.labels.size:
            raise ValueError("splits do not cover the dataset")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def train_features(self) -> np.ndarray:
        return self.features[self.train_indices]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[self.train_indices]

    @property
    def test_features(self) -> np.ndarray:
        return self.features[self.test_indices]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[self.test_indices]


def gen_gaussian_mixture(classes: int, dims: int, n_per_class: int, spread: float,
                         seed: int) -> Dataset:
    """Isotropic Gaussian blobs at seeded random centers, 80/20 split.

    Split membership comes from a seeded shuffle; the stored index arrays are
    sorted so downstream sample ordering is canonical.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if dims < 1 or n_per_class < 1:
        raise ValueError("dims and n_per_class must be positive")
    if spread < 0.0:
        raise ValueError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(classes, dims))
    features = np.concatenate(
        [centers[c] + spread * rng.standard_normal((n_per_class, dims)) for c in range(classes)]
    )
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    n = classes * n_per_class
    perm = rng.permutation(n)
    n_train = int(round(0.8 * n))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    mu = features[train_idx].mean(axis=0)
    sigma = features[train_idx].std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    features = (features - mu) / sigma
    return Dataset(features, labels, classes, train_idx, test_idx)


def write_atomic(path, payload) -> None:
    """Write payload (bytes or an iterable of bytes chunks) to path via a temp
    file in the same directory and os.replace: a reader sees the old file or
    the whole new one, and a failed write keeps the old file and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines((payload,) if isinstance(payload, bytes) else payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Rows are f0..f{D-1},label with floats at 17 significant digits,
    formatted _CSV_CHUNK_ROWS rows per % call and streamed through
    write_atomic."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] != labels.size:
        raise ValueError(f"{features.shape[0]} feature rows but {labels.size} labels")
    dim = features.shape[1]
    header = ",".join([f"f{i}" for i in range(dim)] + ["label"])
    row_format = ",".join([CSV_FLOAT_FORMAT] * dim + ["%d"]) + "\n"

    def chunks():
        yield f"{header}\n".encode()
        for start in range(0, labels.size, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, labels.size)
            cells = np.empty((stop - start, dim + 1), dtype=object)
            cells[:, :dim] = features[start:stop]
            cells[:, dim] = labels[start:stop]
            yield ((row_format * (stop - start)) % tuple(cells.ravel().tolist())).encode()

    write_atomic(path, chunks())


def _parse_rows(lines: list[str], dim: int) -> np.ndarray:
    """The one parser of CSV data rows: D float64 cells and an int64 label per
    line, no quoting, no comments. Raises ValueError on any line it rejects."""
    dtype = np.dtype([("f", np.float64, (dim,)), ("label", np.int64)])
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                      quotechar=None, ndmin=1)


def _row_fault(line: str, dim: int) -> str:
    """Why _parse_rows rejects this one line."""
    cells = line.split(",")
    if len(cells) != dim + 1:
        return f"expected {dim + 1} cells, got {len(cells)}"
    try:
        _parse_rows([",".join(cells[:-1] + ["0"])], dim)
    except ValueError:
        return "non-numeric feature cell"
    label = cells[-1].strip()
    if _INT_LITERAL.fullmatch(label):  # an integer literal it rejects is outside int64
        return f"unknown label value {int(label)}"
    return f"non-integer label {cells[-1]!r}"


def _first_bad_row(rows: list[str], dim: int) -> int:
    """Index of a row _parse_rows rejects, found by parsing halves of a list
    it rejects whole."""
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(rows[lo:mid], dim)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def load_csv(path, class_count: int | None = None) -> Dataset:
    """Parse one CSV into a Dataset (all rows tagged train, row order kept).

    Blank and whitespace-only lines are skipped. Every error names its line."""
    path = Path(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty dataset")
    header = lines[0].split(",")
    if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
        raise DataFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    dim = len(header) - 1
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")

    def error(row: int, fault: str) -> DataFormatError:
        linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
        return DataFormatError(f"{path}: line {linenos[row]}: {fault}")

    try:
        parsed = _parse_rows(rows, dim)
    except ValueError:
        row = _first_bad_row(rows, dim)
        raise error(row, _row_fault(rows[row], dim)) from None
    features = np.ascontiguousarray(parsed["f"])
    labels = np.ascontiguousarray(parsed["label"])
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise error(bad[0], "non-finite feature cell")
    unknown = labels < 0
    if class_count is not None:
        unknown |= labels >= class_count
    bad = np.flatnonzero(unknown)
    if bad.size:
        raise error(bad[0], f"unknown label value {labels[bad[0]]}")
    c = class_count if class_count is not None else int(labels.max()) + 1
    return Dataset(features, labels, c, np.arange(labels.size), np.empty(0, dtype=np.int64))


def save_split_dir(directory, dataset: Dataset) -> None:
    """Persist a dataset as train.csv + test.csv under a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_csv(directory / TRAIN_FILE, dataset.train_features, dataset.train_labels)
    save_csv(directory / TEST_FILE, dataset.test_features, dataset.test_labels)


def load_split_dir(directory) -> Dataset:
    """Load train.csv + test.csv back into one Dataset (train rows first)."""
    directory = Path(directory)
    train = load_csv(directory / TRAIN_FILE)
    test = load_csv(directory / TEST_FILE)
    if train.dim != test.dim:
        raise DataFormatError(
            f"{directory}: train/test dimension mismatch ({train.dim} vs {test.dim})"
        )
    features = np.concatenate([train.features, test.features])
    labels = np.concatenate([train.labels, test.labels])
    classes = int(labels.max()) + 1
    return Dataset(
        features, labels, classes,
        np.arange(train.n), np.arange(train.n, train.n + test.n),
    )
