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
    """A train split and a held-out test split. Each array is copied once on
    construction and stored read-only, so reads share it."""

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    class_count: int

    def __post_init__(self):
        for split in ("train", "test"):
            features = np.array(getattr(self, f"{split}_features"), dtype=np.float64)
            labels = np.array(getattr(self, f"{split}_labels"), dtype=np.int64)
            if features.ndim != 2 or features.shape[0] != labels.size:
                raise ValueError(f"{split} features must be N x D with one label per row")
            bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
            if bad.size:
                raise ValueError(f"{split} row {bad[0]}: non-finite feature value")
            if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
                raise ValueError(f"{split} labels must lie in [0, class_count)")
            features.setflags(write=False)
            labels.setflags(write=False)
            setattr(self, f"{split}_features", features)
            setattr(self, f"{split}_labels", labels)
        if self.train_features.shape[1] != self.test_features.shape[1]:
            raise ValueError("train and test features differ in dimension")

    @property
    def n(self) -> int:
        return int(self.train_labels.size + self.test_labels.size)

    @property
    def dim(self) -> int:
        return int(self.train_features.shape[1])


def gen_gaussian_mixture(classes: int, dims: int, n_per_class: int, spread: float,
                         seed: int) -> Dataset:
    """Isotropic Gaussian blobs at seeded random centers, 80/20 split.

    Split membership comes from a seeded shuffle. Each split keeps its rows in
    generation order (class by class), and both are standardized with the
    train split's per-dimension mean and standard deviation.
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
    perm = rng.permutation(labels.size)
    n_train = int(round(0.8 * labels.size))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    train_x, test_x = features[train_idx], features[test_idx]
    del features  # the Dataset copies the splits; do not hold the whole matrix too
    mu = train_x.mean(axis=0)
    sigma = train_x.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    for x in (train_x, test_x):
        x -= mu
        x /= sigma
    return Dataset(train_x, labels[train_idx], test_x, labels[test_idx], classes)


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
    """Parse one CSV into a Dataset: every row, in file order, is the train
    split and the test split is empty.

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
    features, labels = parsed["f"], parsed["label"]
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
    return Dataset(features, labels, np.empty((0, dim)), np.empty(0, dtype=np.int64), c)


def save_split_dir(directory, dataset: Dataset) -> None:
    """Persist a dataset as train.csv + test.csv under a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_csv(directory / TRAIN_FILE, dataset.train_features, dataset.train_labels)
    save_csv(directory / TEST_FILE, dataset.test_features, dataset.test_labels)


def load_split_dir(directory) -> Dataset:
    """Load train.csv and test.csv as the two splits of one Dataset."""
    directory = Path(directory)
    train = load_csv(directory / TRAIN_FILE)
    test = load_csv(directory / TEST_FILE)
    if train.dim != test.dim:
        raise DataFormatError(
            f"{directory}: train/test dimension mismatch ({train.dim} vs {test.dim})"
        )
    rows = train.n + test.n
    classes = max(train.class_count, test.class_count)
    if classes > rows:  # some class has no sample: name a label past the rows
        for path in (directory / TRAIN_FILE, directory / TEST_FILE):
            try:
                load_csv(path, class_count=rows)
            except DataFormatError as exc:
                raise DataFormatError(f"{exc}: more classes than the {rows} rows "
                                      f"of {TRAIN_FILE} and {TEST_FILE}") from None
    return Dataset(train.train_features, train.train_labels,
                   test.train_features, test.train_labels, classes)
