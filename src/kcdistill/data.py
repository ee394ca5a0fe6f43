"""Synthetic class-blob datasets and CSV ingestion.

Generated features are standardized per dimension against the train split so
models see zero-mean unit-variance inputs; the written CSVs carry the
standardized values, so a reload never re-standardizes.

save_csv writes a binary twin beside each CSV (twin_path): the arrays it
formatted and the sha256 of the bytes it wrote. load_csv takes its arrays
from a twin whose digest matches the CSV and parses the CSV otherwise, so the
CSV stays the only authority and deleting a twin only costs speed.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_FLOAT_FORMAT = "%.17g"
_CSV_CHUNK_ROWS = 1024
_GEN_CHUNK_ROWS = 8192
_INT_LITERAL = re.compile(r"[+-]?[0-9]+")
TRAIN_FILE = "train.csv"
TEST_FILE = "test.csv"


class DataFormatError(ValueError):
    """A data file could not be parsed; the message names the line or byte offset."""


def read_only(a, dtype) -> np.ndarray:
    """a as a read-only C-contiguous array of dtype. An ndarray that already
    is one and owns its data is returned as it is: no one can write it, so
    it can be shared. Anything else (writable, a view, a list, another
    dtype) is copied, so the caller's later writes cannot reach the result.
    Complex values raise a ValueError rather than lose their imaginary parts."""
    if (type(a) is np.ndarray and a.dtype == dtype and a.base is None
            and a.flags.c_contiguous and not a.flags.writeable):
        return a
    if np.iscomplexobj(a):
        raise ValueError(f"complex values cannot be read as {np.dtype(dtype)}")
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def first_non_finite_row(features: np.ndarray) -> int | None:
    """The first row of a 2-d array that holds a NaN or inf, or None. A
    whole-array test accepts; only an array it fails pays the row scan."""
    if np.isfinite(features).all():
        return None
    return int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])


@dataclass
class Dataset:
    """A train split and a held-out test split, each array stored read-only
    through read_only: shared when the caller's array is already read-only
    and owns its data, copied once otherwise."""

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    class_count: int

    def __post_init__(self):
        for split in ("train", "test"):
            features = read_only(getattr(self, f"{split}_features"), np.float64)
            labels = read_only(getattr(self, f"{split}_labels"), np.int64)
            if features.ndim != 2 or features.shape[0] != labels.size:
                raise ValueError(f"{split} features must be N x D with one label per row")
            bad = first_non_finite_row(features)
            if bad is not None:
                raise ValueError(f"{split} row {bad}: non-finite feature value")
            if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
                raise ValueError(f"{split} labels must lie in [0, class_count)")
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
    features = np.empty((classes * n_per_class, dims))
    for c in range(classes):
        block = features[c * n_per_class:(c + 1) * n_per_class]
        rng.standard_normal(out=block)
        block *= spread
        block += centers[c]
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    perm = rng.permutation(labels.size)
    n_train = int(round(0.8 * labels.size))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    # The train split is the generated matrix itself: train_idx is ascending,
    # so train_idx[i] >= i and moving its rows forward chunk by chunk reads no
    # row an earlier chunk overwrote. resize then shrinks the buffer in place.
    # It refuses while anything else references the array, so no view of it
    # is left; under a tracer, profiler or debugger the interpreter holds one
    # more reference during the call, and the train rows are copied instead.
    test_x = features[test_idx]
    for start in range(0, n_train, _GEN_CHUNK_ROWS):
        stop = min(start + _GEN_CHUNK_ROWS, n_train)
        features[start:stop] = features[train_idx[start:stop]]
    del block
    try:
        features.resize((n_train, dims))
        train_x = features
    except ValueError:
        train_x = features[:n_train].copy()
    del features
    mu = train_x.mean(axis=0)
    sigma = train_x.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    for x in (train_x, test_x):
        x -= mu
        x /= sigma
    splits = (train_x, labels[train_idx], test_x, labels[test_idx])
    for a in splits:
        a.setflags(write=False)  # so the Dataset keeps them uncopied
    return Dataset(*splits, classes)


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


def _header(dim: int) -> str:
    return ",".join([f"f{i}" for i in range(dim)] + ["label"])


def twin_path(path) -> Path:
    """Where save_csv writes the binary twin of the CSV at path."""
    path = Path(path)
    return path.with_name(path.name + ".npz")


def save_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Rows are f0..f{D-1},label with floats at 17 significant digits,
    formatted _CSV_CHUNK_ROWS rows per % call and streamed through
    write_atomic. Then the twin, an uncompressed .npz of the very features
    (float64, N x D) and labels (int64, N) and the sha256 of the CSV bytes
    as written, goes through write_atomic too."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if features.shape[0] != labels.size:
        raise ValueError(f"{features.shape[0]} feature rows but {labels.size} labels")
    dim = features.shape[1]
    header = _header(dim)
    row_format = ",".join([CSV_FLOAT_FORMAT] * dim + ["%d"]) + "\n"

    digest = hashlib.sha256()

    def chunks():
        yield f"{header}\n".encode()
        for start in range(0, labels.size, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, labels.size)
            cells = np.empty((stop - start, dim + 1), dtype=object)
            cells[:, :dim] = features[start:stop]
            cells[:, dim] = labels[start:stop]
            yield ((row_format * (stop - start)) % tuple(cells.ravel().tolist())).encode()

    def hashed(chunks):
        for chunk in chunks:
            digest.update(chunk)
            yield chunk

    write_atomic(path, hashed(chunks()))
    twin = io.BytesIO()
    np.savez(twin, features=features, labels=labels,
             sha256=np.frombuffer(digest.digest(), dtype=np.uint8))
    write_atomic(twin_path(path), (twin.getbuffer(),))


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


def _twin_rows(path: Path, raw: bytes):
    """The (features, labels) save_csv wrote beside these CSV bytes, read-only,
    or None. The twin counts only when it loads without pickles, its digest
    is sha256(raw), and it holds int64 labels and float64 features of the
    CSV's N > 0 rows by its header's D columns: a corrupt npy header can
    shorten an array unseen, since a member read short skips the zip's CRC
    check."""
    try:  # np.load leaves a file it opened open when the zip is corrupt
        with open(twin_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as twin:
            digest = twin["sha256"]
            if digest.dtype != np.uint8 or digest.tobytes() != hashlib.sha256(raw).digest():
                return None
            features, labels = twin["features"], twin["labels"]
    except Exception:
        # a corrupt twin raises from zipfile, the npy header parser and more;
        # one that cannot be read is ignored like a missing one
        return None
    rows, dim = raw.count(b"\n") - 1, raw.count(b",", 0, raw.find(b"\n"))
    if not (features.dtype == np.float64 and labels.dtype == np.int64 and rows > 0
            and features.shape == (rows, dim) and labels.shape == (rows,)):
        return None
    arrays = []
    for a in (features, labels):
        if type(a.base) is np.ndarray and a.base.base is None and a.flags.c_contiguous:
            # a is np.load's reshaped view of the flat array it read into:
            # take that array, reshaped in place (same size, so no copy)
            a.base.resize(a.shape, refcheck=False)
            a = a.base
        a.setflags(write=False)  # so the Dataset keeps them uncopied
        arrays.append(a)
    return tuple(arrays)


def _parse_lines(path: Path, raw: bytes, class_count: int | None):
    """Parse CSV bytes line by line into (features, labels), raising a
    DataFormatError that names the line of the first fault it finds."""
    with io.TextIOWrapper(io.BytesIO(raw)) as text:  # decoded and newlines as open(path)
        try:
            lines = text.read().splitlines()
        except UnicodeDecodeError as exc:  # read() decodes raw whole: start is a file offset
            lineno = len((raw[:exc.start].decode(exc.encoding) + "_").splitlines())
            raise DataFormatError(f"{path}: line {lineno}: not {exc.encoding}: {exc.reason} "
                                  f"(byte offset {exc.start})") from None
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
    bad = first_non_finite_row(features)
    if bad is not None:
        raise error(bad, "non-finite feature cell")
    unknown = labels < 0
    if class_count is not None:
        unknown |= labels >= class_count
    bad = np.flatnonzero(unknown)
    if bad.size:
        raise error(bad[0], f"unknown label value {labels[bad[0]]}")
    return features, labels


def load_csv(path, class_count: int | None = None) -> Dataset:
    """Parse one CSV into a Dataset: every row, in file order, is the train
    split and the test split is empty.

    Blank and whitespace-only lines are skipped. Every error names its line.
    The arrays come from the file's twin when its digest matches the bytes
    (_twin_rows). Any other file, or one whose twin's arrays fail a check,
    is parsed by _parse_lines, so the values and the error are the same
    either way."""
    path = Path(path)
    raw = path.read_bytes()
    parsed = _twin_rows(path, raw)
    if parsed is None or not (np.isfinite(parsed[0]).all() and parsed[1].min() >= 0 and (
            class_count is None or parsed[1].max() < class_count)):
        parsed = _parse_lines(path, raw, class_count)  # the parse that names a faulty line
    features, labels = parsed
    c = class_count if class_count is not None else int(labels.max()) + 1
    return Dataset(features, labels, np.empty((0, features.shape[1])),
                   np.empty(0, dtype=np.int64), c)


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
