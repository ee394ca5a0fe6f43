"""Synthetic class-blob datasets and CSV ingestion.

Generated features are standardized per dimension against the train split so
models see zero-mean unit-variance inputs; the written CSVs carry the
standardized values, so a reload never re-standardizes.
"""

from __future__ import annotations

import io
import os
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def save_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Rows are f0..f{D-1},label with floats at 17 significant digits,
    formatted _CSV_CHUNK_ROWS rows per % call and streamed through
    write_atomic."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] != labels.size:
        raise ValueError(f"{features.shape[0]} feature rows but {labels.size} labels")
    dim = features.shape[1]
    header = _header(dim)
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


# The array parser of plain CSV files (_plain_rows). Each cell is read as the
# _CELL_BYTES bytes that end where it ends, three little-endian 8-byte words,
# whole rows of about _PLAIN_CHUNK cells at a time.
_CELL_BYTES = 24
_PLAIN_CHUNK = 8192
# mant / 10**frac rounded once to a 64-bit significand and then to float64 is
# the correctly rounded float64 unless the first rounding lands on a float64
# midpoint, which shows in the significand's low 11 bits. That needs x87
# extended long doubles at full precision: 2**63 + 1 keeps its last bit, in
# the low 8 of 16 bytes.
_X87_LONG_DOUBLE = (np.dtype(np.longdouble).itemsize == 16 and int(
    np.array([np.longdouble(2) ** 63 + 1]).view("<u8")[0]) == 2 ** 63 + 1)
_POW10 = np.cumprod([1] + [10] * (_CELL_BYTES - 1), dtype=np.longdouble)  # exact: 5**23 < 2**64
_POW10_U64 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_LEAD_MASKS = np.array([[(1 << 8 * min(max(n - 8 * k, 0), 8)) - 1 for k in range(3)]
                        for n in range(_CELL_BYTES + 1)], dtype=np.uint64)


_DOT_TALLY = np.array([16 + 2 ** 32, 8 + 2 ** 32, 2 ** 32], dtype=np.uint64)
# b in each byte of a word
_ONES, _LOW7, _HIGH4, _LOW4, _ZEROS, _DOTS, _SIXES, _THREES = (
    np.uint64(b * 0x0101010101010101) for b in (0x01, 0x7F, 0xF0, 0x0F, 0x30, 0x2E, 0x06, 0x33))


def _decode_cells(cells: np.ndarray, lens: np.ndarray, neg: np.ndarray):
    """Read m cells of the form -?[0-9]*.?[0-9]* at once. cells is (m,
    _CELL_BYTES) uint8, row i the bytes that end where cell i ends; lens
    and neg are the cells' lengths and whether they start with '-'.
    Returns (mant, frac, dots, ok): when ok, cell i is (-)mant[i] /
    10**frac[i] exactly and holds dots[i] (0 or 1) '.'."""
    words = cells.view("<u8")  # (m, 3): row byte j is byte j % 8 of word j // 8
    lead = _CELL_BYTES - np.minimum(lens, _CELL_BYTES) + neg
    words ^= (words ^ _ZEROS) & np.take(_LEAD_MASKS, lead, axis=0)  # bytes before the digits read '0'
    x = words ^ _DOTS
    units = ~(((x & _LOW7) + _LOW7) | x | _LOW7) >> 7  # 0x01 in each '.' byte
    words ^= units * 0x1E  # and each '.' reads '0'
    digits = ((words & _HIGH4) | (((words + _SIXES) & _HIGH4) >> 4)) == _THREES
    # 8 ASCII digits, most significant in the low byte, to their value
    words &= _LOW4
    words *= 10 << 8 | 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10000 << 32 | 1
    words >>= 32
    whole = words[:, 0] * 10 ** 16 + words[:, 1] * 10 ** 8 + words[:, 2]  # '.' read as 0
    # byte j of units * _ONES counts the '.' in bytes 0..j: its top byte is the
    # word's count, and the sum of its bytes is 8 - (byte of the '.') for one.
    # Each word adds that sum, 8 per later word for each '.', and the count
    # times 2**32: the low half is then 1 + the digits after a lone '.'.
    upto = units * _ONES
    tally = (upto * _ONES >> 56) + (upto >> 56) * _DOT_TALLY
    tally = tally[:, 0] + tally[:, 1] + tally[:, 2]
    dots = (tally >> 32).astype(np.int64)
    frac = np.where(dots == 1, (tally & 0xFFFFFFFF).astype(np.intp) - 1, 0)
    tail = whole % _POW10_U64[np.minimum(frac, 19)]
    mant = np.where(dots == 1, tail + (whole - tail) // 10, whole)
    ok = (digits[:, 0] & digits[:, 1] & digits[:, 2] & (words[:, 0] < 1000)  # whole < 10**19
          & (dots <= 1) & (lens <= _CELL_BYTES) & (lens - neg - dots >= 1))
    return mant, frac, dots, ok


def _nearest_double(mant: np.ndarray, frac: np.ndarray):
    """(value, tie): mant / 10**frac as float64, and where the long double
    quotient sat on a float64 midpoint, so that value may be the wrong
    neighbour."""
    quotient = mant.astype(np.longdouble) / _POW10[frac]
    significand = quotient.view("<u8")[::2]
    return quotient.astype(np.float64), significand & 0x7FF == 0x400


def _plain_rows(raw: bytes):
    """CSV bytes in the plain layout as (features, labels), read-only and
    bit for bit what _parse_rows makes of them, or None for any other file.

    Plain is the layout save_csv writes: the header, then rows of D+1 cells
    split by ',' and each ended by '\\n', no blank line and no whitespace,
    and labels of the form -?[0-9]+, at most _CELL_BYTES long and below
    2**63 in magnitude. Feature cells of the form -?[0-9]*.?[0-9]* up to
    _CELL_BYTES long, with digits below 10**19, are read with array
    operations; any other feature cell, and one whose rounding the long
    double leaves open, goes through float(), which parses cells of
    [0-9+-.e] as _parse_rows does. A cell with another byte, or one float()
    rejects, makes the file not plain."""
    if not _X87_LONG_DOUBLE or not raw.endswith(b"\n"):
        return None
    head = raw.index(b"\n")
    dim = raw.count(b",", 0, head)
    width = dim + 1
    if raw[:head] != _header(dim).encode():
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf <= ord(","))  # ',', newlines, exponent signs, whitespace
    kinds = buf[ends]
    if (kinds == ord("+")).any():
        ends = ends[kinds != ord("+")]
        kinds = buf[ends]
    ends, kinds = ends[width:], kinds[width:]
    if not ends.size or ends.size % width:
        return None
    kinds = kinds.reshape(-1, width)
    if (kinds[:, :-1] != ord(",")).any() or (kinds[:, -1] != ord("\n")).any():
        return None
    rows = ends.size // width
    features = np.empty((rows, dim))
    labels = np.empty(rows, dtype=np.int64)
    step = max(1, _PLAIN_CHUNK // width)  # rows per chunk
    for r0 in range(0, rows, step):
        last = ends[r0 * width:(r0 + step) * width]
        first = np.concatenate(([ends[r0 * width - 1] + 1 if r0 else head + 1], last[:-1] + 1))
        lens = last - first
        neg = buf[first] == ord("-")
        # the _CELL_BYTES bytes that end at each cell's end, '\0' before the file
        lo = last[0] - _CELL_BYTES
        span = buf[max(lo, 0):last[-1]]
        if lo < 0:
            span = np.concatenate((np.zeros(-lo, dtype=np.uint8), span))
        cells = sliding_window_view(span, _CELL_BYTES)[last - last[0]]
        mant, frac, dots, ok = _decode_cells(cells, lens, neg)
        value, tie = _nearest_double(mant, frac)
        value = np.where(neg, -value, value).reshape(-1, width)
        label = np.s_[dim::width]
        if not (ok[label].all() and (dots[label] == 0).all() and (mant[label] < 2 ** 63).all()):
            return None
        label_mant = mant[label].astype(np.int64)
        labels[r0:r0 + step] = np.where(neg[label], -label_mant, label_mant)
        features[r0:r0 + step] = value[:, :dim]
        redo = ~(ok & ~tie).reshape(-1, width)
        redo[:, dim] = False
        for r, c in zip(*np.nonzero(redo)):
            cell = raw[first[r * width + c]:last[r * width + c]]
            if cell.translate(None, b"0123456789+-.e"):  # float() also takes spaces, '_', other digits
                return None
            try:
                features[r0 + r, c] = float(cell)
            except ValueError:
                return None
    for a in (features, labels):
        a.setflags(write=False)  # so the Dataset keeps them uncopied
    return features, labels


def _parse_lines(path: Path, raw: bytes, class_count: int | None):
    """Parse CSV bytes line by line into (features, labels), raising a
    DataFormatError that names the line of the first fault it finds."""
    with io.TextIOWrapper(io.BytesIO(raw)) as text:  # decoded and newlines as open(path)
        lines = text.read().splitlines()
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
    A plain file (the layout save_csv writes) is parsed with array
    operations; any other file, or one that fails a check, is parsed line by
    line, so the values and the error are the same either way."""
    path = Path(path)
    raw = path.read_bytes()
    parsed = _plain_rows(raw)
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
