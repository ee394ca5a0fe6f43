"""Slow scalar and closed-form oracles the tests check the library against.

None of these is on a training path: the library computes the same
quantities over whole arrays (ogve.ValueState, ogve.observe_batch,
ogve.cost_aware_scores, ogve.entropy_rows, ogve.ranks_from_scores,
emdriver.relative_cost), in place (nn.forward, nn.loss_and_grads and its
entropies, nn.sgd_step, data.gen_gaussian_mixture), behind a class-id head
(nn.train_classifier), in bulk (data.load_csv,
data.save_csv, knowledge.check_simplex) or in chunks
(emdriver.RunRecord.fingerprint, emdriver.RunRecord.save, vaks.augment).

rank_probability, binarize and ratio_threshold state the paper's keep rule
literally: rank probability 1 - r/N, kept where it is >= the stage cutoff.
The library keeps the ranks < keep_count(N, tau) (ogve.labeling_from_ranks)
and records the cutoff as StageRecord.threshold.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from kcdistill import nn
from kcdistill.data import CSV_FLOAT_FORMAT, Dataset, DataFormatError
from kcdistill.knowledge import SIMPLEX_ATOL, check_permutation
from kcdistill.ogve import keep_count


def computation_ratio(tau_list, stage_len: int, n_points: int,
                      teacher_forward: float, student_forward: float,
                      student_backward: float) -> float:
    """Cost ratio computed the long way, from per-pass operation counts.

    Every knowledge point fed through the pipeline costs one teacher forward,
    one student forward, and one student backward; the condensed run feeds
    n * tau_s points for stage_len epochs per stage, the baseline feeds n
    points for every epoch. The per-point factor appears in both numerator
    and denominator, so the ratio reduces to relative_cost for any positive
    operation counts.
    """
    if min(teacher_forward, student_forward, student_backward) <= 0.0:
        raise ValueError("per-pass operation counts must be positive")
    taus = list(tau_list)
    per_point = teacher_forward + student_forward + student_backward
    condensed = n_points * sum(taus) * stage_len * per_point
    total_epochs = stage_len * len(taus)
    full = n_points * total_epochs * per_point
    return condensed / full


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Softmax along the last axis with a fresh array per operation and the
    row max from np.maximum.reduce; nn.loss_and_grads works in one array
    and takes a large step's row max column by column."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def soft_loss(t: np.ndarray, s: np.ndarray):
    """Batch-mean cross-entropy -sum(p_T log p_S) over the last two axes, with
    student probs floored at nn.PROB_FLOOR; np.add.reduce(x) / n is bitwise
    np.mean."""
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {s.shape}")
    log_s = np.log(np.maximum(s, nn.PROB_FLOOR))
    return np.add.reduce(-np.add.reduce(t * log_s, axis=-1), axis=-1) / t.shape[-2]


def kd_loss(teacher_probs: np.ndarray, student_probs: np.ndarray) -> float:
    """Batch-mean cross-entropy -sum(p_T log p_S); student probs are floored
    at 1e-12 before the log."""
    t = np.atleast_2d(np.asarray(teacher_probs, dtype=np.float64))
    s = np.atleast_2d(np.asarray(student_probs, dtype=np.float64))
    return float(soft_loss(t, s))


def logits(model: nn.MlpModel, x: np.ndarray) -> np.ndarray:
    """nn.forward with a fresh array per operation: ReLU hidden layers,
    linear output, on a lone or a stacked model."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b[..., None, :], 0.0)
    return h @ model.weights[-1] + model.biases[-1][..., None, :]


def loss_and_grads(model: nn.MlpModel, x, target_probs, temperature: float = 1.0,
                   hard_labels=None, hard_label_weight: float = 0.0):
    """nn.loss_and_grads with a fresh array per operation: each hidden
    layer's pre-activation z is kept, the backward pass masks the ReLU with
    z > 0, and the softmax, the loss and dlogits each build new arrays."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(target_probs, dtype=np.float64))
    batch = x.shape[-2]
    acts, pre, h = [x], [], x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w + b[..., None, :]
        pre.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    out = h @ model.weights[-1] + model.biases[-1][..., None, :]
    probs_t = softmax(out, temperature)
    probs_1 = probs_t if temperature == 1.0 else softmax(out, 1.0)
    loss = soft_loss(targets, probs_t)
    dlogits = (probs_t - targets) / (temperature * batch)
    if hard_label_weight > 0.0:
        y = np.asarray(hard_labels, dtype=np.int64)[..., None]
        picked = np.maximum(np.take_along_axis(probs_1, y, axis=-1)[..., 0], nn.PROB_FLOOR)
        loss = loss + hard_label_weight * np.mean(-np.log(picked), axis=-1)
        onehot = np.zeros_like(probs_1)
        np.put_along_axis(onehot, y, 1.0, axis=-1)
        dlogits = dlogits + hard_label_weight * (probs_1 - onehot) / batch
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    delta = dlogits
    grads_w[-1] = acts[-1].swapaxes(-1, -2) @ delta
    grads_b[-1] = np.add.reduce(delta, axis=-2)
    for layer in range(len(model.weights) - 2, -1, -1):
        delta = (delta @ model.weights[layer + 1].swapaxes(-1, -2)) * (pre[layer] > 0.0)
        grads_w[layer] = acts[layer].swapaxes(-1, -2) @ delta
        grads_b[layer] = np.add.reduce(delta, axis=-2)
    return loss, grads_w, grads_b, probs_1


def per_layer_sgd_step(weights, biases, vel_w, vel_b, grads_w, grads_b, lr: float,
                       cfg: nn.TrainConfig) -> None:
    """nn.sgd_step as the per-layer momentum rule, with a fresh array per
    operation: each list entry is rebound, nothing is written in place."""
    for i, (gw, gb) in enumerate(zip(grads_w, grads_b)):
        vel_w[i] = cfg.momentum * vel_w[i] + (gw + cfg.weight_decay * weights[i])
        weights[i] = weights[i] - lr * vel_w[i]
        vel_b[i] = cfg.momentum * vel_b[i] + gb
        biases[i] = biases[i] - lr * vel_b[i]


def train_classifier(features, labels, layer_dims, cfg: nn.TrainConfig, epochs: int,
                     seed: int) -> nn.MlpModel:
    """nn.train_classifier as a loop of library steps: per batch, one-hot
    targets through nn.loss_and_grads, a finite-loss check, nn.sgd_step."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    model = nn.init_mlp(layer_dims, np.random.default_rng([seed, 0]))
    shuffle_rng = np.random.default_rng([seed, 1])
    onehot = np.zeros((x.shape[0], model.layer_dims[-1]))
    onehot[np.arange(x.shape[0]), y] = 1.0
    vel = np.zeros_like(model.params)
    for epoch in range(1, epochs + 1):
        lr = nn.lr_at_epoch(cfg, epoch)
        order = shuffle_rng.permutation(x.shape[0])
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad, _ = nn.loss_and_grads(model, x.take(idx, axis=0),
                                              onehot.take(idx, axis=0))
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged: non-finite loss at epoch {epoch}")
            nn.sgd_step(model, grad, vel, lr, cfg)
    return model


def finite_difference_check(model: nn.MlpModel, x: np.ndarray, target_probs: np.ndarray,
                            n_coords: int = 100, step: float = 1e-5,
                            temperature: float = 1.0, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients on
    n_coords randomly chosen parameter coordinates."""
    rng = np.random.default_rng(seed)
    _, grad, _ = nn.loss_and_grads(model, x, target_probs, temperature)
    grads_w, grads_b = nn._views(model.layer_dims, grad)
    worst = 0.0
    params = [(model.weights[i], grads_w[i]) for i in range(len(model.weights))]
    params += [(model.biases[i], grads_b[i]) for i in range(len(model.biases))]
    for _ in range(n_coords):
        arr, grad = params[rng.integers(len(params))]
        flat_index = int(rng.integers(arr.size))
        idx = np.unravel_index(flat_index, arr.shape)
        original = arr[idx]
        arr[idx] = original + step
        loss_plus, *_ = nn.loss_and_grads(model, x, target_probs, temperature)
        arr[idx] = original - step
        loss_minus, *_ = nn.loss_and_grads(model, x, target_probs, temperature)
        arr[idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = grad[idx]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


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


def prediction_entropy(student_probs) -> float:
    """Entropy -sum(p log p) of one prediction, with 0 log 0 taken as 0."""
    p = np.asarray(student_probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("student_probs must be a non-empty 1-d vector")
    if not (np.all(np.isfinite(p)) and np.all(p >= 0.0)
            and abs(float(p.sum()) - 1.0) <= SIMPLEX_ATOL):
        raise ValueError(f"student_probs {p} is not a probability simplex")
    return float(masked_entropy_rows(p))


def masked_entropy_rows(probs) -> np.ndarray:
    """-sum(p log p) along the last axis with every entry that is not > 0
    masked to a 0 * p term, so 0 log 0 is 0 and a row holding a NaN sums to
    NaN: the two np.where passes ogve.entropy_rows skips when no entry is 0
    or NaN."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0 * p)
    return -np.add.reduce(terms, axis=-1)


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


def running_means(values, frequencies, new_values) -> np.ndarray:
    """The values ogve.observe_batch writes for a batch, given the batch's
    previous values and frequencies: the observation itself at a first
    observation, else ((F-1)/F) * previous + observation/F at the new
    frequency F, as one np.where expression with its temporaries."""
    freq = np.asarray(frequencies, dtype=np.int64) + 1
    vals = np.asarray(new_values, dtype=np.float64)
    first = freq == 1
    return np.where(first, vals, ((freq - 1) / freq) * np.where(first, 0.0, values) + vals / freq)


class TwoArrayValues:
    """A value state that folds every observation two ways side by side: the
    running mean into values and the observation itself into last_values.
    ogve.ValueState keeps one of the two: values by default, last_values
    with latest=True."""

    def __init__(self, n: int):
        self.values = np.full(n, np.nan)
        self.last_values = np.full(n, np.nan)
        self.frequencies = np.zeros(n, dtype=np.int64)

    def observe(self, sample_ids, new_values) -> None:
        """Fold a batch of distinct samples, as ogve.observe_batch does."""
        ids = np.asarray(sample_ids, dtype=np.int64)
        vals = np.asarray(new_values, dtype=np.float64)
        freq = self.frequencies[ids] + 1
        f = freq.astype(np.float64)
        mean = self.values[ids]
        mean *= (f - 1.0) / f
        mean += vals / f
        np.copyto(mean, vals, where=freq == 1)
        self.values[ids] = mean
        self.last_values[ids] = vals
        self.frequencies[ids] = freq


def cost_aware_score(record: ValueRecord, alpha: float) -> float:
    """Score used for ranking: running value times frequency**alpha."""
    if record.frequency < 1:
        raise ValueError("unobserved sample: frequency is 0")
    return float(record.value * record.frequency ** alpha)


def lexsort_ranks(scores) -> np.ndarray:
    """Rank positions by one lexsort: descending score, then ascending id.
    np.lexsort puts NaN keys last and keeps them in id order."""
    s = np.asarray(scores, dtype=np.float64)
    ids = np.arange(s.size)
    ranks = np.empty(s.size, dtype=np.int64)
    ranks[np.lexsort((ids, -s))] = ids
    return ranks


def rank_probability(ranks, n: int) -> np.ndarray:
    """Rank probability 1 - rank/N; the top-ranked sample gets exactly 1.0."""
    r = np.asarray(ranks, dtype=np.int64)
    check_permutation(r, n)
    return 1.0 - r / float(n)


def binarize(probs, tau: float) -> np.ndarray:
    """Keep label 1 where the rank probability is >= tau (boundary inclusive)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return (np.asarray(probs, dtype=np.float64) >= tau).astype(np.uint8)


def ratio_threshold(n: int, keep_ratio: float) -> float:
    """Rank-probability cutoff whose inclusive threshold retains exactly
    keep_count(n, keep_ratio) top-ranked samples."""
    return 1.0 - (keep_count(n, keep_ratio) - 1) / float(n)


def load_csv(path, class_count: int | None = None) -> Dataset:
    """data.load_csv the long way: float() and int() per cell, line by line.

    It differs from the library on purpose in two ways: float() and int()
    accept underscores (1_0) and non-ASCII digits, which the library rejects,
    and a label outside int64 escapes as OverflowError."""
    path = Path(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty dataset")
    header = lines[0].split(",")
    if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
        raise DataFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    dim = len(header) - 1
    rows, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {dim + 1} cells, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells[:-1]])
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric feature cell") from None
        try:
            label = int(cells[-1])
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-integer label {cells[-1]!r}") from None
        if label < 0 or (class_count is not None and label >= class_count):
            raise DataFormatError(f"{path}: line {lineno}: unknown label value {label}")
        labels.append(label)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")
    features = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
        raise DataFormatError(f"{path}: line {linenos[bad[0]]}: non-finite feature cell")
    labels = np.array(labels, dtype=np.int64)
    c = class_count if class_count is not None else int(labels.max()) + 1
    return Dataset(features, labels, np.empty((0, dim)), np.empty(0, dtype=np.int64), c)


def csv_bytes(features, labels) -> bytes:
    """The bytes data.save_csv writes, one %.17g cell and one line at a time."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    lines = [",".join([f"f{i}" for i in range(features.shape[1])] + ["label"])]
    lines += [",".join([CSV_FLOAT_FORMAT % v for v in row] + [str(int(lab))])
              for row, lab in zip(features, labels)]
    return "".join(f"{line}\n" for line in lines).encode()


def record_dict(record) -> dict:
    """The record's fields as RunRecord.save and fingerprint encode them,
    through dataclasses.asdict's deep copy, with the label and rank arrays
    as lists of int() per element."""
    out = asdict(record)
    out["stages"] = [asdict(s) for s in record.stages]
    out["epochs"] = [asdict(e) for e in record.epochs]
    out["cost"] = asdict(record.cost)
    out["final_labels"] = [int(v) for v in record.final_labels]
    out["final_ranks"] = [int(v) for v in record.final_ranks]
    return out


def record_fingerprint(record) -> str:
    """RunRecord.fingerprint as one json.dumps of the whole dict."""
    payload = record_dict(record)
    payload.pop("wall_time_s")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def record_bytes(record) -> bytes:
    """The bytes RunRecord.save writes, as one json.dumps of the whole dict."""
    return (json.dumps(record_dict(record), indent=2) + "\n").encode()


def gen_gaussian_mixture(classes: int, dims: int, n_per_class: int, spread: float,
                         seed: int) -> Dataset:
    """data.gen_gaussian_mixture with a fresh array per class block, one
    concatenation and a fancy-indexed copy of each split."""
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
    mu = train_x.mean(axis=0)
    sigma = train_x.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    for x in (train_x, test_x):
        x -= mu
        x /= sigma
    return Dataset(train_x, labels[train_idx], test_x, labels[test_idx], classes)


def check_simplex(probs: np.ndarray, context) -> None:
    """knowledge.check_simplex as a row scan alone: the first row that has a
    negative entry or a sum off 1 by more than SIMPLEX_ATOL is named."""
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


def augment(k1l_ids, k0_ids, schedule, teacher_probs: np.ndarray) -> np.ndarray:
    """vaks.augment as one whole-matrix expression: both n x C gathers alive
    at once, (eps * p_b + p_a) / (1 + eps) row by row."""
    eps = np.asarray(schedule, dtype=np.float64)
    blended = teacher_probs.take(np.asarray(k0_ids, dtype=np.int64), axis=0)
    blended *= eps[:, None]
    blended += teacher_probs.take(np.asarray(k1l_ids, dtype=np.int64), axis=0)
    blended /= (1.0 + eps)[:, None]
    return blended
