"""Small dense classifiers with hand-rolled backprop and momentum SGD.

Teacher and student are plain MLPs (ReLU hidden layers, linear output). The
distillation loss is the batch-mean cross-entropy between target soft labels
and the student's softmax output, with an optional hard-label term.

A model is built from ``(layer_dims, params)``: one contiguous float64
vector in checkpoint order (per layer, the row-major weight matrix and then
the bias), of which ``weights[i]``/``biases[i]`` are views. One SGD step thus
updates every layer with a few whole-vector operations.

A model may also be a stack of K same-shape models: ``params`` is then (K, P)
and each weight a (K, fan_in, fan_out) view. ``forward``, ``loss_and_grads``
and ``sgd_step`` take any leading stack dimensions and do per model exactly
the arithmetic of a single model (``np.matmul`` hands every slice to the same
BLAS call), so a stacked step is bit-identical to a loop over the models.

train_classifier, the teacher's hard-label trainer, does not call them: one
fused loop per batch writes every gradient into a preallocated vector laid
out like ``params`` and updates in place. Its parameters are bit for bit
those of loss_and_grads against one-hot targets followed by sgd_step, and
its two errors are theirs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import ogve
from .data import DataFormatError, write_atomic

PROB_FLOOR = 1e-12

# default desk-scale shapes; the gap keeps the teacher genuinely stronger
DEFAULT_TEACHER_HIDDEN = (64, 64)
DEFAULT_STUDENT_HIDDEN = (16,)

MODEL_MAGIC = b"MLP1"
MODEL_VERSION = 1


@dataclass
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1
    temperature: float = 1.0
    hard_label_weight: float = 0.0

    def __post_init__(self):
        # every comparison with NaN is False, so NaN fails each range
        for name, ok, rule in (
            ("lr", 0.0 <= self.lr < np.inf, "finite and >= 0"),
            ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
            ("weight_decay", 0.0 <= self.weight_decay < np.inf, "finite and >= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr_decay_factor", 0.0 <= self.lr_decay_factor < np.inf, "finite and >= 0"),
            ("temperature", 0.0 < self.temperature < np.inf, "finite and > 0"),
            ("hard_label_weight", 0.0 <= self.hard_label_weight <= 1.0, "in [0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        self.lr_decay_epochs = tuple(int(e) for e in self.lr_decay_epochs)

    @classmethod
    def desk_default(cls, total_epochs: int, **overrides) -> "TrainConfig":
        """Defaults for desk-scale runs: late step decay at 62.5/75/87.5% of
        the run, mirroring the usual decay-late-in-training recipe."""
        decay = tuple(int(np.floor(f * total_epochs)) for f in (0.625, 0.75, 0.875))
        return cls(**{"lr_decay_epochs": decay, **overrides})


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch; each decay epoch d scales epochs > d."""
    drops = sum(1 for d in cfg.lr_decay_epochs if epoch > d)
    return cfg.lr * cfg.lr_decay_factor ** drops


def _layout(layer_dims) -> tuple[tuple[int, ...], int]:
    """Checked layer dims and the parameter count of one model."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must list input, hidden..., classes; got {dims}")
    return dims, sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _views(dims, params: np.ndarray) -> tuple[list, list]:
    """Per layer, the weight and bias views of a (..., P) parameter vector."""
    lead, weights, biases, at = params.shape[:-1], [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(params[..., at:at + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(params[..., at:at + fan_out])
        at += fan_out
    return weights, biases


@dataclass(eq=False)
class MlpModel:
    """Dense ReLU network whose parameters live in one flat vector.

    ``params`` is (..., P), each layer's row-major weight and then its bias,
    copied into an owned float64 array. ``weights``/``biases`` are views of
    it: write through them (``w[...] = ...``, ``w -= ...``); a rebound
    ``weights[i]`` would not be trained. ``==`` is identity; compare two
    models by ``param_bytes()``, the checkpoint's parameter bytes.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.layer_dims, size = _layout(self.layer_dims)
        self.params = np.array(self.params, dtype=np.float64)
        if self.params.shape[-1:] != (size,):
            raise ValueError(f"params of shape {self.params.shape} do not hold the "
                             f"{size} parameters of layer dims {self.layer_dims}")
        self.weights, self.biases = _views(self.layer_dims, self.params)

    def __reduce__(self):
        # pickling the views one by one would detach them from params
        return MlpModel, (self.layer_dims, self.params)

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_dims, self.params)

    def param_bytes(self) -> bytes:
        """Parameters as little-endian float64 (the checkpoint layout, also
        hashed into a run's param_digest)."""
        return self.params.astype("<f8").tobytes()


def init_mlp(layer_dims, rng) -> MlpModel:
    """He-normal weights, zero biases. rng may be a seed or a Generator."""
    dims, size = _layout(layer_dims)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    model = MlpModel(dims, np.zeros(size))
    for w in model.weights:
        w[...] = gen.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
    return model


def stack_models(models) -> MlpModel:
    """One stacked model holding copies of same-shape models' parameters."""
    return MlpModel(models[0].layer_dims, np.stack([m.params for m in models]))


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch; hidden layers are ReLU, output is linear."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[-1] != model.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[-1]} does not match model dim {model.layer_dims[0]}")
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w
        h += b[..., None, :]
        np.maximum(h, 0.0, out=h)
    h = h @ model.weights[-1]
    h += model.biases[-1][..., None, :]
    return h


def accuracy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions on a frozen model; one per
    model, as an array, for a stacked model."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty split")
    acc = np.mean(np.argmax(forward(model, x), axis=-1) == y, axis=-1)
    return acc if acc.ndim else float(acc)


# below this many rows (stack x batch) np.maximum.reduce finds each row's
# max faster than a running np.maximum over the columns; above it the columns
# win (at 10 classes, 1.1x at 128 rows, 2.9x at 512). Both are exact, so
# both give one result.
_COLUMN_MAX_ROWS = 112


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a float64 array, written over it."""
    if z.size < _COLUMN_MAX_ROWS * z.shape[-1]:
        top = np.maximum.reduce(z, axis=-1, keepdims=True)
    else:
        top = np.maximum(z[..., 0], z[..., -1])
        for j in range(1, z.shape[-1] - 1):
            np.maximum(top, z[..., j], out=top)
        top = top[..., None]
    z -= top
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _bias_grad(delta: np.ndarray, out=None) -> np.ndarray:
    """np.add.reduce(delta, axis=-2), bit for bit but for a NaN's sign, into
    out if given. On a C-contiguous delta of more than one column that reduce
    adds the rows in order, as einsum does without an inner-loop call per
    row; with one column it sums pairwise. A NaN sum may take its sign from
    another operand (an input NaN against an inf - inf one); sgd_step refuses
    any NaN gradient."""
    if delta.flags.c_contiguous and delta.shape[-1] > 1:
        return np.einsum("...ij->...j", delta, out=out)
    return np.add.reduce(delta, axis=-2, out=out)


def loss_and_grads(model: MlpModel, x: np.ndarray, target_probs: np.ndarray,
                   temperature: float = 1.0, hard_labels=None,
                   hard_label_weight: float = 0.0, entropy_out=None):
    """Soft-target loss plus analytic parameter gradients.

    Returns (loss, weight grads, bias grads, temperature-1 probs); for a
    stacked model x is (K, B, D) and the loss a (K,) array. The soft term is
    the batch-mean -sum(t log p_T) with p_T floored at PROB_FLOOR before the
    log. The hard term, when weighted, is a standard cross-entropy at
    temperature 1 added on top of the soft term.

    The softmax, the floored log and dlogits are each computed in place in
    one array. Given entropy_out, a (..., B) float64 array, the step writes
    each row's temperature-1 prediction entropy -sum(p log p) into it. At
    temperature 1 with every prob >= PROB_FLOOR the floor changes no prob,
    so the entropy comes from the loss's log, bit for bit
    ogve.entropy_rows; otherwise (temperature != 1, a prob below the floor,
    or a NaN) ogve.entropy_rows runs on the temperature-1 probs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(target_probs, dtype=np.float64))
    batch = x.shape[-2]

    # forward's in-place layers, keeping each ReLU output for the backward pass
    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = acts[-1] @ w
        h += b[..., None, :]
        acts.append(np.maximum(h, 0.0, out=h))
    logits = acts[-1] @ model.weights[-1]
    logits += model.biases[-1][..., None, :]

    if temperature == 1.0:
        probs_t = probs_1 = _softmax_in_place(logits)
    else:
        probs_t = _softmax_in_place(logits / temperature)
        probs_1 = _softmax_in_place(logits)
    if targets.shape != probs_t.shape:
        raise ValueError(f"shape mismatch: {targets.shape} vs {probs_t.shape}")
    log_s = np.maximum(probs_t, PROB_FLOOR)
    np.log(log_s, out=log_s)
    if entropy_out is not None:
        if temperature == 1.0 and probs_1.size and probs_1.min() >= PROB_FLOOR:
            np.negative(np.add.reduce(probs_1 * log_s, axis=-1), out=entropy_out)
        else:
            entropy_out[...] = ogve.entropy_rows(probs_1)
    # np.add.reduce(rows) / batch is bitwise np.mean
    rows = np.add.reduce(np.multiply(targets, log_s, out=log_s), axis=-1)
    loss = np.add.reduce(np.negative(rows, out=rows), axis=-1) / batch
    dlogits = np.subtract(probs_t, targets, out=log_s)
    dlogits /= temperature * batch
    if hard_label_weight > 0.0:
        if hard_labels is None:
            raise ValueError("hard_label_weight > 0 requires hard labels")
        y = np.asarray(hard_labels, dtype=np.int64)[..., None]
        picked = np.maximum(np.take_along_axis(probs_1, y, axis=-1)[..., 0], PROB_FLOOR)
        loss = loss + hard_label_weight * np.mean(-np.log(picked), axis=-1)
        onehot = np.zeros_like(probs_1)
        np.put_along_axis(onehot, y, 1.0, axis=-1)
        dlogits += hard_label_weight * (probs_1 - onehot) / batch

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = dlogits
    grads_w[-1] = acts[-1].swapaxes(-1, -2) @ delta
    grads_b[-1] = _bias_grad(delta)
    for layer in range(len(model.weights) - 2, -1, -1):
        # a ReLU output is > 0 exactly where its input is (both False at NaN)
        delta = (delta @ model.weights[layer + 1].swapaxes(-1, -2)) * (acts[layer + 1] > 0.0)
        grads_w[layer] = acts[layer].swapaxes(-1, -2) @ delta
        grads_b[layer] = _bias_grad(delta)
    return loss, grads_w, grads_b, probs_1


def _check_grads(grads_w, grads_b, index=()) -> None:
    """Raise FloatingPointError if the weight or bias gradient of some layer
    of the model at stack index ``index`` (``()`` for a single model) holds a
    non-finite value. The error names the first such layer and its largest
    finite |weight gradient|, and carries ``index``."""
    for i, (gw, gb) in enumerate(zip(grads_w, grads_b)):
        gw, gb = gw[index], gb[index]
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            finite = np.abs(gw[np.isfinite(gw)])
            exc = FloatingPointError(f"non-finite gradient in layer {i} (|grad| max "
                                     f"{finite.max() if finite.size else 'n/a'})")
            exc.index = index
            raise exc


def sgd_step(model: MlpModel, grads_w, grads_b, vel: np.ndarray, lr: float,
             cfg: TrainConfig) -> None:
    """Momentum SGD update with decoupled-from-loss weight decay on weights;
    vel is the momentum buffer, laid out like model.params and updated in place.

    Per element this is the per-layer rule vel = momentum * vel + (g + wd * w)
    for weights and vel = momentum * vel + g for biases, then p -= lr * vel,
    applied to the whole parameter vector (or stack of them) at once. A
    non-finite gradient raises, naming the first bad layer, before any
    parameter changes; the error's ``index`` is the stack index of the first
    model with a bad gradient (``()`` for a single model).
    """
    lead, grads = model.params.shape[:-1], []
    for gw, w, gb in zip(grads_w, model.weights, grads_b):
        decayed = cfg.weight_decay * w
        decayed += gw  # weights only: adding 0 * bias could turn a -0.0 gradient into +0.0
        grads += (decayed, gb)
    # a single model takes the cheaper flat concatenation
    g = (np.concatenate([a.reshape(*lead, -1) for a in grads], axis=-1) if lead
         else np.concatenate(grads, axis=None))
    if not np.isfinite(g).all():
        index = np.unravel_index(int(np.argmin(np.isfinite(g).all(axis=-1))), lead)
        _check_grads(grads_w, grads_b, index)
    vel *= cfg.momentum
    vel += g
    model.params -= lr * vel


# every step checks its own loss and gradient (and train_teacher its probs),
# so numpy's overflow and invalid-value warnings would only repeat the error
@np.errstate(over="ignore", invalid="ignore")
def train_classifier(features: np.ndarray, labels: np.ndarray, layer_dims,
                     cfg: TrainConfig, epochs: int, seed: int) -> MlpModel:
    """Hard-label training at temperature 1: per batch, loss_and_grads against
    one-hot targets and then sgd_step, bit for bit, in one fused loop.

    Against a one-hot row the soft loss is -log(max(p_y, PROB_FLOOR)) and
    dlogits is p less 1.0 at y (every other term adds or subtracts 0.0). The
    gradients are written into one preallocated vector laid out like params,
    the weight decay is added to it in place (IEEE addition commutes), and
    the momentum step runs in place. A non-finite loss raises "training
    diverged" for its epoch and a non-finite gradient sgd_step's error,
    both before any parameter changes. cfg's temperature must be 1 and its
    hard_label_weight 0: hard labels are the only targets here.
    """
    for name, value, ok, rule in (
        ("epochs", epochs, epochs >= 0, ">= 0"),
        ("temperature", cfg.temperature, cfg.temperature == 1.0, "1 to train on hard labels"),
        ("hard_label_weight", cfg.hard_label_weight, cfg.hard_label_weight == 0.0,
         "0 to train on hard labels"),
    ):
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    model = init_mlp(layer_dims, np.random.default_rng([seed, 0]))
    dims, weights, biases = model.layer_dims, model.weights, model.biases
    n = x.shape[0]
    if y.shape != (n,) or (n and (y.min() < 0 or y.max() >= dims[-1])):
        raise ValueError(f"labels must be a ({n},) array of class ids in [0, {dims[-1]})")
    shuffle_rng = np.random.default_rng([seed, 1])
    rows = max(1, min(cfg.batch_size, n))
    grad = np.empty_like(model.params)
    vel = np.zeros_like(model.params)
    step = np.empty_like(model.params)
    grads_w, grads_b = _views(dims, grad)
    decay_w = _views(dims, step)[0]  # step holds wd * params, then lr * vel
    outs = [np.empty((rows, d)) for d in dims[1:]]  # each layer's output, logits last
    deltas = [np.empty((rows, d)) for d in dims[1:-1]]
    masks = [np.empty((rows, d)) for d in dims[1:-1]]
    # where each sample's row starts in the flat view of its batch's logits
    flat = outs[-1].reshape(-1)
    at_row = np.arange(n) % rows * dims[-1]
    # one gather buffer for all epochs: a fresh one each epoch moves glibc's
    # mmap threshold, and with it big-store's peak RSS by 2-3 MB
    xs, at_y = np.empty(x.shape), np.empty(n, dtype=np.int64)
    for epoch in range(1, epochs + 1):
        lr = lr_at_epoch(cfg, epoch)
        order = shuffle_rng.permutation(n)
        x.take(order, axis=0, out=xs)
        y.take(order, out=at_y)
        at_y += at_row
        for start in range(0, n, rows):
            at = at_y[start:start + rows]
            b = at.size
            acts = [xs[start:start + rows]]
            for w, bias, out in zip(weights[:-1], biases[:-1], outs):
                h = np.matmul(acts[-1], w, out=out[:b])
                h += bias
                acts.append(np.maximum(h, 0.0, out=h))
            p = np.matmul(acts[-1], weights[-1], out=outs[-1][:b])
            p += biases[-1]
            _softmax_in_place(p)
            p_y = flat[at]
            flat[at] = p_y - 1.0
            p /= b
            delta = p
            for layer in range(len(weights) - 1, -1, -1):
                np.matmul(acts[layer].T, delta, out=grads_w[layer])
                _bias_grad(delta, out=grads_b[layer])
                if layer:
                    # a ReLU output is > 0 exactly where its input is; the
                    # mask is 1.0 or 0.0, as the product casts a bool mask
                    mask = np.greater(acts[layer], 0.0, out=masks[layer - 1][:b])
                    delta = np.matmul(delta, weights[layer].T, out=deltas[layer - 1][:b])
                    delta *= mask
            # a non-finite loss has a NaN prob row, which makes the last bias
            # gradient NaN: one check of the gradient covers both errors
            if not np.isfinite(grad).all():
                loss = np.add.reduce(-np.log(np.maximum(p_y, PROB_FLOOR))) / b
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"training diverged: non-finite loss at epoch {epoch}")
                _check_grads(grads_w, grads_b)
            np.multiply(model.params, cfg.weight_decay, out=step)
            for gw, decay in zip(grads_w, decay_w):
                gw += decay
            vel *= cfg.momentum
            vel += grad
            model.params -= np.multiply(vel, lr, out=step)
    return model


@np.errstate(over="ignore", invalid="ignore")
def train_teacher(features: np.ndarray, labels: np.ndarray, layer_dims,
                  cfg: TrainConfig, epochs: int, seed: int):
    """Train the teacher on hard labels and cache its soft labels over the
    same samples. The returned probabilities are temperature-1 softmax rows.
    A last step that leaves the parameters too large for a finite forward
    pass raises "training diverged" rather than return non-finite probs."""
    model = train_classifier(features, labels, layer_dims, cfg, epochs, seed)
    probs = softmax(forward(model, np.asarray(features, dtype=np.float64)), 1.0)
    if not np.isfinite(probs).all():
        raise FloatingPointError(
            f"training diverged: non-finite teacher probs after epoch {epochs}")
    return model, probs


def save_model(path, model: MlpModel) -> None:
    """Versioned binary checkpoint: header, layer dims, row-major float64
    parameters, all little-endian."""
    dims = model.layer_dims
    write_atomic(path, struct.pack("<4sII", MODEL_MAGIC, MODEL_VERSION, len(dims))
                 + struct.pack(f"<{len(dims)}I", *dims) + model.param_bytes())


def load_model(path) -> MlpModel:
    """Read a save_model checkpoint. Each length the header claims is checked
    before any read; a bad file raises DataFormatError with path and offset."""
    with open(path, "rb") as fh:
        data = fh.read()

    def bad(message: str, offset: int) -> DataFormatError:
        return DataFormatError(f"{path}: {message} (byte offset {offset})")

    head = struct.Struct("<4sII")
    if len(data) < head.size:
        raise bad(f"truncated header: got {len(data)} bytes, need {head.size}", len(data))
    magic, version, n_dims = head.unpack_from(data, 0)
    if magic != MODEL_MAGIC:
        raise bad(f"not a model checkpoint (magic {magic!r})", 0)
    if version != MODEL_VERSION:
        raise bad(f"unsupported checkpoint version {version}", 4)
    offset = head.size + 4 * n_dims
    if len(data) < offset:
        raise bad(f"truncated: {n_dims} layer dims need {offset} bytes", len(data))
    dims = struct.unpack_from(f"<{n_dims}I", data, head.size)
    if n_dims < 2 or 0 in dims:
        raise bad(f"need 2 or more layer dims, none 0; got {n_dims} dims", 8)
    expected = offset + 8 * _layout(dims)[1]
    if len(data) != expected:
        raise bad(f"file has {len(data)} bytes, its layer dims need {expected}",
                  min(len(data), expected))
    return MlpModel(dims, np.frombuffer(data, "<f8", offset=offset))
