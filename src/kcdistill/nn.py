"""Small dense classifiers with hand-rolled backprop and momentum SGD.

Teacher and student are plain MLPs (ReLU hidden layers, linear output). The
distillation loss is the batch-mean cross-entropy between target soft labels
and the student's softmax output, with an optional hard-label term.

A model's parameters live in one contiguous float64 vector, all weight
matrices first and then all biases, and ``weights[i]``/``biases[i]`` are
reshaped views into it. That lets one SGD step update every layer with a few
whole-vector operations. Write through the views (``w[...] = ...``,
``w -= ...``); rebinding ``weights[i]`` to a new array detaches it from the
vector and the optimizer would no longer see it.

A model may also be a stack of K same-shape models: ``params`` is then (K, P)
and each weight a (K, fan_in, fan_out) view. ``forward``, ``loss_and_grads``
and ``sgd_step`` take any leading stack dimensions and do per model exactly
the arithmetic of a single model (``np.matmul`` hands every slice to the same
BLAS call), so a stacked step is bit-identical to a loop over the models.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

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
        kwargs = dict(lr_decay_epochs=decay)
        kwargs.update(overrides)
        return cls(**kwargs)


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch; each decay epoch d scales epochs > d."""
    drops = sum(1 for d in cfg.lr_decay_epochs if epoch > d)
    return cfg.lr * cfg.lr_decay_factor ** drops


@dataclass
class MlpModel:
    """Dense ReLU network whose parameters live in one flat vector.

    ``params`` holds every weight matrix (row-major, layer order) and then
    every bias; ``n_weight`` is the length of the weight part. The matrices
    passed in are copied into ``params`` and ``weights``/``biases`` are
    replaced by views of it, so in-place writes such as
    ``model.weights[0][:] = 0`` change the model. Never rebind
    ``weights[i]`` or ``biases[i]``: the new array would not be trained.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    n_weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in (*self.weights, *self.biases)]
        lead = arrays[0].shape[:-2] if self.weights else ()  # stack dimensions
        sizes = [int(np.prod(a.shape[len(lead):])) for a in arrays]
        self.params = (np.concatenate([a.reshape(*lead, -1) for a in arrays], axis=-1)
                       if arrays else np.empty(0))
        self.n_weight = sum(sizes[:len(self.weights)])
        views, offset = [], 0
        for a, size in zip(arrays, sizes):
            views.append(self.params[..., offset:offset + size].reshape(a.shape))
            offset += size
        self.weights = views[:len(self.weights)]
        self.biases = views[len(self.weights):]

    @property
    def num_classes(self) -> int:
        return int(self.layer_dims[-1])

    @property
    def input_dim(self) -> int:
        return int(self.layer_dims[0])

    def __reduce__(self):
        # pickling the arrays one by one would detach the views from params
        return MlpModel, (self.layer_dims, list(self.weights), list(self.biases))

    def copy(self) -> "MlpModel":
        # __post_init__ copies the arrays into a fresh parameter vector
        return MlpModel(layer_dims=tuple(self.layer_dims),
                        weights=list(self.weights), biases=list(self.biases))

    def param_bytes(self) -> bytes:
        """Parameters as little-endian float64, weight then bias per layer
        (the checkpoint layout, also hashed into a run's param_digest)."""
        chunks = []
        for w, b in zip(self.weights, self.biases):
            chunks.append(w.astype("<f8").tobytes())
            chunks.append(b.astype("<f8").tobytes())
        return b"".join(chunks)


def init_mlp(layer_dims, rng) -> MlpModel:
    """He-normal weights, zero biases. rng may be a seed or a Generator."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must list input, hidden..., classes; got {dims}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(gen.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases)


def stack_models(models) -> MlpModel:
    """One stacked model holding copies of same-shape models' parameters."""
    return MlpModel(models[0].layer_dims,
                    weights=[np.stack(w) for w in zip(*(m.weights for m in models))],
                    biases=[np.stack(b) for b in zip(*(m.biases for m in models))])


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch; hidden layers are ReLU, output is linear."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[-1] != model.input_dim:
        raise ValueError(f"input dim {h.shape[-1]} does not match model dim {model.input_dim}")
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


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _kd_loss(t: np.ndarray, s: np.ndarray):
    """Batch-mean cross-entropy -sum(p_T log p_S) over the last two axes, with
    student probs floored at 1e-12; np.add.reduce(x) / n is bitwise np.mean."""
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {s.shape}")
    log_s = np.log(np.maximum(s, PROB_FLOOR))
    return np.add.reduce(-np.add.reduce(t * log_s, axis=-1), axis=-1) / t.shape[-2]


def loss_and_grads(model: MlpModel, x: np.ndarray, target_probs: np.ndarray,
                   temperature: float = 1.0, hard_labels=None,
                   hard_label_weight: float = 0.0):
    """Soft-target loss plus analytic parameter gradients.

    Returns (loss, weight grads, bias grads, temperature-1 probs); for a
    stacked model x is (K, B, D) and the loss a (K,) array. The hard term,
    when weighted, is a standard cross-entropy at temperature 1 added on top
    of the soft term.
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
    logits = acts[-1] @ model.weights[-1] + model.biases[-1][..., None, :]

    probs_t = softmax(logits, temperature)
    probs_1 = probs_t if temperature == 1.0 else softmax(logits, 1.0)
    loss = _kd_loss(targets, probs_t)
    dlogits = (probs_t - targets) / (temperature * batch)
    if hard_label_weight > 0.0:
        if hard_labels is None:
            raise ValueError("hard_label_weight > 0 requires hard labels")
        y = np.asarray(hard_labels, dtype=np.int64)[..., None]
        picked = np.maximum(np.take_along_axis(probs_1, y, axis=-1)[..., 0], PROB_FLOOR)
        loss = loss + hard_label_weight * np.mean(-np.log(picked), axis=-1)
        onehot = np.zeros_like(probs_1)
        np.put_along_axis(onehot, y, 1.0, axis=-1)
        dlogits = dlogits + hard_label_weight * (probs_1 - onehot) / batch

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = dlogits
    grads_w[-1] = acts[-1].swapaxes(-1, -2) @ delta
    grads_b[-1] = np.add.reduce(delta, axis=-2)
    for layer in range(len(model.weights) - 2, -1, -1):
        # a ReLU output is > 0 exactly where its input is (both False at NaN)
        delta = (delta @ model.weights[layer + 1].swapaxes(-1, -2)) * (acts[layer + 1] > 0.0)
        grads_w[layer] = acts[layer].swapaxes(-1, -2) @ delta
        grads_b[layer] = np.add.reduce(delta, axis=-2)
    return loss, grads_w, grads_b, probs_1


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
    lead, grads = model.params.shape[:-1], (*grads_w, *grads_b)
    # a single model takes the cheaper flat concatenation
    g = (np.concatenate([a.reshape(*lead, -1) for a in grads], axis=-1) if lead
         else np.concatenate(grads, axis=None))
    if not np.isfinite(g).all():
        index = np.unravel_index(int(np.argmin(np.isfinite(g).all(axis=-1))), lead)
        for i, (gw, gb) in enumerate(zip(grads_w, grads_b)):
            gw, gb = gw[index], gb[index]
            if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
                exc = FloatingPointError(
                    f"non-finite gradient in layer {i} "
                    f"(|grad| max {np.max(np.abs(gw[np.isfinite(gw)])) if np.any(np.isfinite(gw)) else 'n/a'})"
                )
                exc.index = index
                raise exc
    nw = model.n_weight
    # weights only: adding 0 * bias could turn a -0.0 gradient into +0.0
    g[..., :nw] += cfg.weight_decay * model.params[..., :nw]
    vel *= cfg.momentum
    vel += g
    model.params -= lr * vel


def train_classifier(features: np.ndarray, labels: np.ndarray, layer_dims,
                     cfg: TrainConfig, epochs: int, seed: int) -> MlpModel:
    """Hard-label training: soft-target loss against one-hot targets."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    model = init_mlp(layer_dims, np.random.default_rng([seed, 0]))
    shuffle_rng = np.random.default_rng([seed, 1])
    onehot = np.zeros((x.shape[0], model.num_classes))
    onehot[np.arange(x.shape[0]), y] = 1.0
    vel = np.zeros_like(model.params)
    for epoch in range(1, epochs + 1):
        lr = lr_at_epoch(cfg, epoch)
        order = shuffle_rng.permutation(x.shape[0])
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb, _ = loss_and_grads(model, x.take(idx, axis=0),
                                             onehot.take(idx, axis=0))
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged: non-finite loss at epoch {epoch}")
            sgd_step(model, gw, gb, vel, lr, cfg)
    return model


def train_teacher(features: np.ndarray, labels: np.ndarray, layer_dims,
                  cfg: TrainConfig, epochs: int, seed: int):
    """Train the teacher on hard labels and cache its soft labels over the
    same samples. The returned probabilities are temperature-1 softmax rows."""
    model = train_classifier(features, labels, layer_dims, cfg, epochs, seed)
    probs = softmax(forward(model, np.asarray(features, dtype=np.float64)), 1.0)
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
    expected = offset + 8 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    if len(data) != expected:
        raise bad(f"file has {len(data)} bytes, its layer dims need {expected}",
                  min(len(data), expected))
    # per layer: row-major weight matrix, then bias
    params = np.frombuffer(data, dtype="<f8", offset=offset)
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(params[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        biases.append(params[at + fan_in * fan_out:at + (fan_in + 1) * fan_out])
        at += (fan_in + 1) * fan_out
    return MlpModel(layer_dims=tuple(int(d) for d in dims), weights=weights, biases=biases)
