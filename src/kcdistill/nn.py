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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import write_atomic

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
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if not (0.0 <= self.hard_label_weight <= 1.0):
            raise ValueError("hard_label_weight must be in [0, 1]")
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
        self.params = np.concatenate(arrays, axis=None) if arrays else np.empty(0)
        self.n_weight = int(sum(w.size for w in arrays[:len(self.weights)]))
        views, offset = [], 0
        for a in arrays:
            views.append(self.params[offset:offset + a.size].reshape(a.shape))
            offset += a.size
        self.weights = views[:len(self.weights)]
        self.biases = views[len(self.weights):]

    @property
    def num_classes(self) -> int:
        return int(self.layer_dims[-1])

    @property
    def input_dim(self) -> int:
        return int(self.layer_dims[0])

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


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch; hidden layers are ReLU, output is linear."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[1] != model.input_dim:
        raise ValueError(f"input dim {h.shape[1]} does not match model dim {model.input_dim}")
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return h @ model.weights[-1] + model.biases[-1]


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    if temperature <= 0.0:
        raise ValueError("temperature must be > 0")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def kd_loss(teacher_probs: np.ndarray, student_probs: np.ndarray) -> float:
    """Batch-mean cross-entropy -sum(p_T log p_S); student probs are floored
    at 1e-12 before the log."""
    t = np.atleast_2d(np.asarray(teacher_probs, dtype=np.float64))
    s = np.atleast_2d(np.asarray(student_probs, dtype=np.float64))
    return _kd_loss(t, s)


def _kd_loss(t: np.ndarray, s: np.ndarray) -> float:
    """kd_loss on 2-d float64 arrays; np.add.reduce(x) / n is bitwise np.mean."""
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {s.shape}")
    log_s = np.log(np.maximum(s, PROB_FLOOR))
    return float(np.add.reduce(-np.add.reduce(t * log_s, axis=1)) / t.shape[0])


def loss_and_grads(model: MlpModel, x: np.ndarray, target_probs: np.ndarray,
                   temperature: float = 1.0, hard_labels=None,
                   hard_label_weight: float = 0.0):
    """Soft-target loss plus analytic parameter gradients.

    Returns (loss, weight grads, bias grads, temperature-1 probs). The hard
    term, when weighted, is a standard cross-entropy at temperature 1 added on
    top of the soft term.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(target_probs, dtype=np.float64))
    batch = x.shape[0]

    acts = [x]
    pre = []
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]

    probs_t = softmax(logits, temperature)
    probs_1 = probs_t if temperature == 1.0 else softmax(logits, 1.0)
    loss = _kd_loss(targets, probs_t)
    dlogits = (probs_t - targets) / (temperature * batch)
    if hard_label_weight > 0.0:
        if hard_labels is None:
            raise ValueError("hard_label_weight > 0 requires hard labels")
        y = np.asarray(hard_labels, dtype=np.int64)
        picked = np.maximum(probs_1[np.arange(batch), y], PROB_FLOOR)
        loss += hard_label_weight * float(np.mean(-np.log(picked)))
        onehot = np.zeros_like(probs_1)
        onehot[np.arange(batch), y] = 1.0
        dlogits = dlogits + hard_label_weight * (probs_1 - onehot) / batch

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = dlogits
    grads_w[-1] = acts[-1].T @ delta
    grads_b[-1] = np.add.reduce(delta, axis=0)
    for layer in range(len(model.weights) - 2, -1, -1):
        delta = (delta @ model.weights[layer + 1].T) * (pre[layer] > 0.0)
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = np.add.reduce(delta, axis=0)
    return loss, grads_w, grads_b, probs_1


@dataclass
class SgdState:
    """Momentum buffer laid out like MlpModel.params."""

    vel: np.ndarray

    @classmethod
    def zeros_like(cls, model: MlpModel) -> "SgdState":
        return cls(vel=np.zeros_like(model.params))


def sgd_step(model: MlpModel, grads_w, grads_b, state: SgdState, lr: float,
             cfg: TrainConfig) -> None:
    """Momentum SGD update with decoupled-from-loss weight decay on weights.

    Per element this is the per-layer rule vel = momentum * vel + (g + wd * w)
    for weights and vel = momentum * vel + g for biases, then p -= lr * vel,
    applied to the whole parameter vector at once. A non-finite gradient
    raises, naming the first bad layer, before any parameter changes.
    """
    g = np.concatenate((*grads_w, *grads_b), axis=None)
    if not np.isfinite(g).all():
        for i, (gw, gb) in enumerate(zip(grads_w, grads_b)):
            if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
                raise FloatingPointError(
                    f"non-finite gradient in layer {i} "
                    f"(|grad| max {np.max(np.abs(gw[np.isfinite(gw)])) if np.any(np.isfinite(gw)) else 'n/a'})"
                )
    nw = model.n_weight
    # weights only: adding 0 * bias could turn a -0.0 gradient into +0.0
    g[:nw] += cfg.weight_decay * model.params[:nw]
    vel = state.vel
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
    state = SgdState.zeros_like(model)
    for epoch in range(1, epochs + 1):
        lr = lr_at_epoch(cfg, epoch)
        order = shuffle_rng.permutation(x.shape[0])
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb, _ = loss_and_grads(model, x[idx], onehot[idx])
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged: non-finite loss at epoch {epoch}")
            sgd_step(model, gw, gb, state, lr, cfg)
    return model


def train_teacher(features: np.ndarray, labels: np.ndarray, layer_dims,
                  cfg: TrainConfig, epochs: int, seed: int):
    """Train the teacher on hard labels and cache its soft labels over the
    same samples. The returned probabilities are temperature-1 softmax rows."""
    model = train_classifier(features, labels, layer_dims, cfg, epochs, seed)
    probs = softmax(forward(model, np.asarray(features, dtype=np.float64)), 1.0)
    return model, probs


def finite_difference_check(model: MlpModel, x: np.ndarray, target_probs: np.ndarray,
                            n_coords: int = 100, step: float = 1e-5,
                            temperature: float = 1.0, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients on
    n_coords randomly chosen parameter coordinates."""
    rng = np.random.default_rng(seed)
    _, grads_w, grads_b, _ = loss_and_grads(model, x, target_probs, temperature)
    worst = 0.0
    params = [(model.weights[i], grads_w[i]) for i in range(len(model.weights))]
    params += [(model.biases[i], grads_b[i]) for i in range(len(model.biases))]
    for _ in range(n_coords):
        arr, grad = params[rng.integers(len(params))]
        flat_index = int(rng.integers(arr.size))
        idx = np.unravel_index(flat_index, arr.shape)
        original = arr[idx]
        arr[idx] = original + step
        loss_plus, *_ = loss_and_grads(model, x, target_probs, temperature)
        arr[idx] = original - step
        loss_minus, *_ = loss_and_grads(model, x, target_probs, temperature)
        arr[idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = grad[idx]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def save_model(path, model: MlpModel) -> None:
    """Versioned binary checkpoint: header, layer dims, row-major float64
    parameters, all little-endian."""
    dims = model.layer_dims
    write_atomic(path, struct.pack("<4sII", MODEL_MAGIC, MODEL_VERSION, len(dims))
                 + struct.pack(f"<{len(dims)}I", *dims) + model.param_bytes())


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        data = fh.read()
    head = struct.Struct("<4sII")
    if len(data) < head.size:
        raise ValueError("truncated model file: missing header")
    magic, version, n_dims = head.unpack_from(data, 0)
    if magic != MODEL_MAGIC:
        raise ValueError(f"not a model checkpoint (magic {magic!r})")
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = head.size
    dims = struct.unpack_from(f"<{n_dims}I", data, offset)
    offset += 4 * n_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(data, dtype="<f8", count=fan_in * fan_out, offset=offset).reshape(fan_in, fan_out)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(data, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w)
        biases.append(b)
    if offset != len(data):
        raise ValueError("model file has trailing bytes")
    return MlpModel(layer_dims=tuple(int(d) for d in dims), weights=weights, biases=biases)
