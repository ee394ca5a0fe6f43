"""Slow scalar and closed-form oracles the tests check the library against.

None of these is on a training path: the library computes the same
quantities over whole arrays (ogve.ValueState, ogve.cost_aware_scores,
ogve.entropy_rows, emdriver.relative_cost, nn.loss_and_grads).
"""

from dataclasses import dataclass

import numpy as np

from kcdistill import nn
from kcdistill.knowledge import check_simplex
from kcdistill.ogve import OgveConfig


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


def kd_loss(teacher_probs: np.ndarray, student_probs: np.ndarray) -> float:
    """Batch-mean cross-entropy -sum(p_T log p_S); student probs are floored
    at 1e-12 before the log."""
    t = np.atleast_2d(np.asarray(teacher_probs, dtype=np.float64))
    s = np.atleast_2d(np.asarray(student_probs, dtype=np.float64))
    return float(nn._kd_loss(t, s))


def finite_difference_check(model: nn.MlpModel, x: np.ndarray, target_probs: np.ndarray,
                            n_coords: int = 100, step: float = 1e-5,
                            temperature: float = 1.0, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients on
    n_coords randomly chosen parameter coordinates."""
    rng = np.random.default_rng(seed)
    _, grads_w, grads_b, _ = nn.loss_and_grads(model, x, target_probs, temperature)
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
    check_simplex(p, context="student_probs")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


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


def cost_aware_score(record: ValueRecord, cfg: OgveConfig) -> float:
    """Score used for ranking: running value times frequency**alpha."""
    if record.frequency < 1:
        raise ValueError("unobserved sample: frequency is 0")
    return float(record.value * record.frequency ** cfg.alpha)
