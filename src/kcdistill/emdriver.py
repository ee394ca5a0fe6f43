"""Stage-scheduled distillation loop with cost accounting.

A run of I epochs splits into S = I / T stages of T epochs. The first epoch
is a full-set warm-up (counted against stage 1) so every sample carries an
observed value before the first ranking. At each stage boundary the complete
store is re-ranked and the top round(tau_s * N) samples are kept, where
tau_s = rho ** (s / S) decays to the final keep ratio rho; the kept set is
then summarized (borderline soft labels blended with discarded ones) and the
student trains on that fixed set for the rest of the stage.

The ideal relative cost of a schedule is mean(tau_s): each stage trains T
epochs on a tau_s fraction of the store. The realized cost counts actual
forward passes. With k_s = keep_count(N, tau_s) samples kept at stage s and
the warm-up training all N samples in place of k_1, it is exactly

    realized = mean(k_s) / N + (N - k_1) / (N * I).

Because keep counts are whole samples, realized - ideal is not bounded by
(1 - rho**(1/S)) / I: at N=800, rho=0.5 the gap is 1.95e-3 against 1.82e-3.

Training batches are drawn by shuffling the ascending-sorted active ids with
a dedicated generator stream, so two methods with equal stage sizes consume
identical randomness and differ only through which samples they select.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import nn, ogve, vaks
from .data import Dataset
from .evaluation import accuracy
from .knowledge import KnowledgeStore, ValueLabeling
from .ogve import OgveConfig

METHOD_KCD = "kcd"
METHOD_FULL_KD = "full-kd"
METHOD_RANDOM = "random-subset"
METHOD_OGVE_ONLY = "ogve-only"
METHOD_NO_OVR = "no-ovr"
METHOD_NO_CAR = "no-car"
METHOD_FIXED_EPS = "fixed-eps"
BASELINE_METHODS = (
    METHOD_FULL_KD,
    METHOD_RANDOM,
    METHOD_OGVE_ONLY,
    METHOD_NO_OVR,
    METHOD_NO_CAR,
    METHOD_FIXED_EPS,
)
ALL_METHODS = (METHOD_KCD,) + BASELINE_METHODS

REUSE_DIRECT = "direct-select"
REUSE_VAKS = "with-vaks"
REUSE_MODES = (REUSE_DIRECT, REUSE_VAKS)


class DistillationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScheduleConfig:
    """Stage schedule: total epochs I, epochs per stage T, final keep ratio rho."""

    total_epochs: int = 60
    stage_len: int = 10
    rho: float = 0.7

    def __post_init__(self):
        if self.total_epochs < 1 or self.stage_len < 1:
            raise ValueError("total_epochs and stage_len must be positive")
        if self.total_epochs % self.stage_len != 0:
            raise ValueError(
                f"T must divide I: stage_len {self.stage_len} does not divide "
                f"total_epochs {self.total_epochs}"
            )
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")

    @property
    def stage_count(self) -> int:
        return self.total_epochs // self.stage_len

    @property
    def tau_list(self) -> tuple[float, ...]:
        return tuple(tau_schedule(self.rho, self.stage_count))


def tau_schedule(rho: float, stage_count: int) -> list[float]:
    """Per-stage keep ratios rho**(s/S) for s = 1..S; exponential decay from
    rho**(1/S) down to exactly rho."""
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if stage_count < 1:
        raise ValueError(f"stage_count must be >= 1, got {stage_count}")
    return [rho ** (s / stage_count) for s in range(1, stage_count + 1)]


def relative_cost(tau_list) -> float:
    """Ideal fraction of full-set training cost: the mean of the stage ratios."""
    taus = list(tau_list)
    if not taus:
        raise ValueError("empty tau list")
    return float(sum(taus) / len(taus))


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


@dataclass
class CostReport:
    """absolute_cost counts knowledge points fed to training over the run;
    relative_cost is the ideal schedule fraction, realized_relative_cost the
    measured fraction absolute / (N * I)."""

    absolute_cost: int
    relative_cost: float
    realized_relative_cost: float


@dataclass
class StageRecord:
    stage: int
    tau: float
    threshold: float
    set_size: int
    high_count: int
    aug_count: int
    accuracy: float
    label_digest: str


@dataclass
class EpochRow:
    epoch: int
    stage: int
    active_size: int
    train_loss: float
    eval_accuracy: float


@dataclass
class DistillConfig:
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    ogve: OgveConfig = field(default_factory=OgveConfig)
    eps_m: float = 0.3
    train: nn.TrainConfig = field(default_factory=nn.TrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.eps_m < 0.0:
            raise ValueError("eps_m must be >= 0")

    def echo(self) -> dict:
        return {
            "total_epochs": self.schedule.total_epochs,
            "stage_len": self.schedule.stage_len,
            "rho": self.schedule.rho,
            "alpha": self.ogve.alpha,
            "eps_m": self.eps_m,
            "seed": self.seed,
            "train": asdict(self.train),
        }


@dataclass
class RunRecord:
    """Everything needed to audit or reproduce a run. wall_time_s is excluded
    from equality semantics; fingerprint() covers the deterministic content."""

    method: str
    seed: int
    config: dict
    stages: list[StageRecord]
    epochs: list[EpochRow]
    cost: CostReport
    final_accuracy: float
    final_labels: list[int]
    final_ranks: list[int]
    student_dims: list[int]
    param_digest: str
    wall_time_s: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["stages"] = [asdict(s) for s in self.stages]
        out["epochs"] = [asdict(e) for e in self.epochs]
        out["cost"] = asdict(self.cost)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        payload = dict(payload)
        payload["stages"] = [StageRecord(**s) for s in payload["stages"]]
        payload["epochs"] = [EpochRow(**e) for e in payload["epochs"]]
        payload["cost"] = CostReport(**payload["cost"])
        return cls(**payload)

    def fingerprint(self) -> str:
        payload = self.to_dict()
        payload.pop("wall_time_s")
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "RunRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def epochs_csv(self) -> str:
        lines = ["epoch,stage,active_size,train_loss,eval_accuracy"]
        for row in self.epochs:
            lines.append(
                f"{row.epoch},{row.stage},{row.active_size},"
                f"{row.train_loss:.10g},{row.eval_accuracy:.10g}"
            )
        return "\n".join(lines) + "\n"

    def final_labeling(self) -> ValueLabeling:
        """The labeling that selected the last stage's knowledge set."""
        if not self.final_ranks:
            raise ValueError(f"{self.method} run carries no condensed labeling")
        ranks = np.asarray(self.final_ranks, dtype=np.int64)
        probs = 1.0 - ranks / float(ranks.size)
        return ValueLabeling(ranks=ranks, probs=probs,
                             labels=np.asarray(self.final_labels, dtype=np.uint8))


def init_student(input_dim: int, hidden_dims, num_classes: int, seed: int) -> nn.MlpModel:
    dims = (int(input_dim), *(int(h) for h in hidden_dims), int(num_classes))
    return nn.init_mlp(dims, np.random.default_rng([seed, 0]))


def _labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype=np.uint8).tobytes()).hexdigest()


def _train_epoch(model, store, active_ids, targets, tcfg, lr, rng, state,
                 stage: int, epoch: int) -> float:
    """One epoch over the active set: shuffle sorted ids, step per batch,
    record each trained sample's prediction entropy."""
    ids = np.sort(np.asarray(active_ids, dtype=np.int64))
    order = ids[rng.permutation(ids.size)]
    total = 0.0
    hard_all = store.hard_labels if tcfg.hard_label_weight > 0.0 else None
    for start in range(0, order.size, tcfg.batch_size):
        batch = order[start:start + tcfg.batch_size]
        hard = None if hard_all is None else hard_all[batch]
        loss, gw, gb, probs_1 = nn.loss_and_grads(
            model, store.features[batch], targets[batch],
            tcfg.temperature, hard, tcfg.hard_label_weight,
        )
        if not np.isfinite(loss):
            raise DistillationError(f"non-finite training loss at stage {stage}, epoch {epoch}")
        try:
            nn.sgd_step(model, gw, gb, state, lr, tcfg)
        except FloatingPointError as exc:
            raise DistillationError(f"stage {stage}, epoch {epoch}: {exc}") from None
        ogve.observe_batch(store, batch, ogve.entropy_rows(probs_1))
        total += loss * batch.size
    return total / order.size


def _stage_targets(store: KnowledgeStore, condensed) -> np.ndarray:
    """Per-sample distillation targets for a stage: original teacher probs
    with augmented rows replaced."""
    targets = store.teacher_probs.copy()
    targets[condensed.aug_ids] = condensed.aug_probs
    return targets


def _select_labeling(method: str, store: KnowledgeStore, cfg: DistillConfig,
                     tau: float, select_rng: np.random.Generator) -> ValueLabeling:
    if method == METHOD_RANDOM:
        ranks = ogve.ranks_from_scores(select_rng.random(store.n))
        return ogve.labeling_from_ranks(ranks, tau)
    if method == METHOD_NO_OVR:
        return ogve.label_by_ratio(store, cfg.ogve, tau, value_source="latest")
    if method == METHOD_NO_CAR:
        return ogve.label_by_ratio(store, OgveConfig(alpha=0.0), tau)
    return ogve.label_by_ratio(store, cfg.ogve, tau)


def _condense(method: str, labeling: ValueLabeling, store: KnowledgeStore,
              cfg: DistillConfig):
    if method in (METHOD_KCD, METHOD_FIXED_EPS):
        return vaks.condense(labeling, store, cfg.eps_m,
                             constant_eps=method == METHOD_FIXED_EPS)
    # ranking ablations pair with plain selection of the kept labels
    return vaks.direct_selection(labeling)


def _execute(config: DistillConfig, store: KnowledgeStore, student: nn.MlpModel,
             dataset: Dataset, method: str,
             fixed_labeling: ValueLabeling | None = None,
             reuse_mode: str | None = None):
    started = time.perf_counter()
    sched = config.schedule
    taus = sched.tau_list
    n = store.n
    total_epochs = sched.total_epochs
    stage_len = sched.stage_len

    store.reset_value_state()
    train_rng = np.random.default_rng([config.seed, 1])
    select_rng = np.random.default_rng([config.seed, 2])
    state = nn.SgdState.zeros_like(student)
    all_ids = np.arange(n)
    test_x, test_y = dataset.test_features, dataset.test_labels

    epoch_rows: list[EpochRow] = []
    stage_records: list[StageRecord] = []
    forward_count = 0
    epoch = 0

    def run_epoch(active_ids, targets, stage_no) -> float:
        nonlocal epoch, forward_count
        epoch += 1
        lr = nn.lr_at_epoch(config.train, epoch)
        loss = _train_epoch(student, store, active_ids, targets, config.train,
                            lr, train_rng, state, stage_no, epoch)
        forward_count += int(np.asarray(active_ids).size)
        acc = accuracy(student, test_x, test_y)
        epoch_rows.append(EpochRow(epoch, stage_no, int(np.asarray(active_ids).size),
                                   float(loss), float(acc)))
        return acc

    all_ones = np.ones(n, dtype=np.uint8)
    orig_targets = np.asarray(store.teacher_probs)
    last_labels = all_ones
    last_ranks: np.ndarray | None = None

    # warm-up: one full-set epoch belonging to stage 1
    acc = run_epoch(all_ids, orig_targets, 1)

    for s in range(1, sched.stage_count + 1):
        tau_s = taus[s - 1]
        if method == METHOD_FULL_KD:
            labels, threshold = all_ones, 1.0 / n
            active, targets = all_ids, orig_targets
            set_size, high_count, aug_count = n, n, 0
        else:
            if fixed_labeling is not None:
                labeling = fixed_labeling
                threshold = float(np.min(labeling.probs[labeling.labels == 1])) \
                    if np.any(labeling.labels == 1) else 1.0
                condensed = (vaks.condense(labeling, store, config.eps_m)
                             if reuse_mode == REUSE_VAKS
                             else vaks.direct_selection(labeling))
            else:
                labeling = _select_labeling(method, store, config, tau_s, select_rng)
                threshold = ogve.ratio_threshold(n, tau_s)
                condensed = _condense(method, labeling, store, config)
            labels = labeling.labels
            last_ranks = labeling.ranks
            active = condensed.member_ids
            if active.size == 0:
                raise ValueError(f"stage {s} selected an empty knowledge set")
            targets = _stage_targets(store, condensed)
            set_size = condensed.size
            aug_count = condensed.aug_ids.size
            high_count = set_size - aug_count
        epochs_this_stage = stage_len - 1 if s == 1 else stage_len
        for _ in range(epochs_this_stage):
            acc = run_epoch(active, targets, s)
        stage_records.append(StageRecord(
            stage=s, tau=float(tau_s), threshold=float(threshold),
            set_size=int(set_size), high_count=int(high_count),
            aug_count=int(aug_count), accuracy=float(acc),
            label_digest=_labels_digest(labels),
        ))
        last_labels = labels

    realized = forward_count / (n * total_epochs)
    if method == METHOD_FULL_KD:
        ideal = 1.0
    elif reuse_mode is not None:
        ideal = realized  # fixed-label runs do not follow the tau schedule
    else:
        ideal = relative_cost(taus)
    cost = CostReport(
        absolute_cost=int(forward_count),
        relative_cost=float(ideal),
        realized_relative_cost=float(realized),
    )
    record = RunRecord(
        method=method if reuse_mode is None else f"reuse-{reuse_mode}",
        seed=config.seed,
        config=config.echo(),
        stages=stage_records,
        epochs=epoch_rows,
        cost=cost,
        final_accuracy=float(epoch_rows[-1].eval_accuracy),
        final_labels=[int(v) for v in last_labels],
        final_ranks=[] if last_ranks is None else [int(v) for v in last_ranks],
        student_dims=[int(d) for d in student.layer_dims],
        param_digest=hashlib.sha256(student.param_bytes()).hexdigest(),
        wall_time_s=time.perf_counter() - started,
    )
    return student, record


def run(config: DistillConfig, store: KnowledgeStore, student: nn.MlpModel,
        dataset: Dataset):
    """The full condensation-distillation loop (value estimation + summary)."""
    return _execute(config, store, student, dataset, METHOD_KCD)


def run_baseline(config: DistillConfig, store: KnowledgeStore, student: nn.MlpModel,
                 dataset: Dataset, method: str):
    """Reference and ablation loops sharing the same schedule and trainer.

    full-kd trains every epoch on the complete store; random-subset draws the
    stage ranking uniformly at random; ogve-only keeps the ranked selection
    but skips the summary step; no-ovr ranks on the latest observation instead
    of the running mean; no-car drops the frequency reweighting; fixed-eps
    blends the whole borderline slice at the maximum ratio.
    """
    if method == METHOD_KCD:
        return run(config, store, student, dataset)
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    return _execute(config, store, student, dataset, method)


def run_with_fixed_labels(config: DistillConfig, store: KnowledgeStore,
                          student: nn.MlpModel, dataset: Dataset,
                          labeling: ValueLabeling, mode: str):
    """Retrain against an imported labeling applied at every stage (no value
    estimation); mode picks plain selection or selection plus summary."""
    if mode not in REUSE_MODES:
        raise ValueError(f"unknown reuse mode {mode!r}; expected one of {REUSE_MODES}")
    if labeling.n != store.n:
        raise ValueError(
            f"label count {labeling.n} does not match store size {store.n}"
        )
    return _execute(config, store, student, dataset, METHOD_KCD,
                    fixed_labeling=labeling, reuse_mode=mode)
