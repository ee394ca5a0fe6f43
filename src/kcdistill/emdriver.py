"""Stage-scheduled distillation loop with cost accounting.

A run of I epochs splits into S = I / T stages of T epochs. The first epoch
is a full-set warm-up (counted against stage 1) so every sample carries an
observed value before the first ranking. At each stage boundary the complete
store is re-ranked and the top round(tau_s * N) samples are kept, where
tau_s = rho ** (s / S) decays to the final keep ratio rho; the kept set is
then summarized (borderline soft labels blended with discarded ones) and the
student trains on that fixed set, which vaks.direct_selection reads off the
labeling, for the rest of the stage.

The ideal relative cost of a schedule is mean(tau_s): each stage trains T
epochs on a tau_s fraction of the store. The realized cost counts actual
forward passes. With k_s = keep_count(N, tau_s) samples kept at stage s and
the warm-up training all N samples in place of k_1, it is exactly

    realized = mean(k_s) / N + (N - k_1) / (N * I).

Because keep counts are whole samples, realized - ideal is not bounded by
(1 - rho**(1/S)) / I: at N=800, rho=0.5 the gap is 1.95e-3 against 1.82e-3.

One stage loop serves every method and both reuse modes; a row of _METHODS
says how a stage picks its labeling, how it blends the kept set, if at all,
and how the run builds its ValueState, if it keeps one. run_group is the one
entry that trains. Runs that share a _shape_key train in lockstep as one
stacked model: each batch step, SGD update and evaluation runs once for the
stack, and per model it is the arithmetic of a lone run, bit for bit.

Training batches are drawn by shuffling the ascending active ids with
a dedicated generator stream, so two methods with equal stage sizes consume
identical randomness and differ only through which samples they select.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import nn, ogve, vaks
from .data import Dataset, write_atomic
from .knowledge import KnowledgeStore, ValueLabeling, check_simplex
from .nn import accuracy

METHOD_KCD = "kcd"
METHOD_FULL_KD = "full-kd"
METHOD_RANDOM = "random-subset"
METHOD_OGVE_ONLY = "ogve-only"
METHOD_NO_OVR = "no-ovr"
METHOD_NO_CAR = "no-car"
METHOD_FIXED_EPS = "fixed-eps"


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
    """alpha is OGVE's frequency exponent, eps_m VAKS's blend ceiling."""

    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    alpha: float = 0.03
    eps_m: float = 0.3
    train: nn.TrainConfig = field(default_factory=nn.TrainConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "eps_m"):
            if not 0.0 <= getattr(self, name) < np.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def echo(self) -> dict:
        return {
            "total_epochs": self.schedule.total_epochs,
            "stage_len": self.schedule.stage_len,
            "rho": self.schedule.rho,
            "alpha": self.alpha,
            "eps_m": self.eps_m,
            "seed": self.seed,
            "train": asdict(self.train),
        }


@dataclass(eq=False)
class RunRecord:
    """Everything needed to audit or reproduce a run. Compare records with
    fingerprint(), which covers everything but wall_time_s. wall_time_s is
    the time of the whole lockstep group the run trained in, so every
    record of a group claims all of it.

    final_labels (uint8) and final_ranks (int64, empty for full-kd) are
    arrays the record owns: construction copies them, so they share no
    memory with the run's or an imported labeling's arrays. save and
    fingerprint encode them as lists of ints, a slice at a time, so neither
    builds a list of all the elements."""

    method: str
    seed: int
    config: dict
    stages: list[StageRecord]
    epochs: list[EpochRow]
    cost: CostReport
    final_accuracy: float
    final_labels: np.ndarray
    final_ranks: np.ndarray
    student_dims: list[int]
    param_digest: str
    wall_time_s: float

    def __post_init__(self):
        self.final_labels = np.array(self.final_labels, dtype=np.uint8)
        self.final_ranks = np.array(self.final_ranks, dtype=np.int64)

    def _json_fields(self) -> dict:
        """Each field in JSON terms, except that the label and rank arrays
        stay arrays and nothing is copied."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(stages=[asdict(s) for s in self.stages],
                   epochs=[asdict(e) for e in self.epochs], cost=asdict(self.cost))
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """The record a payload in save's JSON form describes. A payload that
        is not an object with exactly the record's fields, each of its JSON
        type, raises a ValueError that names the field."""
        payload = _checked_fields(cls, payload, "record")
        payload["stages"] = [StageRecord(**_checked_fields(StageRecord, s, f"stages[{i}]"))
                             for i, s in enumerate(payload["stages"])]
        payload["epochs"] = [EpochRow(**_checked_fields(EpochRow, e, f"epochs[{i}]"))
                             for i, e in enumerate(payload["epochs"])]
        payload["cost"] = CostReport(**_checked_fields(CostReport, payload["cost"], "cost"))
        for name in ("final_labels", "final_ranks", "student_dims"):
            if not {*map(type, payload[name])} <= {int}:
                raise ValueError(f"record field {name!r} must be an array of integers")
        return cls(**payload)

    def fingerprint(self) -> str:
        """sha256 of json.dumps(the fields but wall_time_s, sort_keys=True)."""
        payload = self._json_fields()
        payload.pop("wall_time_s")
        digest = hashlib.sha256()
        for chunk in _json_chunks(payload, indent=None, sort_keys=True):
            digest.update(chunk.encode())
        return digest.hexdigest()

    def save(self, path) -> None:
        """Write json.dumps(the fields, indent=2) and a newline, streamed."""
        chunks = _json_chunks(self._json_fields(), indent=2, sort_keys=False)
        write_atomic(path, (chunk.encode() for chunk in itertools.chain(chunks, ("\n",))))

    @classmethod
    def load(cls, path) -> "RunRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def epochs_csv(self) -> str:
        lines = ["epoch,stage,active_size,train_loss,eval_accuracy"]
        lines += [f"{row.epoch},{row.stage},{row.active_size},"
                  f"{row.train_loss:.10g},{row.eval_accuracy:.10g}" for row in self.epochs]
        return "\n".join(lines) + "\n"

    def final_labeling(self) -> ValueLabeling:
        """The labeling that selected the last stage's knowledge set."""
        if not self.final_ranks.size:
            raise ValueError(f"{self.method} run carries no condensed labeling")
        return ValueLabeling(ranks=self.final_ranks, labels=self.final_labels)


# JSON types of the annotations RunRecord and its nested records use; a
# list[...] annotation is an array, and a bool is no number
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict,
               "list": list, "np.ndarray": list, "CostReport": dict}
_ARRAY_CHUNK = 8192
# bytes of feature and teacher rows an epoch gathers at once per run: bounds
# memory per run whatever the feature and class counts. At 16 features and 10
# classes it is 8192 rows, below big-store's 20,000 reference train rows, so
# tests/test_big_store_golden.py crosses chunks
_EPOCH_CHUNK_BYTES = 8192 * (16 + 10) * 8


def _checked_fields(cls, payload, where: str) -> dict:
    """A copy of payload, a JSON object with exactly the fields of dataclass
    cls, each of the JSON type its annotation names. Raises a ValueError
    naming the first field that is missing, unknown or of another type."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be an object, not {type(payload).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in payload if key not in names]
    if unknown:
        raise ValueError(f"{where} has an unknown field {unknown[0]!r}")
    for f in fields(cls):
        if f.name not in payload:
            raise ValueError(f"{where} has no field {f.name!r}")
        value, want = payload[f.name], _JSON_TYPES[f.type.split("[")[0]]
        if isinstance(value, bool) or not isinstance(value, want):
            raise ValueError(f"{where} field {f.name!r} must be {f.type}, "
                             f"not {type(value).__name__}")
    return dict(payload)


def _json_chunks(payload: dict, indent, sort_keys: bool):
    """Yield json.dumps(payload, indent=indent, sort_keys=sort_keys) in
    pieces, where payload's ndarray values (1-d integer arrays) stand for
    lists of ints. Other values go through json.dumps whole; an array goes
    out _ARRAY_CHUNK elements at a time through the C encoder, so no list
    of all its elements is ever built. JSON strings hold no raw newline, so
    indenting a value's text one level deeper is a replace of "\n"."""
    item_sep = ", " if indent is None else ","
    outer = "" if indent is None else "\n" + " " * indent
    inner = "" if indent is None else outer + " " * indent
    keys = sorted(payload) if sort_keys else payload
    yield "{"
    for i, key in enumerate(keys):
        value = payload[key]
        yield f"{item_sep if i else ''}{outer}{json.dumps(key)}: "
        if not isinstance(value, np.ndarray):
            yield json.dumps(value, indent=indent, sort_keys=sort_keys).replace("\n", outer)
        elif not value.size:
            yield "[]"
        else:
            yield "["
            for start in range(0, value.size, _ARRAY_CHUNK):
                part = value[start:start + _ARRAY_CHUNK].tolist()
                text = json.dumps(part, separators=(item_sep + inner, ": "))[1:-1]
                yield f"{item_sep if start else ''}{inner}{text}"
            yield f"{outer}]"
    yield ("" if indent is None else "\n") + "}"


def init_student(input_dim: int, hidden_dims, num_classes: int, seed: int) -> nn.MlpModel:
    dims = (int(input_dim), *(int(h) for h in hidden_dims), int(num_classes))
    return nn.init_mlp(dims, np.random.default_rng([seed, 0]))


def _train_epoch(stack, vel, buffers, runs, store, active, blends, tcfg, lr,
                 stage: int, epoch: int) -> np.ndarray:
    """One epoch of a lockstep group: run k shuffles its active[k], which
    must be ascending, and distills against the store's read-only teacher
    probs with blends[k] applied: None, or (aug_at, aug_probs), where
    aug_at[i] is -1 or the row of aug_probs that replaces sample i's, so a
    blend takes O(N + aug * C), not a copy of the N x C matrix. Each chunk of
    whole batches of the order (at most _EPOCH_CHUNK_BYTES of feature and
    teacher rows per run, and at least one batch) is gathered once, each
    blend overwrites its rows in it once, and every batch is one stacked
    step over views of the chunk, written into buffers (nn.StepBuffers).
    Returns each run's mean loss. A run that keeps a ValueState records each
    trained sample's temperature-1 prediction entropy in it, which the step
    writes (nn.loss_and_grads's entropy_out); when no run keeps one, none is
    made.

    The entropies are folded into the value state once, after the last
    batch. That gives the same values as folding after every batch: an id
    occurs at most once per epoch, so each sample's running-mean update sees
    the same prior state either way, and values are read only at stage
    boundaries, never inside an epoch.
    """
    order = np.stack([ids[run.train_rng.permutation(ids.size)]
                      for run, ids in zip(runs, active)])
    unstacked = stack.params.ndim == 1  # a group of one
    reads = any(run.values is not None for run in runs)
    entropies = np.empty(order.shape) if reads else None
    step_entropies = entropies[0] if reads and unstacked else entropies
    totals = np.zeros(len(runs))
    row_bytes = (store.features.itemsize * store.dim
                 + store.teacher_probs.itemsize * store.num_classes)
    chunk = tcfg.batch_size * max(1, _EPOCH_CHUNK_BYTES // (row_bytes * tcfg.batch_size))
    for lo in range(0, order.shape[1], chunk):
        ids = order[:, lo:lo + chunk]
        rows = ids[0] if unstacked else ids
        # take gathers rows several times faster than fancy indexing, same values
        features = store.features.take(rows, axis=0)
        targets = store.teacher_probs.take(rows, axis=0)
        hard = store.hard_labels.take(rows, axis=0) if tcfg.hard_label_weight > 0.0 else None
        for k, blend in enumerate(blends):
            if blend is not None:
                at = blend[0].take(ids[k])
                pos = np.flatnonzero(at >= 0)
                (targets if unstacked else targets[k])[pos] = blend[1].take(at[pos], axis=0)
        for start in range(0, ids.shape[1], tcfg.batch_size):
            batch = slice(start, start + tcfg.batch_size)
            loss, grad, probs_1 = nn.loss_and_grads(
                stack, features[..., batch, :], targets[..., batch, :], tcfg.temperature,
                None if hard is None else hard[..., batch], tcfg.hard_label_weight,
                step_entropies[..., lo:][..., batch] if reads else None, buffers)
            if not np.isfinite(loss).all():
                bad = runs[int(np.argmin(np.isfinite(loss)))]
                raise DistillationError(
                    f"{bad.name}: non-finite training loss at stage {stage}, epoch {epoch}")
            try:
                nn.sgd_step(stack, grad, vel, lr, tcfg, buffers)
            except FloatingPointError as exc:
                bad = runs[exc.index[0] if exc.index else 0]
                raise DistillationError(f"{bad.name}: stage {stage}, epoch {epoch}: {exc}") from None
            totals += loss * probs_1.shape[-2]
        del features, targets, hard  # one chunk alive at a time, not two
    for k, run in enumerate(runs):
        if run.values is not None:
            ogve.observe_batch(run.values, order[k], entropies[k])
    return totals / order.shape[1]


class _Run:
    """One run of a group: what its stage labeling and condenser read (store,
    values, config, select_rng, fixed) and what its record collects."""

    def __init__(self, store: KnowledgeStore, config: DistillConfig, student: nn.MlpModel,
                 method: str, fixed: ValueLabeling | None = None):
        self.store, self.config, self.student, self.method, self.fixed = (
            store, config, student, method, fixed)
        self.label, self.condense, value_state = _METHODS[method]
        self.sizes = _stage_sizes(store.n, method, config.schedule, fixed)
        self.values = value_state(store.n) if value_state else None
        self.select_rng = np.random.default_rng([config.seed, 2])
        self.train_rng = np.random.default_rng([config.seed, 1])
        self.name = f"{method} seed {config.seed}"
        self.epochs: list[EpochRow] = []
        self.stages: list[StageRecord] = []
        self.labels, self.ranks = np.ones(store.n, dtype=np.uint8), None

    def stage(self, s: int):
        """Active ids (ascending), blend (see _train_epoch), rank threshold
        and blended count, once _check_boundary has passed the stage."""
        n = self.store.n
        if self.label is None:
            return np.arange(n), None, 1.0 / n, 0
        labeling = self.label(self, self.config.schedule.tau_list[s - 1])
        # condense first: the kept ids need not live beside its gathers
        condensed = None if self.condense is None else self.condense(self, labeling)
        blend = _check_boundary(self, s, labeling, condensed)
        active = vaks.direct_selection(labeling)
        self.labels, self.ranks = labeling.labels, labeling.ranks
        # 1 - r/N for the largest kept rank r: 1 - (keep_count(n, tau_s) - 1)/N
        # when the labeling follows the schedule
        threshold = 1.0 - self.ranks[active].max() / n
        return active, blend, threshold, 0 if blend is None else blend[1].shape[0]


def _check_boundary(run: _Run, s: int, labeling: ValueLabeling, condensed):
    """Check stage s's hand-over in O(N): the labeling keeps the planned count,
    and the blend (aug_ids, aug_probs), if any, blends distinct kept samples
    with one aug_probs row each, on the simplex. Returns it in _train_epoch's
    form."""
    labels, planned = labeling.labels, run.sizes[s - 1]
    kept = int(np.count_nonzero(labels))
    try:
        if kept != planned:
            raise ValueError(f"the labeling keeps {kept} samples, the stage plans {planned}")
        if condensed is None:
            return None
        aug, aug_probs = condensed
        if aug.size and (aug.min() < 0 or aug.max() >= labels.size or not labels[aug].all()):
            raise ValueError("a blended id is not a kept sample")
        if np.bincount(aug).max(initial=0) > 1:
            raise ValueError("a blended id repeats")
        if len(aug_probs) != aug.size:
            raise ValueError(f"aug_probs has {len(aug_probs)} rows for {aug.size} blended ids")
        check_simplex(aug_probs, lambda j: f"the blended row of sample {aug[j]}")
    except ValueError as exc:
        raise DistillationError(f"{run.name}: stage {s}: {exc}") from None
    aug_at = np.full(labels.size, -1)
    aug_at[aug] = np.arange(aug.size)
    return (aug_at, aug_probs) if aug.size else None


def _by_value(run, tau, alpha=None):
    return ogve.label_by_ratio(run.values, run.config.alpha if alpha is None else alpha, tau)


def _at_random(run, tau):
    return ogve.labeling_from_ranks(ogve.ranks_from_scores(run.select_rng.random(run.store.n)), tau)


def _imported(run, tau):
    return run.fixed


def _summary(run, labeling, constant_eps=False):
    return vaks.condense(labeling, run.store, run.config.eps_m, constant_eps=constant_eps)


# method -> (stage labeling(run, tau), or None to keep every sample; the
# condenser(run, labeling) that blends the kept set, or None to train it on its
# original soft labels; the run's ValueState(n), or None to keep none). The
# one registry: a row added here trains. Rows that import their labeling are
# the reuse-<mode> rows; the others, in this order, are ALL_METHODS, which
# orders a sweep's rows.
_METHODS = {
    METHOD_KCD: (_by_value, _summary, ogve.ValueState),
    METHOD_FULL_KD: (None, None, None),
    METHOD_RANDOM: (_at_random, None, None),
    METHOD_OGVE_ONLY: (_by_value, None, ogve.ValueState),
    METHOD_NO_OVR: (_by_value, None, partial(ogve.ValueState, latest=True)),
    METHOD_NO_CAR: (partial(_by_value, alpha=0.0), None, ogve.ValueState),
    METHOD_FIXED_EPS: (_by_value, partial(_summary, constant_eps=True), ogve.ValueState),
    "reuse-direct-select": (_imported, None, None),
    "reuse-with-vaks": (_imported, _summary, None),
}


def _method_names(imported: bool) -> tuple[str, ...]:
    return tuple(m for m, row in _METHODS.items() if (row[0] is _imported) == imported)


ALL_METHODS = _method_names(False)
REUSE_MODES = tuple(m.removeprefix("reuse-") for m in _method_names(True))


# each step checks its own loss and gradient, so numpy's overflow and
# invalid-value warnings would only repeat the DistillationError
@np.errstate(over="ignore", invalid="ignore")
def _execute(store: KnowledgeStore, dataset: Dataset, runs: list[_Run]) -> list[tuple]:
    """The stage loop for a group of runs that share a shape_key. Returns a
    (trained parameters, record) pair per run and leaves every run's student
    as it was; wall_time_s is the group's."""
    started = time.perf_counter()
    sched, tcfg, n = runs[0].config.schedule, runs[0].config.train, store.n
    # a group of one trains an unstacked copy: as a stack of one, a train step
    # at batch 512 took 1.01-1.03x as long, and a lone big-store run 1.00x
    # (kcd) to 1.02x (ogve-only), on one CPU
    stack = runs[0].student.copy() if len(runs) == 1 else nn.stack_models(
        [r.student for r in runs])
    vel, buffers = np.zeros_like(stack.params), nn.StepBuffers(stack, min(tcfg.batch_size, n))
    test_x, test_y = dataset.test_features, dataset.test_labels

    def run_epochs(count, active, blends, stage_no):
        for _ in range(count):
            epoch = len(runs[0].epochs) + 1
            losses = _train_epoch(stack, vel, buffers, runs, store, active, blends, tcfg,
                                  nn.lr_at_epoch(tcfg, epoch), stage_no, epoch)
            accs = np.atleast_1d(accuracy(stack, test_x, test_y))
            for run, loss, acc in zip(runs, losses, accs):
                run.epochs.append(EpochRow(epoch, stage_no, active[0].size,
                                           float(loss), float(acc)))

    # warm-up: one full-set epoch belonging to stage 1
    run_epochs(1, [np.arange(n)] * len(runs), [None] * len(runs), 1)
    for s in range(1, sched.stage_count + 1):
        active, blends, thresholds, aug_counts = zip(*(run.stage(s) for run in runs))
        run_epochs(sched.stage_len - 1 if s == 1 else sched.stage_len, active, blends, s)
        size = active[0].size
        for run, threshold, aug_count in zip(runs, thresholds, aug_counts):
            run.stages.append(StageRecord(
                stage=s, tau=float(run.config.schedule.tau_list[s - 1]),
                threshold=float(threshold), set_size=int(size),
                high_count=int(size - aug_count), aug_count=int(aug_count),
                accuracy=run.epochs[-1].eval_accuracy,
                label_digest=hashlib.sha256(run.labels.tobytes()).hexdigest(),
            ))

    wall = time.perf_counter() - started
    forward_count = sum(row.active_size for row in runs[0].epochs)
    realized = forward_count / (n * sched.total_epochs)
    results = []
    for run, params in zip(runs, stack.params.reshape(len(runs), -1)):
        trained = nn.MlpModel(run.student.layer_dims, params)
        # keeping every sample or an imported labeling ignores the tau schedule
        ideal = realized if run.label in (None, _imported) else relative_cost(
            run.config.schedule.tau_list)
        results.append((params, RunRecord(
            method=run.method, seed=run.config.seed, config=run.config.echo(),
            stages=run.stages, epochs=run.epochs,
            cost=CostReport(int(forward_count), float(ideal), float(realized)),
            final_accuracy=float(run.epochs[-1].eval_accuracy),
            final_labels=run.labels,
            final_ranks=() if run.ranks is None else run.ranks,
            student_dims=[int(d) for d in run.student.layer_dims],
            param_digest=hashlib.sha256(trained.param_bytes()).hexdigest(),
            wall_time_s=wall,
        )))
    return results


class Job(NamedTuple):
    """One run for run_group: method is a _METHODS row, labeling the imported
    labeling of a reuse row."""

    config: DistillConfig
    student: nn.MlpModel
    method: str
    labeling: ValueLabeling | None = None


def _stage_sizes(n: int, method: str, sched: ScheduleConfig, labeling) -> tuple[int, ...]:
    """The number of samples each stage keeps: N for full-kd, the imported
    kept count for reuse rows, keep_count(N, tau_s) otherwise."""
    label = _METHODS[method][0]
    if label is None:
        return (n,) * sched.stage_count
    if label is _imported:
        return (int(np.count_nonzero(labeling.labels)),) * sched.stage_count
    return tuple(ogve.keep_count(n, tau) for tau in sched.tau_list)


def _shape_key(store: KnowledgeStore, job: Job) -> tuple:
    """Jobs with equal keys on one store can train in lockstep."""
    sched = job.config.schedule
    return (sched.total_epochs, sched.stage_len, astuple(job.config.train),
            tuple(job.student.layer_dims),
            _stage_sizes(store.n, job.method, sched, job.labeling))


def run_group(store: KnowledgeStore, dataset: Dataset, jobs) -> list:
    """Train any list of Jobs; returns a (student, record) pair per job, in
    job order, each student holding its trained parameters.

    Every job is checked against _METHODS as it stands and before any run
    starts: only a reuse row takes a labeling, and one must, a hard-label
    weight needs a store with hard labels, a student takes the store's
    feature and class counts, and no two jobs share one student object. Jobs
    with one _shape_key train in lockstep, in the chunks _chunks cuts, which
    _pool_map spreads over worker processes. Students take their trained
    parameters only after every chunk has returned, so a failing job leaves
    every student as it was, on any CPU count. Records and parameters are
    bit-identical to training each job alone.
    """
    jobs = [Job(*job) for job in jobs]
    groups: dict[tuple, list[int]] = {}
    owners: dict[int, tuple] = {}  # id(student) -> (index, name) of its first job
    for i, job in enumerate(jobs):
        row = _METHODS.get(job.method)
        if row is None or (job.labeling is None and row[0] is _imported):
            raise ValueError(f"unknown method {job.method!r}; "
                             f"expected one of {_method_names(False)}")
        name = f"{job.method} seed {job.config.seed}"
        if job.labeling is not None and row[0] is not _imported:
            raise ValueError(f"{name}: the method imports no labeling, but one was given")
        if job.labeling is not None and job.labeling.n != store.n:
            raise ValueError(f"{name}: label count {job.labeling.n} does not match store "
                             f"size {store.n}")
        if job.labeling is not None and not job.labeling.labels.any():
            raise ValueError(f"{name}: the imported labeling keeps no sample, "
                             "an empty knowledge set")
        if job.config.train.hard_label_weight > 0.0 and store.hard_labels is None:
            raise ValueError(f"{name}: hard_label_weight > 0 needs a store with hard labels")
        dims = job.student.layer_dims
        if (dims[0], dims[-1]) != (store.dim, store.num_classes):
            raise ValueError(f"{name}: student dims {dims} do not fit the store's "
                             f"{store.dim} features and {store.num_classes} classes")
        first, first_name = owners.setdefault(id(job.student), (i, name))
        if first != i:
            raise ValueError(f"job {first} ({first_name}) and job {i} ({name}) share "
                             "one student object")
        groups.setdefault(_shape_key(store, job), []).append(i)
    chunks = _chunks(groups, _usable_cpus())
    got = _pool_map(_train_chunk, [[jobs[i] for i in c] for c in chunks], (store, dataset))
    # every chunk has returned: only now may any student change
    trained = dict(zip((i for c in chunks for i in c), (t for g in got for t in g)))
    for i, job in enumerate(jobs):
        job.student.params[...] = trained[i][0]
    return [(job.student, trained[i][1]) for i, job in enumerate(jobs)]


def _chunks(groups: dict[tuple, list[int]], cpus: int) -> list[list[int]]:
    """The job indices of the shape groups (key -> indices) cut into chunks,
    largest first. A chunk's work is its run count times the sum of its
    group's stage sizes, the key's last element. From whole groups, the
    largest chunk of two or more runs is halved while it holds more than
    1/cpus of the total work: a stack trains faster whole than in parts,
    so a group splits only to keep the workers busy. With one CPU nothing
    splits."""
    def work(chunk):
        size, ids = chunk
        return size * len(ids)

    chunks = [(sum(key[-1]), group) for key, group in groups.items()]
    total = sum(map(work, chunks))
    while True:
        big = max((c for c in chunks if len(c[1]) > 1), key=work, default=None)
        if big is None or work(big) * cpus <= total:
            break
        size, ids = chunks.pop(chunks.index(big))
        half = (len(ids) + 1) // 2
        chunks += [(size, ids[:half]), (size, ids[half:])]
    chunks.sort(key=work, reverse=True)
    return [ids for _, ids in chunks]


def _train_chunk(jobs, context) -> list:
    store, dataset = context
    return _execute(store, dataset, [_Run(store, *job) for job in jobs])


def _pool_map(fn, jobs, context) -> list:
    """[fn(job, context) for job in jobs] on a forked worker per usable CPU.

    Fork hands fn and context to the workers unpickled; jobs, results and a
    worker's exception are pickled back. With one usable CPU, one job, no
    fork start method or other live threads (forking a threaded process can
    deadlock the child) the jobs run here in turn.
    """
    jobs = list(jobs)
    workers = min(_usable_cpus(), len(jobs))
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return [fn(job, context) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(fn, context)) as pool:
        return list(pool.map(_call_in_worker, jobs, chunksize=1))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (fn, context) of a _pool_map worker process
_worker_task = None


def _init_worker(fn, context) -> None:
    global _worker_task
    _worker_task = (fn, context)


def _call_in_worker(job):
    fn, context = _worker_task
    return fn(job, context)


def run(config: DistillConfig, store: KnowledgeStore, student: nn.MlpModel,
        dataset: Dataset, method: str = METHOD_KCD):
    """One run of a method; every method shares the schedule and trainer.

    kcd ranks by value and summarizes the kept set; full-kd trains on the
    whole store; random-subset ranks at random; ogve-only skips the summary;
    no-ovr ranks on the latest observation, not the running mean; no-car
    drops the frequency weight; fixed-eps blends the borderline slice at
    eps_m throughout. The store is only read: runs may share it across threads.
    """
    return run_group(store, dataset, [Job(config, student, method)])[0]


run_baseline = run


def run_with_fixed_labels(config: DistillConfig, store: KnowledgeStore,
                          student: nn.MlpModel, dataset: Dataset,
                          labeling: ValueLabeling, mode: str):
    """Retrain against an imported labeling applied at every stage (no value
    estimation); mode picks plain selection or selection plus summary."""
    if mode not in REUSE_MODES:
        raise ValueError(f"unknown reuse mode {mode!r}; expected one of {REUSE_MODES}")
    return run_group(store, dataset, [Job(config, student, f"reuse-{mode}", labeling)])[0]
