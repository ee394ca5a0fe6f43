"""Run metrics and cross-run experiments: accuracy, label agreement, reuse,
and the keep-ratio sweep."""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import nn
from .data import Dataset
from .knowledge import KnowledgeStore, ValueLabeling


def accuracy(model: nn.MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions on a frozen model."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty split")
    predictions = np.argmax(nn.forward(model, x), axis=1)
    return float(np.mean(predictions == y))


def hamming_distance(labels_a, labels_b) -> int:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError(f"label length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def hamming_matrix(label_sets: list[np.ndarray]) -> np.ndarray:
    """Pairwise label disagreement counts across runs."""
    k = len(label_sets)
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = hamming_distance(label_sets[i], label_sets[j])
    return out


def reuse_run(labeling: ValueLabeling, config, store: KnowledgeStore,
              dataset: Dataset, mode: str, student: nn.MlpModel | None = None):
    """Retrain a fresh student against a previously exported labeling.

    direct-select trains on the kept samples with their original soft labels;
    with-vaks additionally blends the borderline slice each stage. Everything
    else (warm-up, stage structure, trainer) matches a standard run.
    """
    from . import emdriver

    if student is None:
        student = emdriver.init_student(store.dim, nn.DEFAULT_STUDENT_HIDDEN,
                                        store.num_classes, config.seed)
    return emdriver.run_with_fixed_labels(config, store, student, dataset, labeling, mode)


DEFAULT_RHO_GRID = (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def ratio_sweep(store: KnowledgeStore, dataset: Dataset, base_config, student_hidden,
                rho_grid=DEFAULT_RHO_GRID, seeds=range(5), methods=("kcd", "random-subset")):
    """Accuracy versus final keep ratio for each method, over paired seeds.

    Returns one dict per (rho, seed, method) with accuracy and cost fields,
    ready to serialize as CSV rows, in rho, then seed, then method order.

    Every method and rho is checked before any run starts. Runs only read
    the store and keep their own value state and generators, so _pool_map
    spreads them over worker processes with bit-identical rows.
    """
    from . import emdriver

    rho_grid, seeds, methods = tuple(rho_grid), tuple(seeds), tuple(methods)
    for method in methods:
        if method not in emdriver.ALL_METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {emdriver.ALL_METHODS}")
    for rho in rho_grid:
        emdriver.tau_schedule(rho, base_config.schedule.stage_count)
    jobs = [(rho, seed, method) for rho in rho_grid for seed in seeds for method in methods]
    return _pool_map(_sweep_row, jobs, (store, dataset, base_config, student_hidden))


def _sweep_row(job, context) -> dict:
    """Run one (rho, seed, method) job of ratio_sweep and return its row."""
    from . import emdriver

    store, dataset, base_config, student_hidden = context
    rho, seed, method = job
    schedule = emdriver.ScheduleConfig(
        total_epochs=base_config.schedule.total_epochs,
        stage_len=base_config.schedule.stage_len,
        rho=rho,
    )
    config = emdriver.DistillConfig(
        schedule=schedule, ogve=base_config.ogve,
        eps_m=base_config.eps_m, train=base_config.train, seed=seed,
    )
    student = emdriver.init_student(store.dim, student_hidden, store.num_classes, seed)
    _, record = emdriver.run_baseline(config, store, student, dataset, method)
    return {
        "rho": rho,
        "seed": seed,
        "method": method,
        "accuracy": record.final_accuracy,
        "relative_cost": record.cost.relative_cost,
        "realized_relative_cost": record.cost.realized_relative_cost,
    }


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


def sweep_rows_to_csv(rows) -> str:
    header = "rho,seed,method,accuracy,relative_cost,realized_relative_cost"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['rho']},{r['seed']},{r['method']},{r['accuracy']:.10g},"
            f"{r['relative_cost']:.10g},{r['realized_relative_cost']:.10g}"
        )
    return "\n".join(lines) + "\n"
