"""Run metrics and cross-run experiments: accuracy, label agreement, reuse,
and the keep-ratio sweep."""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import nn
from .data import Dataset
from .knowledge import KnowledgeStore, ValueLabeling


def accuracy(model: nn.MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions on a frozen model; one per
    model, as an array, for a stacked model."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty split")
    acc = np.mean(np.argmax(nn.forward(model, x), axis=-1) == y, axis=-1)
    return acc if acc.ndim else float(acc)


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

    Every method and rho is checked before any run starts. Each run gets a
    fresh init_student for its seed, and run_grouped trains the runs that
    share a shape key in lockstep: at one rho every scheduled method and
    seed keeps the same set sizes, and full-kd keeps N at any rho. Rows are
    bit-identical to one run_baseline call per job.
    """
    from . import emdriver

    rho_grid, seeds, methods = tuple(rho_grid), tuple(seeds), tuple(methods)
    for method in methods:
        if method not in emdriver.ALL_METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {emdriver.ALL_METHODS}")
    for rho in rho_grid:
        emdriver.tau_schedule(rho, base_config.schedule.stage_count)
    grid = [(rho, seed, method) for rho in rho_grid for seed in seeds for method in methods]
    jobs = [emdriver.Job(
        replace(base_config, schedule=replace(base_config.schedule, rho=rho), seed=seed),
        emdriver.init_student(store.dim, student_hidden, store.num_classes, seed), method)
        for rho, seed, method in grid]
    return [{
        "rho": rho,
        "seed": seed,
        "method": method,
        "accuracy": record.final_accuracy,
        "relative_cost": record.cost.relative_cost,
        "realized_relative_cost": record.cost.realized_relative_cost,
    } for (rho, seed, method), record in zip(grid, run_grouped(store, dataset, jobs))]


def run_grouped(store: KnowledgeStore, dataset: Dataset, jobs) -> list:
    """RunRecords of emdriver.Job tuples, in job order.

    Jobs with one emdriver.shape_key train in lockstep (emdriver.run_group).
    Each shape group splits into at most one chunk per usable CPU, and
    _pool_map spreads the chunks over worker processes; a student trained in
    a worker keeps its parameters there, only its record comes back.
    """
    from . import emdriver

    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        groups.setdefault(emdriver.shape_key(store, job), []).append(i)
    chunks = [chunk.tolist() for group in groups.values()
              for chunk in np.array_split(group, min(_usable_cpus(), len(group)))]
    got = _pool_map(_group_records, [[jobs[i] for i in c] for c in chunks], (store, dataset))
    by_job = dict(zip((i for c in chunks for i in c), (r for g in got for r in g)))
    return [by_job[i] for i in range(len(jobs))]


def _group_records(jobs, context) -> list:
    from . import emdriver

    return [record for _, record in emdriver.run_group(*context, jobs)]


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
