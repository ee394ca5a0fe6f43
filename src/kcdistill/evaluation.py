"""Run metrics and cross-run experiments: accuracy, label agreement, reuse,
and the keep-ratio sweep. Every run trains through emdriver.run_group;
accuracy is nn.accuracy."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from . import emdriver, nn
from .data import Dataset
from .knowledge import KnowledgeStore, ValueLabeling
from .nn import accuracy


def hamming_distance(labels_a, labels_b) -> int:
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError(f"label length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def reuse_run(labeling: ValueLabeling, config, store: KnowledgeStore,
              dataset: Dataset, mode: str, student: nn.MlpModel | None = None):
    """Retrain a fresh student against a previously exported labeling.

    direct-select trains on the kept samples with their original soft labels;
    with-vaks additionally blends the borderline slice each stage. Everything
    else (warm-up, stage structure, trainer) matches a standard run.
    """
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

    Every rho and every method is checked before any job is built. Each
    distinct run trains once, with a fresh init_student for its seed:
    full-kd keeps all N samples at any rho, and at rho 1.0 every scheduled
    method keeps all N at every stage and blends nothing, so one full-kd
    run per seed fills full-kd's rows at every rho and every method's row
    at rho 1.0. run_group trains the runs that share a shape key in
    lockstep: at one rho every scheduled method and seed keeps the same set
    sizes. Rows are bit-identical to one emdriver.run call per row.
    """
    schedules = {rho: replace(base_config.schedule, rho=rho) for rho in rho_grid}
    for method in methods:  # a row at rho 1.0 alone would train no run of its method
        if method not in emdriver.ALL_METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {emdriver.ALL_METHODS}")
    grid = list(itertools.product(rho_grid, seeds, methods))
    jobs: dict[tuple, emdriver.Job] = {}
    for rho, seed, method in grid:
        key = _sweep_key(rho, seed, method)
        if key not in jobs:
            jobs[key] = emdriver.Job(
                replace(base_config, schedule=schedules[rho], seed=seed),
                emdriver.init_student(store.dim, student_hidden, store.num_classes, seed),
                key[2])
    trained = emdriver.run_group(store, dataset, list(jobs.values()))
    records = {key: record for key, (_, record) in zip(jobs, trained)}
    rows = []
    for rho, seed, method in grid:
        record = records[_sweep_key(rho, seed, method)]
        rows.append({
            "rho": rho,
            "seed": seed,
            "method": method,
            "accuracy": record.final_accuracy,
            "relative_cost": record.cost.relative_cost,
            "realized_relative_cost": record.cost.realized_relative_cost,
        })
    return rows


def _sweep_key(rho, seed, method) -> tuple:
    """The (rho, seed, method) of the run that fills a sweep row: full-kd's
    does not depend on rho, and at rho 1.0 every method's row is full-kd's."""
    if method == emdriver.METHOD_FULL_KD or rho == 1.0:
        return (None, seed, emdriver.METHOD_FULL_KD)
    return (rho, seed, method)


def sweep_rows_to_csv(rows) -> str:
    lines = ["rho,seed,method,accuracy,relative_cost,realized_relative_cost"]
    lines += [f"{r['rho']},{r['seed']},{r['method']},{r['accuracy']:.10g},"
              f"{r['relative_cost']:.10g},{r['realized_relative_cost']:.10g}" for r in rows]
    return "\n".join(lines) + "\n"
