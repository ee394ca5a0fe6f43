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
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
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

    Each run gets a fresh init_student for its seed. A bad rho raises while
    the jobs are built and a bad method when emdriver.run_group checks them,
    both before any run starts. run_group trains the runs that share a shape
    key in lockstep: at one rho every scheduled method and seed keeps the
    same set sizes, and full-kd keeps N at any rho. Rows are bit-identical
    to one emdriver.run call per job.
    """
    grid = list(itertools.product(rho_grid, seeds, methods))
    jobs = [emdriver.Job(
        replace(base_config, schedule=replace(base_config.schedule, rho=rho), seed=seed),
        emdriver.init_student(store.dim, student_hidden, store.num_classes, seed), method)
        for rho, seed, method in grid]
    trained = emdriver.run_group(store, dataset, jobs)
    return [{
        "rho": rho,
        "seed": seed,
        "method": method,
        "accuracy": record.final_accuracy,
        "relative_cost": record.cost.relative_cost,
        "realized_relative_cost": record.cost.realized_relative_cost,
    } for (rho, seed, method), (_, record) in zip(grid, trained)]


def sweep_rows_to_csv(rows) -> str:
    header = "rho,seed,method,accuracy,relative_cost,realized_relative_cost"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['rho']},{r['seed']},{r['method']},{r['accuracy']:.10g},"
            f"{r['relative_cost']:.10g},{r['realized_relative_cost']:.10g}"
        )
    return "\n".join(lines) + "\n"
