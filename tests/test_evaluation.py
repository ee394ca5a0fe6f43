import multiprocessing
import os
import threading

import numpy as np
import pytest

from kcdistill import emdriver, ogve
from kcdistill.data import DataFormatError
from kcdistill.emdriver import (
    DistillConfig,
    DistillationError,
    ScheduleConfig,
    _pool_map,
    init_student,
    run_baseline,
)
from kcdistill.evaluation import (
    accuracy,
    hamming_distance,
    ratio_sweep,
    reuse_run,
    sweep_rows_to_csv,
)
from kcdistill.nn import TrainConfig, init_mlp


class TestAccuracy:
    def test_uniform_model_near_chance(self):
        model = init_mlp((4, 6), 0)
        for w in model.weights:
            w[:] = 0.0
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1200, 4))
        y = rng.integers(0, 6, size=1200)
        acc = accuracy(model, x, y)
        # argmax of uniform rows is class 0; expected accuracy is the class-0
        # frequency, within 3 sigma binomial noise of 1/6
        p = 1 / 6
        assert abs(acc - p) <= 3 * np.sqrt(p * (1 - p) / 1200)

    def test_constant_predictor_matches_class_frequency(self):
        model = init_mlp((3, 4), 1)
        for w in model.weights:
            w[:] = 0.0
        model.biases[0][:] = [0.0, 5.0, 0.0, 0.0]  # always predicts class 1
        rng = np.random.default_rng(1)
        y = rng.integers(0, 4, size=500)
        x = rng.normal(size=(500, 3))
        oracle = float(np.mean(y == 1))
        assert accuracy(model, x, y) == oracle

    def test_empty_split_rejected(self):
        model = init_mlp((3, 2), 2)
        with pytest.raises(ValueError, match="empty split"):
            accuracy(model, np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestHamming:
    def test_identical_is_zero(self):
        assert hamming_distance([1, 0, 1], [1, 0, 1]) == 0

    def test_complementary_is_n(self):
        a = np.array([0, 1, 0, 1, 1])
        assert hamming_distance(a, 1 - a) == 5

    def test_example(self):
        assert hamming_distance([1, 1, 0, 0], [1, 0, 1, 0]) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming_distance([1, 0], [1, 0, 1])

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            a, b, c = (rng.integers(0, 2, size=n) for _ in range(3))
            dab = hamming_distance(a, b)
            dba = hamming_distance(b, a)
            assert dab == dba
            assert hamming_distance(a, a) == 0
            assert dab <= hamming_distance(a, c) + hamming_distance(c, b)


def small_config(seed=0, rho=0.7, epochs=12, stage_len=3):
    return DistillConfig(
        schedule=ScheduleConfig(epochs, stage_len, rho),
        alpha=0.03,
        train=TrainConfig.desk_default(epochs),
        seed=seed,
    )


class TestReuseRun:
    def test_reusing_all_ones_equals_full_kd(self, small_task):
        ds, store = small_task
        from kcdistill.knowledge import ValueLabeling

        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), labels=np.ones(n, dtype=np.uint8))
        student = init_student(store.dim, (8,), store.num_classes, 20)
        _, reuse_rec = reuse_run(labeling, small_config(seed=20), store, ds,
                                 "direct-select", student)
        full_student = init_student(store.dim, (8,), store.num_classes, 20)
        _, full_rec = run_baseline(small_config(seed=20), store, full_student, ds,
                                   "full-kd")
        assert reuse_rec.param_digest == full_rec.param_digest

    def test_own_labels_round_trip_through_serialization(self, small_task):
        ds, store = small_task
        from kcdistill import emdriver
        from kcdistill.knowledge import export_labels, import_labels

        student = init_student(store.dim, (8,), store.num_classes, 21)
        _, src = emdriver.run(small_config(seed=21), store, student, ds)
        labeling = import_labels(export_labels(src.final_labeling()))
        fresh = init_student(store.dim, (8,), store.num_classes, 22)
        _, rec = reuse_run(labeling, small_config(seed=22), store, ds, "with-vaks", fresh)
        assert rec.method == "reuse-with-vaks"
        assert all(s.set_size == src.stages[-1].set_size for s in rec.stages)

    def test_mode_validation(self, small_task):
        ds, store = small_task
        from kcdistill.knowledge import ValueLabeling

        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), labels=np.ones(n, dtype=np.uint8))
        with pytest.raises(ValueError, match="unknown reuse mode"):
            reuse_run(labeling, small_config(), store, ds, "telepathy")


class TestRatioSweep:
    def test_rows_cover_grid(self, small_task):
        ds, store = small_task
        rows = ratio_sweep(store, ds, small_config(), (8,),
                           rho_grid=(0.6, 1.0), seeds=range(2),
                           methods=("kcd", "full-kd"))
        assert len(rows) == 8
        assert {r["rho"] for r in rows} == {0.6, 1.0}
        assert {r["method"] for r in rows} == {"kcd", "full-kd"}
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 < row["relative_cost"] <= 1.0

    def test_csv_serialization(self, small_task):
        ds, store = small_task
        rows = ratio_sweep(store, ds, small_config(), (8,),
                           rho_grid=(1.0,), seeds=range(1), methods=("kcd",))
        text = sweep_rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("rho,seed,method,accuracy")
        assert len(lines) == 2


@pytest.fixture
def pools(monkeypatch):
    """Record the worker count of every process pool _pool_map builds."""
    made = []

    class RecordingPool(emdriver.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(emdriver, "ProcessPoolExecutor", RecordingPool)
    return made


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def pid_and_scaled(job, factor):
    return os.getpid(), job * factor


def fail_on_two(job, context):
    if job == 2:
        raise DistillationError(f"stage 2, epoch 7: seed {job} diverged")
    if job == 3:
        raise DataFormatError(f"bad magic in job {job} (byte offset 0)")
    return job


def spy_groups(monkeypatch) -> list:
    """Wrap emdriver._execute, in this process, to record the sorted (rho,
    method, seed) of each group it trains."""
    groups, real = [], emdriver._execute

    def spy(store, dataset, runs):
        groups.append(sorted((r.config.schedule.rho, r.method, r.config.seed) for r in runs))
        return real(store, dataset, runs)

    monkeypatch.setattr(emdriver, "_execute", spy)
    return groups


class TestParallelSweep:
    GRID = dict(rho_grid=(0.5, 1.0), seeds=(3, 4),
                methods=("kcd", "full-kd", "random-subset"))

    @pytest.mark.filterwarnings("error")
    def test_pool_rows_equal_serial_run_baseline_loop(self, small_task, pools, monkeypatch):
        ds, store = small_task
        usable_cpus(monkeypatch, 2)
        base = small_config()
        rows = ratio_sweep(store, ds, base, (8,), **self.GRID)
        assert pools == [2]
        assert rows == self.serial_rows(small_task)
        assert sweep_rows_to_csv(rows) == sweep_rows_to_csv(self.serial_rows(small_task))

    def test_one_cpu_runs_whole_groups_in_process(self, small_task, pools, monkeypatch):
        """With one usable CPU each shape group trains in one lockstep call,
        the most work first: kcd and random-subset at rho 0.5; then full-kd,
        once per seed (built at the grid's first rho), which also fills
        every row at rho 1.0."""
        ds, store = small_task
        usable_cpus(monkeypatch, 1)
        groups = spy_groups(monkeypatch)
        rows = ratio_sweep(store, ds, small_config(), (8,), **self.GRID)
        assert pools == []
        assert groups == [
            [(0.5, m, s) for m in ("kcd", "random-subset") for s in (3, 4)],
            [(0.5, "full-kd", s) for s in (3, 4)],
        ]
        assert rows == self.serial_rows(small_task)

    def test_every_method_at_rho_one_is_one_full_kd_run_per_seed(self, small_task, pools,
                                                                monkeypatch):
        """At rho 1.0 every scheduled method keeps all N samples at every
        stage and blends nothing, so one full-kd run per seed fills every
        method's row, and each row equals that method trained alone."""
        ds, store = small_task
        usable_cpus(monkeypatch, 1)
        groups = spy_groups(monkeypatch)
        grid = dict(rho_grid=(1.0,), seeds=(3, 4), methods=emdriver.ALL_METHODS)
        rows = ratio_sweep(store, ds, small_config(), (8,), **grid)
        assert groups == [[(1.0, "full-kd", 3), (1.0, "full-kd", 4)]]
        assert rows == self.serial_rows(small_task, grid)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_full_kd_trains_once_per_seed(self, small_task, pools, monkeypatch, tmp_path,
                                          cpus):
        """full-kd keeps every sample at any rho, so a sweep with full-kd at
        two rho trains each full-kd seed once, in process or in a worker,
        and its rows equal one run per row."""
        ds, store = small_task
        usable_cpus(monkeypatch, cpus)
        log, real = tmp_path / "runs.txt", emdriver._execute

        def spy(store, dataset, runs):
            with open(log, "a") as fh:  # one append per group, from any process
                fh.write("".join(f"{r.method} {r.config.seed}\n" for r in runs))
            return real(store, dataset, runs)

        monkeypatch.setattr(emdriver, "_execute", spy)
        rows = ratio_sweep(store, ds, small_config(), (8,), **self.GRID)
        assert pools == ([2] if cpus == 2 else [])
        trained = log.read_text().splitlines()
        assert sorted(t for t in trained if t.startswith("full-kd")) == ["full-kd 3",
                                                                         "full-kd 4"]
        assert len(trained) == 6  # 12 rows; every row at rho 1.0 reuses full-kd's runs
        assert rows == self.serial_rows(small_task)

    def test_pool_records_equal_lone_runs(self, small_task, pools, monkeypatch):
        """run_group on two shape groups, with one usable CPU and then two
        (students travel to the workers pickled), leaves each job's student
        holding the parameters of the same run trained alone and gives that
        run's record."""
        ds, store = small_task

        def jobs():
            return [emdriver.Job(small_config(seed=s, rho=0.5),
                                 init_student(store.dim, (8,), store.num_classes, s), m)
                    for m in ("kcd", "no-ovr", "full-kd") for s in (3, 4)]

        alone = [run_baseline(j.config, store, j.student, ds, j.method) for j in jobs()]
        for cpus, made in ((1, []), (2, [2])):
            usable_cpus(monkeypatch, cpus)
            group = jobs()
            trained = emdriver.run_group(store, ds, group)
            assert pools == made
            for j, (student, record), (alone_student, alone_record) in zip(group, trained, alone):
                assert student is j.student
                assert student.params.tobytes() == alone_student.params.tobytes()
                assert record.fingerprint() == alone_record.fingerprint()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_row_added_to_the_table_sweeps(self, small_task, pools, monkeypatch, cpus):
        """A control registered after import, here the value ranking read
        backwards, sweeps: each row equals a lone run of its (rho, seed,
        method), and its rows at rho 1.0 equal full-kd's."""
        ds, store = small_task
        usable_cpus(monkeypatch, cpus)

        def reversed_ranks(run, tau):
            ranks = ogve.rank(run.values, run.config.alpha)
            return ogve.labeling_from_ranks(run.store.n - 1 - ranks, tau)

        monkeypatch.setitem(emdriver._METHODS, "reversed",
                            (reversed_ranks, None, ogve.ValueState))
        grid = dict(rho_grid=(0.5, 1.0), seeds=(3, 4), methods=("kcd", "reversed"))
        rows = ratio_sweep(store, ds, small_config(), (8,), **grid)
        assert len(rows) == 8
        assert rows == self.serial_rows(small_task, grid)
        full_kd = self.serial_rows(small_task, dict(grid, methods=("full-kd",)))
        assert [{**r, "method": "full-kd"} for r in rows
                if r["method"] == "reversed" and r["rho"] == 1.0] == full_kd[2:]

    def serial_rows(self, small_task, grid=GRID):
        ds, store = small_task
        expected = []
        for rho in grid["rho_grid"]:
            for seed in grid["seeds"]:
                for method in grid["methods"]:
                    config = small_config(seed=seed, rho=rho)
                    student = init_student(store.dim, (8,), store.num_classes, seed)
                    _, record = run_baseline(config, store, student, ds, method)
                    expected.append({
                        "rho": rho, "seed": seed, "method": method,
                        "accuracy": record.final_accuracy,
                        "relative_cost": record.cost.relative_cost,
                        "realized_relative_cost": record.cost.realized_relative_cost,
                    })
        return expected

    def test_one_cpu_builds_no_pool(self, pools, monkeypatch):
        usable_cpus(monkeypatch, 1)
        results = _pool_map(pid_and_scaled, [1, 2, 3], 10)
        assert pools == []
        assert results == [(os.getpid(), 10), (os.getpid(), 20), (os.getpid(), 30)]

    def test_two_cpus_map_in_order_in_workers(self, pools, monkeypatch):
        usable_cpus(monkeypatch, 2)
        results = _pool_map(pid_and_scaled, range(6), 10)
        assert pools == [2]
        assert [r for _, r in results] == [0, 10, 20, 30, 40, 50]
        assert os.getpid() not in {pid for pid, _ in results}

    @pytest.mark.parametrize("fallback", ["one job", "no fork", "live thread"])
    def test_fallbacks_run_in_process(self, pools, monkeypatch, fallback):
        usable_cpus(monkeypatch, 2)
        jobs = [1] if fallback == "one job" else [1, 2]
        if fallback == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, daemon=True)
        if fallback == "live thread":
            waiter.start()
        try:
            results = _pool_map(pid_and_scaled, jobs, 1)
        finally:
            release.set()
            if fallback == "live thread":
                # alive in a later test, it would make that _pool_map run in process
                waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert pools == []
        assert results == [(os.getpid(), job) for job in jobs]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(methods=("kcd", "telepathy")), "unknown method 'telepathy'"),
        (dict(rho_grid=(1.0,), methods=("kcd", "telepathy")), "unknown method 'telepathy'"),
        (dict(rho_grid=(0.5, 1.5)), r"rho must be in \(0, 1\], got 1.5"),
        (dict(rho_grid=(0.0,)), r"rho must be in \(0, 1\], got 0.0"),
    ])
    def test_bad_method_or_rho_raises_before_any_run(self, small_task, pools, monkeypatch,
                                                     kwargs, message):
        ds, store = small_task
        usable_cpus(monkeypatch, 2)

        def no_run(*args):
            raise AssertionError("a run started before validation")

        monkeypatch.setattr(emdriver, "_execute", no_run)
        monkeypatch.setattr(emdriver, "_pool_map", no_run)
        grid = {**dict(rho_grid=(0.5,), seeds=(0,), methods=("kcd",)), **kwargs}
        with pytest.raises(ValueError, match=message):
            ratio_sweep(store, ds, small_config(), (8,), **grid)
        assert pools == []

    def test_a_bad_rho_raises_when_only_full_kd_runs(self, small_task, pools, monkeypatch):
        """full-kd trains once per seed whatever the grid, yet every rho is
        still checked before any run."""
        ds, store = small_task
        usable_cpus(monkeypatch, 2)
        groups = spy_groups(monkeypatch)
        with pytest.raises(ValueError, match=r"rho must be in \(0, 1\], got 1.5"):
            ratio_sweep(store, ds, small_config(), (8,), rho_grid=(0.5, 1.5), seeds=(0,),
                        methods=("full-kd",))
        assert groups == []
        assert pools == []

    def test_worker_error_reaches_caller(self, pools, monkeypatch):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(DistillationError, match="stage 2, epoch 7: seed 2 diverged"):
            _pool_map(fail_on_two, [1, 2], None)
        assert pools == [2]

    def test_label_stream_error_crosses_worker(self, pools, monkeypatch):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(DataFormatError) as caught:
            _pool_map(fail_on_two, [1, 3], None)
        assert pools == [2]
        assert type(caught.value) is DataFormatError
        assert str(caught.value) == "bad magic in job 3 (byte offset 0)"
