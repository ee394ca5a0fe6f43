import hashlib
import inspect
import json
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcdistill import emdriver, evaluation, nn, ogve, vaks
from kcdistill.emdriver import (
    ALL_METHODS,
    REUSE_MODES,
    DistillConfig,
    DistillationError,
    Job,
    RunRecord,
    ScheduleConfig,
    _shape_key,
    init_student,
    relative_cost,
    run,
    run_baseline,
    run_group,
    run_with_fixed_labels,
    tau_schedule,
)
from kcdistill.data import gen_gaussian_mixture
from kcdistill.knowledge import ValueLabeling, build_store
from kcdistill.nn import TrainConfig
from kcdistill.ogve import keep_count
from oracles import (
    TwoArrayValues,
    computation_ratio,
    rank_probability,
    ratio_threshold,
    record_bytes,
    record_dict,
    record_fingerprint,
)


def make_config(seed=0, rho=0.7, epochs=12, stage_len=3, alpha=0.03, eps_m=0.3,
                **train_overrides):
    return DistillConfig(
        schedule=ScheduleConfig(total_epochs=epochs, stage_len=stage_len, rho=rho),
        alpha=alpha,
        eps_m=eps_m,
        train=TrainConfig.desk_default(epochs, **train_overrides),
        seed=seed,
    )


def run_small(task, method="kcd", seed=0, **cfg_kwargs):
    ds, store = task
    config = make_config(seed=seed, **cfg_kwargs)
    student = init_student(store.dim, (8,), store.num_classes, seed)
    if method == "kcd":
        return run(config, store, student, ds)
    return run_baseline(config, store, student, ds, method)


def run_with_state(task, method="kcd", seed=0, **cfg_kwargs):
    """run_small through the stage loop with a ValueState the caller can read."""
    ds, store = task
    student = init_student(store.dim, (8,), store.num_classes, seed)
    run = emdriver._Run(store, make_config(seed=seed, **cfg_kwargs), student, method)
    [(_, record)] = emdriver._execute(store, ds, [run])
    return record, run.values


class TestTauSchedule:
    def test_first_stage_value(self):
        assert tau_schedule(0.7, 6)[0] == pytest.approx(0.9423, abs=1e-4)

    def test_last_stage_hits_rho_exactly(self):
        assert tau_schedule(0.7, 6)[-1] == 0.7

    def test_rho_one_degenerates(self):
        assert tau_schedule(1.0, 5) == [1.0] * 5

    def test_strictly_decreasing(self):
        taus = tau_schedule(0.55, 8)
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_rejects_bad_rho(self):
        for rho in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                tau_schedule(rho, 4)


class TestRelativeCost:
    def test_reference_operating_point(self):
        assert relative_cost(tau_schedule(0.7, 6)) == pytest.approx(0.8165, abs=5e-4)

    def test_rho_one_is_full_cost(self):
        assert relative_cost(tau_schedule(1.0, 6)) == 1.0

    def test_two_stage_geometric_oracle(self):
        taus = tau_schedule(0.5, 2)
        r = 0.5 ** 0.5
        oracle = r * (1 - r ** 2) / (1 - r) / 2  # geometric sum / S
        assert oracle == pytest.approx(0.60355, abs=1e-5)
        assert relative_cost(taus) == pytest.approx(oracle, rel=1e-12)

    def test_flop_weighted_ratio_cancels(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rho = float(rng.uniform(0.3, 1.0))
            stages = int(rng.integers(1, 9))
            taus = tau_schedule(rho, stages)
            f_t, f_s, b_s = rng.uniform(0.01, 1e9, size=3)
            got = computation_ratio(taus, stage_len=int(rng.integers(1, 50)),
                                    n_points=int(rng.integers(1, 10_000)),
                                    teacher_forward=f_t, student_forward=f_s,
                                    student_backward=b_s)
            assert got == pytest.approx(relative_cost(taus), rel=1e-12)

    def test_flop_ratio_rejects_nonpositive_costs(self):
        with pytest.raises(ValueError):
            computation_ratio([0.7], 10, 100, 0.0, 1.0, 1.0)


class TestScheduleConfig:
    def test_stage_len_must_divide(self):
        with pytest.raises(ValueError, match="T must divide I"):
            ScheduleConfig(total_epochs=240, stage_len=7)

    def test_tau_list_matches_function(self):
        sched = ScheduleConfig(60, 10, 0.7)
        assert list(sched.tau_list) == tau_schedule(0.7, 6)
        assert sched.stage_count == 6

    def test_rejects_rho_out_of_range(self):
        with pytest.raises(ValueError):
            ScheduleConfig(60, 10, 0.0)

    def test_config_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            DistillConfig(eps_m=-0.1)

    @pytest.mark.parametrize("config, field, value", [
        (DistillConfig, "eps_m", np.nan), (DistillConfig, "eps_m", np.inf),
        (DistillConfig, "alpha", np.nan), (DistillConfig, "alpha", np.inf),
        (DistillConfig, "alpha", -0.1),
        (partial(ogve.rank, ogve.ValueState(2)), "alpha", np.nan),
        (partial(ogve.rank, ogve.ValueState(2)), "alpha", np.inf),
        (partial(ogve.rank, ogve.ValueState(2)), "alpha", -0.1),
        (TrainConfig, "lr", np.nan), (TrainConfig, "lr", np.inf),
        (TrainConfig, "momentum", np.nan),
        (TrainConfig, "weight_decay", np.nan), (TrainConfig, "weight_decay", np.inf),
        (TrainConfig, "temperature", np.nan), (TrainConfig, "temperature", np.inf),
        (TrainConfig, "lr_decay_factor", np.nan), (TrainConfig, "lr_decay_factor", np.inf),
        (TrainConfig, "lr_decay_factor", -1.0),
        (TrainConfig, "hard_label_weight", np.nan),
    ])
    def test_configs_reject_non_finite_and_out_of_range_fields(self, config, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be .*, got {value}$"):
            config(**{field: value})


class TestRunMechanics:
    def test_epoch_accounting(self, small_task):
        _, record = run_small(small_task, epochs=12, stage_len=3)
        assert len(record.epochs) == 12
        assert [r.stage for r in record.epochs] == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
        assert record.epochs[0].active_size == small_task[1].n  # warm-up is full set

    def test_stage_sizes_follow_schedule(self, small_task):
        ds, store = small_task
        _, record = run_small(small_task, epochs=12, stage_len=3, rho=0.6)
        taus = tau_schedule(0.6, 4)
        expected = [keep_count(store.n, t) for t in taus]
        assert [s.set_size for s in record.stages] == expected

    def test_stage_sizes_non_increasing(self, small_task):
        _, record = run_small(small_task, epochs=20, stage_len=4, rho=0.5)
        sizes = [s.set_size for s in record.stages]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_absolute_cost_counting_oracle(self, small_task):
        ds, store = small_task
        _, record = run_small(small_task, epochs=12, stage_len=3, rho=0.7)
        taus = tau_schedule(0.7, 4)
        sizes = [keep_count(store.n, t) for t in taus]
        oracle = store.n + (3 - 1) * sizes[0] + 3 * sum(sizes[1:])
        assert record.cost.absolute_cost == oracle
        assert record.cost.realized_relative_cost == pytest.approx(
            oracle / (store.n * 12), rel=1e-12)

    def test_frequencies_count_training_passes(self, small_task):
        _, values = run_with_state(small_task, rho=1.0, epochs=12, stage_len=3)
        # with everything active every epoch, each sample is seen once per epoch
        assert np.all(values.frequencies == 12)

    def test_realized_cost_tracks_ideal_at_reference_point(self):
        # 1000-sample store, 240 epochs in 6 stages at rho 0.7: the realized
        # pass count stays within 0.1% of the ideal schedule cost
        from kcdistill.data import gen_gaussian_mixture
        from kcdistill.knowledge import build_store

        ds = gen_gaussian_mixture(5, 4, 250, 1.0, seed=40)
        rng = np.random.default_rng(41)
        probs = rng.dirichlet(np.ones(5), size=ds.train_labels.size)
        store = build_store(ds.train_features, probs, ds.train_labels)
        assert store.n == 1000
        config = DistillConfig(
            schedule=ScheduleConfig(240, 40, 0.7),
            train=TrainConfig.desk_default(240, batch_size=128),
            seed=0,
        )
        student = init_student(store.dim, (4,), store.num_classes, 0)
        _, record = run_baseline(config, store, student, ds, "kcd")
        taus = tau_schedule(0.7, 6)
        sizes = [keep_count(1000, t) for t in taus]
        oracle = 1000 + 39 * sizes[0] + 40 * sum(sizes[1:])
        assert record.cost.absolute_cost == oracle
        ideal = relative_cost(taus) * 1000 * 240
        assert abs(record.cost.absolute_cost - ideal) / ideal < 0.001

    def test_low_rho_exercises_borderline_clamp(self, small_task):
        ds, store = small_task
        _, record = run_small(small_task, epochs=12, stage_len=3, rho=0.3)
        last = record.stages[-1]
        assert last.set_size == keep_count(store.n, 0.3)
        # discarded set outnumbers the kept set, so every member is blended
        assert last.aug_count == last.set_size
        assert last.high_count == 0

    def test_determinism_same_seed(self, small_task):
        _, rec_a = run_small(small_task, seed=3)
        _, rec_b = run_small(small_task, seed=3)
        assert rec_a.fingerprint() == rec_b.fingerprint()
        assert rec_a.param_digest == rec_b.param_digest
        assert [e.train_loss for e in rec_a.epochs] == [e.train_loss for e in rec_b.epochs]

    def test_different_seeds_differ(self, small_task):
        _, rec_a = run_small(small_task, seed=3)
        _, rec_b = run_small(small_task, seed=4)
        assert rec_a.param_digest != rec_b.param_digest

    def test_non_finite_loss_aborts_with_context(self, small_task):
        with pytest.raises(DistillationError, match=r"stage \d+, epoch \d+"):
            run_small(small_task, lr=1e9, weight_decay=0.0)

    def test_unknown_method_rejected(self, small_task):
        ds, store = small_task
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="unknown method"):
            run_baseline(make_config(), store, student, ds, "mystery")
        # a reuse row is a method only with an imported labeling
        with pytest.raises(ValueError, match="unknown method 'reuse-with-vaks'; expected one"):
            run(make_config(), store, student, ds, method="reuse-with-vaks")

    def test_all_methods_run(self, small_task):
        for method in ALL_METHODS:
            _, record = run_small(small_task, method=method, epochs=8, stage_len=2)
            assert record.method == method
            assert 0.0 <= record.final_accuracy <= 1.0


class TestDegenerateEquivalence:
    def test_rho_one_matches_full_kd_bud_for_bit(self, small_task):
        _, kcd_rec = run_small(small_task, method="kcd", rho=1.0, seed=5)
        _, full_rec = run_small(small_task, method="full-kd", rho=1.0, seed=5)
        assert kcd_rec.param_digest == full_rec.param_digest
        assert [e.train_loss for e in kcd_rec.epochs] == [e.train_loss for e in full_rec.epochs]
        assert kcd_rec.cost.absolute_cost == full_rec.cost.absolute_cost

    def test_random_subset_rho_one_matches_full_kd(self, small_task):
        _, rand_rec = run_small(small_task, method="random-subset", rho=1.0, seed=6)
        _, full_rec = run_small(small_task, method="full-kd", rho=1.0, seed=6)
        assert rand_rec.param_digest == full_rec.param_digest

    def test_no_car_ranking_is_alpha_zero(self, small_task):
        # identical value state at the first boundary, so the first selection
        # must coincide; afterwards the runs train on different targets
        _, nocar = run_small(small_task, method="no-car", seed=7, alpha=0.03)
        _, kcd0 = run_small(small_task, method="kcd", seed=7, alpha=0.0)
        assert nocar.stages[0].label_digest == kcd0.stages[0].label_digest

    def test_no_car_scores_ignore_frequency(self, small_task):
        from kcdistill.ogve import cost_aware_scores

        _, values = run_with_state(small_task, seed=7)  # mixed frequencies
        scores = cost_aware_scores(values, 0.0)
        observed = values.frequencies > 0
        np.testing.assert_array_equal(scores[observed], values.values[observed])

    def test_ogve_only_has_no_augmented_members(self, small_task):
        _, record = run_small(small_task, method="ogve-only", seed=8)
        assert all(s.aug_count == 0 for s in record.stages)
        assert all(s.set_size == s.high_count for s in record.stages)


class TestFixedLabelRuns:
    def test_all_ones_labels_equal_full_kd(self, small_task):
        ds, store = small_task
        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), labels=np.ones(n, dtype=np.uint8))
        config = make_config(seed=9)
        student = init_student(store.dim, (8,), store.num_classes, 9)
        _, reuse_rec = run_with_fixed_labels(config, store, student, ds, labeling,
                                             "direct-select")
        _, full_rec = run_small(small_task, method="full-kd", seed=9)
        assert reuse_rec.param_digest == full_rec.param_digest

    def test_size_mismatch_rejected(self, small_task):
        ds, store = small_task
        labeling = ValueLabeling(ranks=np.arange(5), labels=np.ones(5, dtype=np.uint8))
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="does not match store size"):
            run_with_fixed_labels(make_config(), store, student, ds, labeling,
                                  "direct-select")

    def test_unknown_mode_rejected(self, small_task):
        ds, store = small_task
        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), labels=np.ones(n, dtype=np.uint8))
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="unknown reuse mode"):
            run_with_fixed_labels(make_config(), store, student, ds, labeling, "nope")

    def test_all_zero_labels_rejected(self, small_task, monkeypatch):
        """run_group's job checks refuse the labeling: no epoch trains."""
        ds, store = small_task
        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), labels=np.zeros(n, dtype=np.uint8))
        epochs = []
        real = emdriver._train_epoch
        monkeypatch.setattr(emdriver, "_train_epoch",
                            lambda *args: epochs.append(1) or real(*args))
        for mode in REUSE_MODES:
            with pytest.raises(ValueError, match=f"^reuse-{mode} seed 3: the imported "
                                                 "labeling keeps no sample, an empty "
                                                 "knowledge set$"):
                evaluation.reuse_run(labeling, make_config(seed=3), store, ds, mode)
        assert epochs == []

    def test_with_vaks_mode_blends_borderline(self, small_task):
        ds, store = small_task
        n = store.n
        rng = np.random.default_rng(10)
        ranks = rng.permutation(n)
        labels = (ranks < keep_count(n, 0.7)).astype(np.uint8)
        labeling = ValueLabeling(ranks=ranks, labels=labels)
        student = init_student(store.dim, (8,), store.num_classes, 11)
        _, record = run_with_fixed_labels(make_config(seed=11), store, student, ds,
                                          labeling, "with-vaks")
        assert record.method == "reuse-with-vaks"
        assert all(s.aug_count > 0 for s in record.stages)
        assert all(s.set_size == int(labels.sum()) for s in record.stages)


class TestStageThreshold:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.floats(0.0, 1.0, exclude_min=True),
           st.integers(0, 2 ** 32 - 1))
    def test_scheduled_stage_records_the_ratio_threshold(self, n, tau, seed):
        """A one-stage schedule with keep ratio tau ranks a random permutation
        of N samples; its threshold is the oracle's cutoff, exactly."""
        rng = np.random.default_rng(seed)
        store = build_store(rng.normal(size=(n, 2)), np.full((n, 2), 0.5))
        config = DistillConfig(schedule=ScheduleConfig(1, 1, tau), seed=seed)
        student = init_student(2, (3,), 2, seed)
        stage_run = emdriver._Run(store, config, student, emdriver.METHOD_RANDOM)
        _, _, threshold, _ = stage_run.stage(1)
        assert threshold == ratio_threshold(n, tau)

    def test_every_scheduled_method_records_the_ratio_threshold(self, small_task):
        ds, store = small_task
        methods = [m for m in ALL_METHODS if m != emdriver.METHOD_FULL_KD]
        config = make_config(seed=5, rho=0.55)
        jobs = [Job(config, init_student(store.dim, (8,), store.num_classes, 5), m)
                for m in methods]
        for _, record in run_group(store, ds, jobs):
            assert len(record.stages) == 4
            for stage in record.stages:
                assert stage.threshold == ratio_threshold(store.n, stage.tau)

    def test_imported_labeling_records_its_lowest_kept_rank_probability(self, small_task):
        ds, store = small_task
        n = store.n
        rng = np.random.default_rng(12)
        ranks = rng.permutation(n)
        labels = (rng.random(n) < 0.6).astype(np.uint8)  # not the top ranks
        labeling = ValueLabeling(ranks=ranks, labels=labels)
        student = init_student(store.dim, (8,), store.num_classes, 12)
        _, record = run_with_fixed_labels(make_config(seed=12), store, student, ds,
                                          labeling, "direct-select")
        lowest = rank_probability(ranks, n)[labels == 1].min()
        assert all(stage.threshold == lowest for stage in record.stages)


def synthetic_record(n: int, ranked: bool) -> RunRecord:
    """A record of n samples with a nested config holding NaN and inf, and
    an empty rank array (as full-kd's) when not ranked."""
    rng = np.random.default_rng(n)
    return RunRecord(
        method="kcd" if ranked else "full-kd", seed=3,
        config={"rho": 0.7, "train": {"lr": 0.1, "dims": [4, [8]], "empty": {}},
                "nan": float("nan"), "inf": float("-inf"), "note": "a\nb \u00e9"},
        stages=[emdriver.StageRecord(1, 0.9, 0.1, n, n, 0, 0.5, "ab" * 8)],
        epochs=[emdriver.EpochRow(1, 1, n, float("inf"), 0.5),
                emdriver.EpochRow(2, 1, n, 0.25, float("nan"))],
        cost=emdriver.CostReport(10 * n, 0.5, 0.51), final_accuracy=0.75,
        final_labels=rng.integers(0, 2, n),
        final_ranks=rng.permutation(n) if ranked else (),
        student_dims=[4, 8, 3], param_digest="ff" * 32, wall_time_s=1.5)


class TestRunRecord:
    @pytest.mark.parametrize("method", ["kcd", "full-kd"])
    def test_label_and_rank_fields_are_arrays_the_record_owns(self, small_task, method):
        record, _ = run_with_state(small_task, method=method, seed=20)
        n = small_task[1].n
        assert record.final_labels.dtype == np.uint8 and record.final_labels.shape == (n,)
        assert record.final_ranks.dtype == np.int64
        assert record.final_ranks.shape == ((0,) if method == "full-kd" else (n,))

    def test_record_arrays_share_no_memory_with_the_run_or_an_imported_labeling(
            self, small_task):
        ds, store = small_task
        student = init_student(store.dim, (8,), store.num_classes, 21)
        run_ = emdriver._Run(store, make_config(seed=21), student, "kcd")
        [(_, record)] = emdriver._execute(store, ds, [run_])
        assert not np.shares_memory(record.final_labels, run_.labels)
        assert not np.shares_memory(record.final_ranks, run_.ranks)
        labeling = record.final_labeling()
        for mode in REUSE_MODES:
            _, reused = run_with_fixed_labels(make_config(seed=22), store,
                                              init_student(store.dim, (8,), store.num_classes, 22),
                                              ds, labeling, mode)
            assert not np.shares_memory(reused.final_labels, labeling.labels)
            assert not np.shares_memory(reused.final_ranks, labeling.ranks)
            assert reused.final_ranks.tobytes() == labeling.ranks.tobytes()

    @pytest.mark.parametrize("method", ["kcd", "full-kd"])
    def test_load_of_save_gives_arrays_and_the_same_fingerprint(self, small_task, tmp_path,
                                                                method):
        _, record = run_small(small_task, method=method, seed=23)
        record.save(tmp_path / "record.json")
        again = RunRecord.load(tmp_path / "record.json")
        for name in ("final_labels", "final_ranks"):
            got, want = getattr(again, name), getattr(record, name)
            assert type(got) is np.ndarray and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert again.fingerprint() == record.fingerprint()

    def test_json_round_trip(self, small_task, tmp_path):
        _, record = run_small(small_task, seed=12)
        path = tmp_path / "record.json"
        record.save(path)
        again = RunRecord.load(path)
        assert again.fingerprint() == record.fingerprint()
        assert again.cost == record.cost

    @pytest.mark.parametrize("method", ["kcd", "full-kd"])
    def test_list_fields_are_plain_ints_with_unchanged_fingerprint(self, small_task, tmp_path,
                                                                    method):
        _, record = run_small(small_task, method=method, seed=17)
        record.save(tmp_path / "record.json")
        out = json.loads((tmp_path / "record.json").read_text())
        labels, ranks = out["final_labels"], out["final_ranks"]
        assert all(type(v) is int for v in labels + ranks + out["student_dims"])
        # the lists as an element-wise int() over the run's arrays built them
        # when the record held lists; the fingerprint hashes that dict
        old = dict(out, final_labels=[int(v) for v in record.final_labels],
                   final_ranks=[int(v) for v in record.final_ranks])
        assert json.dumps(old) == json.dumps(out)
        old.pop("wall_time_s")
        digest = hashlib.sha256(json.dumps(old, sort_keys=True).encode()).hexdigest()
        assert digest == record.fingerprint()

    def test_mutating_the_dict_leaves_the_record(self, small_task):
        """record_dict, the payload the from_dict tests edit, is a deep copy."""
        _, record = run_small(small_task, seed=18)
        fingerprint = record.fingerprint()
        before = record_dict(record)
        arrays = record.final_labels.tobytes(), record.final_ranks.tobytes()
        out = record_dict(record)
        for key in ("final_labels", "final_ranks", "student_dims"):
            out[key][0] += 1
            out[key].append(7)
        out["config"]["seed"] = -1
        out["config"]["train"]["lr"] = -1.0
        out["stages"][0]["accuracy"] = -1.0
        out["epochs"].clear()
        out["cost"]["absolute_cost"] = -1
        assert record_dict(record) == before
        assert (record.final_labels.tobytes(), record.final_ranks.tobytes()) == arrays
        assert record.fingerprint() == fingerprint

    @pytest.mark.parametrize("method", ["kcd", "full-kd"])
    def test_save_writes_the_bytes_of_an_asdict_copy(self, small_task, tmp_path, method):
        _, record = run_small(small_task, method=method, seed=19)
        path = tmp_path / "record.json"
        record.save(path)
        assert path.read_bytes() == (json.dumps(record_dict(record), indent=2) + "\n").encode()

    @pytest.mark.parametrize("n, ranked", [
        (0, False), (1, True), (12, False),
        (emdriver._ARRAY_CHUNK - 1, True), (emdriver._ARRAY_CHUNK, True),
        (emdriver._ARRAY_CHUNK + 1, False), (20_000, True),
    ])
    def test_streamed_encoding_matches_one_json_dumps(self, tmp_path, n, ranked):
        """fingerprint and save encode the arrays in chunks; digest and bytes
        are those of one json.dumps of record_dict, for a nested config with NaN
        and inf, an empty rank array (full-kd) and sizes around a chunk."""
        record = synthetic_record(n, ranked)
        assert record.fingerprint() == record_fingerprint(record)
        record.save(tmp_path / "record.json")
        assert (tmp_path / "record.json").read_bytes() == record_bytes(record)
        again = RunRecord.load(tmp_path / "record.json")
        assert again.fingerprint() == record.fingerprint()

    def test_fingerprint_of_a_200k_record_stays_under_2_mib(self):
        record = synthetic_record(200_000, True)
        tracemalloc.start()
        try:
            record.fingerprint()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("where, value, named", [
        (("method",), ["kcd"], "record field 'method' must be str, not list"),
        (("seed",), "3", "record field 'seed' must be int, not str"),
        (("seed",), True, "record field 'seed' must be int, not bool"),
        (("config",), [0.7], "record field 'config' must be dict, not list"),
        (("final_accuracy",), "0.5", "record field 'final_accuracy' must be float, not str"),
        (("final_labels",), "0101", "record field 'final_labels' must be np.ndarray, not str"),
        (("final_labels", 0), 1.0, "record field 'final_labels' must be an array of integers"),
        (("final_ranks", 1), None, "record field 'final_ranks' must be an array of integers"),
        (("student_dims", 0), "4", "record field 'student_dims' must be an array of integers"),
        (("stages", 0), 1, "stages[0] must be an object, not int"),
        (("stages", 0, "aug_count"), 0.5, "stages[0] field 'aug_count' must be int, not float"),
        (("epochs", 0, "train_loss"), None, "epochs[0] field 'train_loss' must be float, not NoneType"),
        (("cost", "absolute_cost"), "10", "cost field 'absolute_cost' must be int, not str"),
        (("cost",), 0.5, "record field 'cost' must be CostReport, not float"),
    ])
    def test_from_dict_names_a_field_of_the_wrong_type(self, where, value, named):
        payload = record_dict(synthetic_record(3, True))
        *path, last = where
        holder = payload
        for key in path:
            holder = holder[key]
        holder[last] = value
        with pytest.raises(ValueError) as err:
            RunRecord.from_dict(payload)
        assert str(err.value) == named

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.pop("seed"), "record has no field 'seed'"),
        (lambda d: d.update(extra=1), "record has an unknown field 'extra'"),
        (lambda d: d["epochs"][0].pop("stage"), "epochs[0] has no field 'stage'"),
    ])
    def test_from_dict_names_a_missing_or_unknown_field(self, edit, named):
        payload = record_dict(synthetic_record(3, True))
        edit(payload)
        with pytest.raises(ValueError) as err:
            RunRecord.from_dict(payload)
        assert str(err.value) == named

    def test_from_dict_takes_an_int_where_a_float_is_due(self):
        payload = record_dict(synthetic_record(3, True))
        payload.update(final_accuracy=1, wall_time_s=0)
        record = RunRecord.from_dict(payload)
        assert record.final_accuracy == 1 and record.wall_time_s == 0

    def test_epochs_csv_shape(self, small_task):
        _, record = run_small(small_task, seed=13, epochs=8, stage_len=2)
        lines = record.epochs_csv().strip().splitlines()
        assert lines[0] == "epoch,stage,active_size,train_loss,eval_accuracy"
        assert len(lines) == 9

    def test_final_labeling_matches_last_stage(self, small_task):
        _, record = run_small(small_task, seed=14)
        labeling = record.final_labeling()
        assert labeling.labels.tobytes() == record.final_labels.tobytes()
        assert labeling.ranks.tobytes() == record.final_ranks.tobytes()
        assert int(labeling.labels.sum()) == record.stages[-1].set_size

    def test_full_kd_has_no_labeling(self, small_task):
        _, record = run_small(small_task, method="full-kd", seed=15)
        with pytest.raises(ValueError, match="no condensed labeling"):
            record.final_labeling()

    def test_cost_report_consistency(self, small_task):
        ds, store = small_task
        _, record = run_small(small_task, seed=16, epochs=12, stage_len=3)
        assert 0.0 < record.cost.relative_cost <= 1.0
        assert record.cost.absolute_cost == pytest.approx(
            record.cost.realized_relative_cost * store.n * 12, rel=1e-12)


def assert_epochs_match_per_batch_loop(store, ks, tcfg, method="kcd"):
    """Two epochs of _train_epoch over the runs ks of method, one run alone
    trained unstacked, against the old one-student loop run per student on
    its whole target matrix: fancy-index gathers, every batch's entropies
    folded as it goes into the two-array oracle, whose running means (or
    latest observations, for no-ovr) and frequencies the run's ValueState
    must hold. Run 0 trains the even ids on the store's matrix (no blend),
    run 1 the odd ids with a blend that replaces every row by a rolled copy,
    run 2 the upper half with a blend of every third sample; every active
    array is ascending, as _train_epoch requires."""
    n = store.n
    actives = [np.arange(0, n, 2), np.arange(1, n, 2), np.arange(n // 2, n)]
    rolled = np.roll(store.teacher_probs, 1, axis=0)
    every_third = np.where(np.arange(n) % 3 == 0, np.arange(n) // 3, -1)
    blends = [None, (np.arange(n), rolled), (every_third, rolled[::3])]
    actives, blends = [actives[k] for k in ks], [blends[k] for k in ks]
    hard = store.hard_labels if tcfg.hard_label_weight > 0.0 else None

    def fresh(k):
        student = init_student(store.dim, (8,), store.num_classes, 3 + k)
        return student, np.zeros_like(student.params), np.random.default_rng(4 + k)

    expected = []
    for k, active, blend in zip(ks, actives, blends):
        target = store.teacher_probs.copy()
        if blend is not None:
            blended = blend[0] >= 0
            target[blended] = blend[1][blend[0][blended]]
        values = TwoArrayValues(n)
        student, vel, rng = fresh(k)
        for _ in range(2):
            ids = np.sort(active)
            order = ids[rng.permutation(ids.size)]
            for start in range(0, order.size, tcfg.batch_size):
                batch = order[start:start + tcfg.batch_size]
                _, grad, probs_1 = nn.loss_and_grads(
                    student, store.features[batch], target[batch], tcfg.temperature,
                    None if hard is None else hard[batch], tcfg.hard_label_weight)
                nn.sgd_step(student, grad, vel, tcfg.lr, tcfg)
                values.observe(batch, ogve.entropy_rows(probs_1))
        folded = values.last_values if method == "no-ovr" else values.values
        expected.append(((folded, values.frequencies), student.params.copy()))

    runs = []
    for k in ks:
        student, _, rng = fresh(k)
        runs.append(emdriver._Run(store, make_config(seed=k), student, method))
        runs[-1].train_rng = rng
    stack = (runs[0].student if len(runs) == 1
             else nn.stack_models([run.student for run in runs]))
    vel, buffers = np.zeros_like(stack.params), nn.StepBuffers(stack, tcfg.batch_size)
    for epoch in (1, 2):
        emdriver._train_epoch(stack, vel, buffers, runs, store, actives, blends, tcfg,
                              tcfg.lr, 1, epoch)
    assert stack.params.ndim == (1 if len(runs) == 1 else 2)
    for run, params, (expected_values, expected_params) in zip(
            runs, stack.params.reshape(len(runs), -1), expected):
        got = (run.values.values, run.values.frequencies)
        for a, b in zip(got, expected_values):
            assert a.tobytes() == b.tobytes()
        assert params.tobytes() == expected_params.tobytes()


class TestTrainEpoch:
    def test_per_epoch_observe_equals_per_batch_loop(self, small_task):
        """A two-run group epoch, one run on the store's targets and one
        blending every row, against the old one-student loop run per student."""
        _, store = small_task
        assert_epochs_match_per_batch_loop(store, [0, 1], TrainConfig(batch_size=7))

    def test_no_ovr_epoch_keeps_the_latest_observation(self, small_task):
        """The same group epoch for no-ovr runs: each sample's value is its
        last entropy, not the running mean."""
        _, store = small_task
        assert_epochs_match_per_batch_loop(store, [0, 1], TrainConfig(batch_size=7), "no-ovr")

    @pytest.mark.parametrize("chunk_rows", [None, 3, 7, 14, 22], ids=[
        "one-chunk", "chunk-below-a-batch", "chunk-of-one-batch", "chunk-of-two-batches",
        "chunk-not-whole-batches"])
    @pytest.mark.parametrize("ks, hard_label_weight", [
        ([1], 0.0), ([0], 0.3), ([1], 0.3), ([0, 1], 0.0), ([0, 1], 0.3), ([2], 0.0),
        ([0, 1, 2], 0.0), ([0, 1, 2], 0.3),
    ], ids=["lone-own-matrix", "lone-hard-labels", "lone-own-matrix-hard-labels", "pair",
            "pair-hard-labels", "lone-partial-blend", "trio-partial-blend",
            "trio-partial-blend-hard-labels"])
    def test_row_gathers_match_fancy_indexing(self, small_task, monkeypatch, ks,
                                              hard_label_weight, chunk_rows):
        """The per-chunk take gathers of features, targets and hard labels
        and the per-chunk overwrite of blended rows, for a lone run (trained
        unstacked) and for a stack, against the loop's fancy-index gathers.
        At batch 7 a chunk of 3 or 7 rows is one batch, 14 two, and 22 is
        rounded down to three; each epoch's 48 rows then cross chunk
        boundaries with blended rows on both sides, and end in a short batch."""
        _, store = small_task
        if chunk_rows is not None:
            row_bytes = 8 * (store.dim + store.num_classes)
            monkeypatch.setattr(emdriver, "_EPOCH_CHUNK_BYTES", chunk_rows * row_bytes)
        tcfg = TrainConfig(batch_size=7, temperature=2.0, hard_label_weight=hard_label_weight)
        assert_epochs_match_per_batch_loop(store, ks, tcfg)

    @pytest.mark.parametrize("method", ["kcd", "fixed-eps", "ogve-only", "no-ovr", "no-car",
                                        "random-subset", "reuse-direct-select",
                                        "reuse-with-vaks"])
    def test_a_stage_trains_on_its_labelings_kept_ids(self, small_task, monkeypatch, method):
        """Every selecting method hands each stage what vaks.direct_selection
        returns for the stage's labeling: np.flatnonzero(labels), ascending."""
        _, store = small_task
        labeling = random_labeling(store.n, 0.7) if method.startswith("reuse-") else None
        student = init_student(store.dim, (8,), store.num_classes, 0)
        stage_run = emdriver._Run(store, make_config(), student, method, labeling)
        if stage_run.values is not None:
            rng = np.random.default_rng(0)
            ogve.observe_batch(stage_run.values, np.arange(store.n), rng.random(store.n))
        real, selected = vaks.direct_selection, []
        monkeypatch.setattr(vaks, "direct_selection",
                            lambda labeling: selected.append(real(labeling)) or selected[-1])
        for s in (1, 2, 3):
            active = stage_run.stage(s)[0]
            assert active is selected[-1] and active.dtype == np.int64
            assert active.tobytes() == np.flatnonzero(stage_run.labels).tobytes()
        assert len(selected) == 3

    def test_full_kd_stage_trains_on_every_sample(self, small_task, monkeypatch):
        _, store = small_task
        student = init_student(store.dim, (8,), store.num_classes, 0)
        monkeypatch.setattr(vaks, "direct_selection", None)
        active = emdriver._Run(store, make_config(), student, "full-kd").stage(1)[0]
        assert active.tobytes() == np.arange(store.n).tobytes()

    def test_unblended_stage_targets_are_the_store_matrix(self, small_task):
        """A stage that blends nothing returns no blend: it trains from the
        store's read-only matrix."""
        _, store = small_task
        labeling = ogve.labeling_from_ranks(np.arange(store.n), 0.5)
        student = init_student(store.dim, (8,), store.num_classes, 0)
        for method in ("full-kd", "reuse-direct-select"):
            _, blend, _, aug_count = emdriver._Run(store, make_config(), student, method,
                                                   labeling).stage(1)
            assert blend is None and aug_count == 0
        assert not store.teacher_probs.flags.writeable
        with pytest.raises(ValueError):
            store.teacher_probs[0, 0] = 0.5

    def test_blended_stage_returns_the_condensed_rows(self, small_task):
        """A blended stage hands over the condensed rows and where they go,
        not a copy of the store's matrix."""
        _, store = small_task
        labeling = ogve.labeling_from_ranks(np.arange(store.n), 0.5)
        aug_ids, blended = vaks.condense(labeling, store, 0.3)
        assert aug_ids.size
        student = init_student(store.dim, (8,), store.num_classes, 0)
        _, (aug_at, aug_probs), _, aug_count = emdriver._Run(
            store, make_config(eps_m=0.3), student, "reuse-with-vaks", labeling).stage(1)
        assert aug_count == aug_ids.size
        assert aug_probs.shape == (aug_count, store.num_classes)
        np.testing.assert_array_equal(aug_at[aug_ids], np.arange(aug_count))
        assert (np.delete(aug_at, aug_ids) == -1).all()
        np.testing.assert_array_equal(aug_probs[aug_at[aug_ids]], blended)

    def test_blending_run_holds_no_copy_of_the_teacher_matrix(self):
        """A kcd run on a store whose C far exceeds what its data needs: its
        traced peak stays under 1.5 N x C matrices (copying the store's
        matrix at each stage boundary held two at once). A stage's blend,
        its temporaries and the rows an epoch gathers take O(N + aug * C)."""
        ds = gen_gaussian_mixture(100, 4, 63, 1.0, seed=0)
        n, c = ds.train_labels.size, 100
        probs = np.random.default_rng(0).dirichlet(np.ones(c), size=n)
        store = build_store(ds.train_features, probs, ds.train_labels)
        student = init_student(store.dim, (8,), c, 0)
        tracemalloc.start()
        try:
            _, record = run(make_config(epochs=6, stage_len=1), store, student, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(stage.aug_count > 0 for stage in record.stages)
        assert peak < 1.5 * n * c * 8


class TestMethodTable:
    def test_rows_are_exactly_the_methods_and_reuse_modes(self):
        assert set(emdriver._METHODS) == set(ALL_METHODS) | {f"reuse-{m}" for m in REUSE_MODES}

    def test_a_row_added_to_the_table_trains_with_nothing_else_registered(
            self, small_task, monkeypatch):
        """A control that is only a table row, here a value ranking that
        keeps the lowest scores, trains through run_group under its name and
        keeps keep_count(N, rho) at its last stage."""
        ds, store = small_task

        def reversed_value(run, tau):
            scores = ogve.cost_aware_scores(run.values, run.config.alpha)
            return ogve.labeling_from_ranks(ogve.ranks_from_scores(-scores), tau)

        monkeypatch.setitem(emdriver._METHODS, "reversed",
                            (reversed_value, None, ogve.ValueState))
        config = make_config(seed=5)
        student = init_student(store.dim, (8,), store.num_classes, 5)
        [(_, record)] = run_group(store, ds, [Job(config, student, "reversed")])
        assert record.method == "reversed"
        kept = keep_count(store.n, config.schedule.rho)
        assert record.stages[-1].set_size == kept
        assert int(np.count_nonzero(record.final_labels)) == kept
        with pytest.raises(ValueError, match="^unknown method 'mystery'; expected one of "
                                             r"\(.*'reversed'\)$"):
            run_group(store, ds, [Job(config, student, "mystery")])

    def test_all_methods_keep_their_order(self):
        """A sweep over ALL_METHODS writes its rows, and so its digest, in this order."""
        assert ALL_METHODS == ("kcd", "full-kd", "random-subset", "ogve-only", "no-ovr",
                               "no-car", "fixed-eps")

    def test_run_takes_the_method(self, small_task):
        ds, store = small_task
        student = init_student(store.dim, (8,), store.num_classes, 2)
        _, record = run(make_config(seed=2), store, student, ds, method="no-car")
        assert record.method == "no-car"
        assert run_baseline is run

    def test_unscheduled_runs_report_ideal_equal_to_realized(self, small_task):
        _, full = run_small(small_task, method="full-kd", seed=18)
        assert full.cost.relative_cost == full.cost.realized_relative_cost == 1.0
        ds, store = small_task
        student = init_student(store.dim, (8,), store.num_classes, 18)
        _, reuse = run_with_fixed_labels(make_config(seed=18), store, student, ds,
                                         random_labeling(store.n, 0.7), "direct-select")
        assert reuse.cost.relative_cost == reuse.cost.realized_relative_cost < 1.0

    def test_methods_that_read_no_value_compute_none(self, small_task, monkeypatch):
        """No entropy is asked of a step, or computed apart from one, and no
        value is observed, unless a run keeps a ValueState."""
        calls = []

        def spy(owner, name, label, asked=lambda arguments: True):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                if asked(inspect.signature(real).bind(*args, **kwargs).arguments):
                    calls.append(label)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        spy(nn, "loss_and_grads", "entropy_rows",
            lambda arguments: arguments.get("entropy_out") is not None)
        spy(ogve, "entropy_rows", "entropy_rows")
        spy(ogve, "observe_batch", "observe_batch")
        ds, store = small_task
        for method in ("full-kd", "random-subset"):
            run_small(small_task, method=method, seed=19)
        for mode in REUSE_MODES:
            student = init_student(store.dim, (8,), store.num_classes, 19)
            run_with_fixed_labels(make_config(seed=19), store, student, ds,
                                  random_labeling(store.n, 0.7), mode)
        assert calls == []
        run_small(small_task, method="ogve-only", seed=19)
        assert set(calls) == {"entropy_rows", "observe_batch"}


SCHEDULED = ("kcd", "fixed-eps", "ogve-only", "no-ovr", "no-car", "random-subset")


def one_cpu(monkeypatch):
    """run_group splits a shape group over the usable CPUs; with one, the
    whole group trains as one stacked model in this process."""
    monkeypatch.setattr(emdriver, "_usable_cpus", lambda: 1)


class TestLockstep:
    """Runs that share a shape key train as one stacked student; each run's
    record and parameters equal those of the run trained alone."""

    @pytest.mark.parametrize("hidden, train", [
        ((8,), dict(batch_size=19)),  # the 96-sample warm-up ends in a batch of 1
        ((8,), dict(temperature=2.0, hard_label_weight=0.3)),
        ((8, 5), dict(batch_size=19)),
    ], ids=["tail-batch-of-1", "temperature-and-hard-labels", "two-hidden-layers"])
    def test_groups_match_one_run_at_a_time(self, small_task, monkeypatch, hidden, train):
        ds, store = small_task
        assert store.n % 19 == 1
        one_cpu(monkeypatch)  # each group trains as one stack, here

        def job(seed, method, labeling=None):
            student = init_student(store.dim, hidden, store.num_classes, seed)
            return Job(make_config(seed=seed, **train), student, method, labeling)

        def alone(j):
            student = init_student(store.dim, hidden, store.num_classes, j.config.seed)
            if j.labeling is None:
                _, record = run(j.config, store, student, ds, j.method)
            else:
                _, record = run_with_fixed_labels(j.config, store, student, ds, j.labeling,
                                                  j.method.removeprefix("reuse-"))
            return student, record

        scheduled = [job(seed, m) for m in SCHEDULED for seed in (5, 6)]
        labeling = run_small(small_task, seed=4)[1].final_labeling()
        reuse = [job(seed, f"reuse-{mode}", labeling) for mode in REUSE_MODES for seed in (7, 8)]
        for group in (scheduled, reuse):
            for j, (student, record) in zip(group, run_group(store, ds, group)):
                alone_student, alone_record = alone(j)
                assert student is j.student
                assert student.params.tobytes() == alone_student.params.tobytes()
                assert record.fingerprint() == alone_record.fingerprint()

    def test_runs_with_different_set_sizes_never_share_a_key(self, small_task):
        _, store = small_task

        def key(method, rho=0.7, labeling=None, hidden=(8,), **train):
            student = init_student(store.dim, hidden, store.num_classes, 0)
            return _shape_key(store, Job(make_config(rho=rho, **train), student, method, labeling))

        assert len({key(m) for m in SCHEDULED}) == 1
        assert key("kcd", 0.5) != key("kcd", 0.7)
        assert key("full-kd", 0.5) == key("full-kd", 0.7) == key("kcd", 1.0)
        assert key("full-kd") != key("kcd")
        kept = random_labeling(store.n, 0.7)
        assert key("reuse-with-vaks", labeling=kept) == key("reuse-direct-select", 0.3, kept)
        assert key("reuse-with-vaks", labeling=kept) != key("kcd")
        assert key("kcd", batch_size=32) != key("kcd")
        assert key("kcd", hidden=(8, 5)) != key("kcd")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(1, 1000), min_size=1, max_size=4),
                              st.integers(1, 20)), min_size=1, max_size=6),
           st.integers(1, 8), st.randoms(use_true_random=False))
    def test_chunks_split_groups_only_for_the_cpus(self, shapes, cpus, rnd):
        """Chunks partition the job indices, each inside one shape group, come
        largest first by work (runs times the sum of the key's stage sizes),
        and no chunk of two or more runs holds more than 1/cpus of the work;
        with one CPU every group stays whole."""
        ids = list(range(sum(count for _, count in shapes)))
        rnd.shuffle(ids)
        groups, at = {}, 0
        for g, (sizes, count) in enumerate(shapes):
            groups[("group", g, tuple(sizes))] = sorted(ids[at:at + count])
            at += count
        work_of = {i: sum(key[-1]) for key, group in groups.items() for i in group}
        group_of = {i: key for key, group in groups.items() for i in group}
        chunks = emdriver._chunks(groups, cpus)
        assert sorted(i for chunk in chunks for i in chunk) == sorted(ids)
        assert all(chunk and len({group_of[i] for i in chunk}) == 1 for chunk in chunks)
        work = [sum(work_of[i] for i in chunk) for chunk in chunks]
        total = sum(work)
        assert work == sorted(work, reverse=True)
        assert all(w * cpus <= total for w, chunk in zip(work, chunks) if len(chunk) > 1)
        if cpus == 1:
            assert sorted(chunks) == sorted(groups.values())

    @pytest.mark.parametrize("method, label_count, student, message", [
        ("telepathy", None, "copy", "unknown method 'telepathy'; expected one of"),
        ("reuse-with-vaks", None, "copy", "unknown method 'reuse-with-vaks'; expected one of"),
        ("reuse-direct-select", 50, "copy",
         "^reuse-direct-select seed 0: label count 50 does not match store size 96$"),
        ("kcd", 96, "copy", "^kcd seed 0: the method imports no labeling, but one was given$"),
        ("full-kd", 96, "copy",
         "^full-kd seed 0: the method imports no labeling, but one was given$"),
        ("kcd", None, "wide",
         r"^kcd seed 0: student dims \(7, 8, 4\) do not fit the store's 6 features and "
         r"4 classes$"),
        ("kcd", None, "three-class",
         r"^kcd seed 0: student dims \(6, 8, 3\) do not fit the store's 6 features and "
         r"4 classes$"),
        # {} are the indices of the two jobs holding one student
        ("kcd", None, "shared",
         r"^job {} \(kcd seed 0\) and job {} \(kcd seed 0\) share one student object$"),
    ], ids=["unknown-method", "reuse-without-labeling", "labeling-of-wrong-size",
            "labeling-for-a-ranking-method", "labeling-for-full-kd",
            "student-of-another-input-dim", "student-of-another-class-count",
            "student-of-another-job"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_a_bad_job_anywhere_raises_before_any_run(self, small_task, monkeypatch,
                                                       method, label_count, student,
                                                       message, at):
        ds, store = small_task
        monkeypatch.setattr(emdriver, "_usable_cpus", lambda: 2)

        def no_run(*args):
            raise AssertionError("a run started before every job was checked")

        monkeypatch.setattr(emdriver, "_execute", no_run)
        monkeypatch.setattr(emdriver, "_pool_map", no_run)
        jobs = [Job(make_config(seed=s), init_student(store.dim, (8,), store.num_classes, s), m)
                for s, m in enumerate(("kcd", "full-kd", "kcd", "no-car"))]
        labeling = None if label_count is None else random_labeling(label_count, 0.7)
        students = {"copy": jobs[0].student.copy(), "shared": jobs[0].student,
                    "wide": init_student(store.dim + 1, (8,), store.num_classes, 0),
                    "three-class": init_student(store.dim, (8,), store.num_classes - 1, 0)}
        jobs.insert(at, Job(make_config(), students[student], method, labeling))
        shared = (0, 1) if at == 0 else (0, at)  # the jobs holding jobs[0]'s student
        with pytest.raises(ValueError, match=message.format(*shared)):
            run_group(store, ds, jobs)

    @pytest.mark.parametrize("poison, message", [
        ("gradient", "no-car seed 6: stage 1, epoch 2: non-finite gradient in layer 0"),
        ("loss", "no-car seed 6: non-finite training loss at stage 1, epoch 2"),
    ])
    def test_non_finite_step_names_the_run_and_moves_no_parameter(self, small_task,
                                                                  monkeypatch, poison, message):
        ds, store = small_task
        real, calls = nn.loss_and_grads, []

        def poisoned(*args):
            loss, grad, probs = real(*args)
            calls.append(1)
            if len(calls) == 3:  # first batch of epoch 2: 96 samples are 2 batches
                if poison == "gradient":
                    grad[1, 0] = np.inf  # model 1, layer 0's first weight
                else:
                    loss[1] = np.nan
            return loss, grad, probs

        monkeypatch.setattr(nn, "loss_and_grads", poisoned)
        one_cpu(monkeypatch)
        jobs = [Job(make_config(seed=s), init_student(store.dim, (8,), store.num_classes, s), m)
                for s, m in ((5, "kcd"), (6, "no-car"), (7, "ogve-only"))]
        before = [j.student.params.copy() for j in jobs]
        with pytest.raises(DistillationError, match=f"^{message}"):
            run_group(store, ds, jobs)
        for j, params in zip(jobs, before):
            assert j.student.params.tobytes() == params.tobytes()


    def test_hard_label_weight_needs_a_store_with_hard_labels(self, small_task, monkeypatch):
        """The job is refused by name before any epoch trains, not by the
        first batch's loss_and_grads."""
        ds, store = small_task
        bare = build_store(store.features, store.teacher_probs)
        epochs, train_epoch = [], emdriver._train_epoch
        monkeypatch.setattr(emdriver, "_train_epoch",
                            lambda *args: epochs.append(1) or train_epoch(*args))
        jobs = [Job(make_config(seed=s, hard_label_weight=w),
                    init_student(store.dim, (8,), store.num_classes, s), "kcd")
                for s, w in ((2, 0.0), (3, 0.3))]
        with pytest.raises(ValueError, match="^kcd seed 3: hard_label_weight > 0 needs a "
                                             "store with hard labels$"):
            run_group(bare, ds, jobs)
        assert epochs == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_job_leaves_every_student_as_it_was(self, small_task, monkeypatch,
                                                          cpus):
        """full-kd trains to the end before kcd diverges (in turn on one CPU,
        in a sibling worker on two); neither student may change."""
        ds, store = small_task
        monkeypatch.setattr(emdriver, "_usable_cpus", lambda: cpus)
        jobs = [Job(make_config(seed=0), init_student(store.dim, (8,), store.num_classes, 0),
                    "full-kd"),
                Job(make_config(seed=1, lr=1e300),
                    init_student(store.dim, (8,), store.num_classes, 1), "kcd")]
        before = [j.student.params.copy() for j in jobs]
        with pytest.raises(DistillationError,
                           match="^kcd seed 1: non-finite training loss at stage 1, epoch 1"):
            run_group(store, ds, jobs)
        for j, params in zip(jobs, before):
            assert j.student.params.tobytes() == params.tobytes()

    def test_group_of_one_trains_unstacked_and_names_its_run(self, small_task, monkeypatch):
        ds, store = small_task
        real, shapes = nn.loss_and_grads, []

        def poisoned(model, x, *args):
            loss, grad, probs = real(model, x, *args)
            shapes.append(x.shape)
            if len(shapes) == 3:
                grad[0] = np.inf  # layer 0's first weight
            return loss, grad, probs

        monkeypatch.setattr(nn, "loss_and_grads", poisoned)
        with pytest.raises(DistillationError,
                           match="^kcd seed 5: stage 1, epoch 2: non-finite gradient in layer 0"):
            run_small(small_task, seed=5)
        assert shapes[0] == (64, store.dim)


def fault_at_stage(monkeypatch, module, name, corrupt, stage=2):
    """Wrap module.name, which a lone run calls once per stage, so that its
    result at that stage is replaced by corrupt(result, *args). Returns the
    real results, one per call, and a list that gains an entry per epoch
    trained."""
    real, results, epochs = getattr(module, name), [], []

    def wrapped(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return corrupt(results[-1], *args) if len(results) == stage else results[-1]

    train_epoch = emdriver._train_epoch
    monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(emdriver, "_train_epoch",
                        lambda *args: epochs.append(1) or train_epoch(*args))
    return results, epochs


def keeps_one_fewer(labeling, *_):
    labeling.labels[labeling.ranks == labeling.labels.sum() - 1] = 0
    return labeling


@pytest.mark.parametrize("method", ["kcd", "random-subset"])
def test_keep_count_is_checked_at_every_stage_boundary(small_task, monkeypatch, method):
    """A labeling that keeps one sample fewer than the schedule plans at
    stage 2 stops the run there, naming it, before stage 2 trains an epoch."""
    results, epochs = fault_at_stage(monkeypatch, ogve, "labeling_from_ranks", keeps_one_fewer)
    kept = keep_count(small_task[1].n, tau_schedule(0.7, 4)[1])
    with pytest.raises(DistillationError, match=f"^{method} seed 4: stage 2: the labeling "
                                                f"keeps {kept - 1} samples, the stage "
                                                f"plans {kept}$"):
        run_small(small_task, method=method, seed=4)
    assert len(results) == 2
    assert len(epochs) == 3  # stage 1 only: 12 epochs in stages of 3


def with_aug_id(condensed, i, new_id):
    """condensed (aug_ids, aug_probs) with blended id i set to new_id."""
    ids = condensed[0].copy()
    ids[i] = new_id
    return ids, condensed[1]


def first_discarded(labeling):
    return int(np.flatnonzero(labeling.labels == 0)[0])


def off_simplex_row_1(condensed, *_):
    probs = condensed[1].copy()
    probs[1] *= 2.0
    return condensed[0], probs


# fault -> (corrupt(condensed, labeling, ...), the error after "stage 2: ",
# formatted with the real stage-2 blend (aug_ids, aug_probs), and the runs it
# applies to)
BLEND_RUNS = ("kcd", "reuse-with-vaks")
BOUNDARY_FAULTS = {
    "blended-id-not-kept": (
        lambda c, labeling, *_: with_aug_id(c, 0, first_discarded(labeling)),
        "a blended id is not a kept sample", BLEND_RUNS),
    "repeated-blended-id": (
        lambda c, *_: with_aug_id(c, 0, c[0][1]),
        "a blended id repeats", BLEND_RUNS),
    "blended-row-missing": (
        lambda c, *_: (c[0], c[1][1:]),
        "aug_probs has {rows} rows for {aug.size} blended ids", BLEND_RUNS),
    "blended-row-off-the-simplex": (
        off_simplex_row_1,
        "the blended row of sample {aug[1]} is not a probability simplex (sum=2.00000000)",
        BLEND_RUNS),
}


@pytest.mark.parametrize("fault, method", [(f, m) for f, (_, _, runs) in BOUNDARY_FAULTS.items()
                                           for m in runs])
def test_a_faulty_condensed_set_stops_the_run_at_its_boundary(small_task, monkeypatch,
                                                              fault, method):
    """A condensed set that breaks an invariant at stage 2 stops the run
    there with an error naming the run, the stage and the invariant, before
    stage 2 trains an epoch. A blended id swapped for a discarded one keeps
    every size, so only the kept-sample check sees it."""
    ds, store = small_task
    corrupt, message, _ = BOUNDARY_FAULTS[fault]
    results, epochs = fault_at_stage(monkeypatch, vaks, "condense", corrupt)
    labeling = random_labeling(store.n, 0.7) if method.startswith("reuse-") else None
    job = Job(make_config(seed=4), init_student(store.dim, (8,), store.num_classes, 4),
              method, labeling)
    with pytest.raises(DistillationError) as caught:
        run_group(store, ds, [job])
    real_ids = results[1][0]
    assert str(caught.value) == f"{method} seed 4: stage 2: " + message.format(
        aug=real_ids, rows=real_ids.size - 1)
    assert len(epochs) == 3  # stage 1 only: 12 epochs in stages of 3


def random_labeling(n, keep_ratio):
    return ogve.labeling_from_ranks(np.random.default_rng(n).permutation(n), keep_ratio)


def test_runs_sharing_a_store_across_threads_match_serial_runs(small_task):
    """Each run keeps its own value state, so kcd runs on one store in more
    threads than cores, switching often, give the fingerprints of the same
    runs one after another."""
    seeds = (3, 4, 3, 4)
    serial = {seed: run_small(small_task, seed=seed, epochs=24)[1].fingerprint()
              for seed in set(seeds)}
    start = threading.Barrier(len(seeds))
    threaded = [None] * len(seeds)

    def worker(i):
        start.wait(timeout=60)
        threaded[i] = run_small(small_task, seed=seeds[i], epochs=24)[1].fingerprint()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == [serial[seed] for seed in seeds]
