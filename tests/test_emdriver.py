import json

import numpy as np
import pytest

from kcdistill import emdriver, nn, ogve, vaks
from kcdistill.emdriver import (
    ALL_METHODS,
    DistillConfig,
    DistillationError,
    RunRecord,
    ScheduleConfig,
    computation_ratio,
    init_student,
    relative_cost,
    run,
    run_baseline,
    run_with_fixed_labels,
    tau_schedule,
)
from kcdistill.knowledge import ValueLabeling
from kcdistill.nn import TrainConfig
from kcdistill.ogve import OgveConfig, keep_count


def make_config(seed=0, rho=0.7, epochs=12, stage_len=3, alpha=0.03, eps_m=0.3,
                **train_overrides):
    return DistillConfig(
        schedule=ScheduleConfig(total_epochs=epochs, stage_len=stage_len, rho=rho),
        ogve=OgveConfig(alpha=alpha),
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
        ds, store = small_task
        run_small(small_task, rho=1.0, epochs=12, stage_len=3)
        # with everything active every epoch, each sample is seen once per epoch
        assert np.all(store.frequencies == 12)

    def test_realized_cost_tracks_ideal_at_reference_point(self):
        # 1000-sample store, 240 epochs in 6 stages at rho 0.7: the realized
        # pass count stays within 0.1% of the ideal schedule cost
        from kcdistill.data import gen_gaussian_mixture
        from kcdistill.knowledge import build_store

        ds = gen_gaussian_mixture(5, 4, 250, 1.0, seed=40)
        rng = np.random.default_rng(41)
        probs = rng.dirichlet(np.ones(5), size=ds.train_indices.size)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_context(self, small_task):
        with pytest.raises(DistillationError, match=r"stage \d+, epoch \d+"):
            run_small(small_task, lr=1e9, weight_decay=0.0)

    def test_unknown_method_rejected(self, small_task):
        ds, store = small_task
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="unknown method"):
            run_baseline(make_config(), store, student, ds, "mystery")

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

        ds, store = small_task
        run_small(small_task, seed=7)  # leave the store with mixed frequencies
        scores = cost_aware_scores(store, OgveConfig(alpha=0.0))
        observed = store.frequencies > 0
        np.testing.assert_array_equal(scores[observed], store.values[observed])

    def test_ogve_only_has_no_augmented_members(self, small_task):
        _, record = run_small(small_task, method="ogve-only", seed=8)
        assert all(s.aug_count == 0 for s in record.stages)
        assert all(s.set_size == s.high_count for s in record.stages)


class TestFixedLabelRuns:
    def test_all_ones_labels_equal_full_kd(self, small_task):
        ds, store = small_task
        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), probs=1.0 - np.arange(n) / n,
                                 labels=np.ones(n, dtype=np.uint8))
        config = make_config(seed=9)
        student = init_student(store.dim, (8,), store.num_classes, 9)
        _, reuse_rec = run_with_fixed_labels(config, store, student, ds, labeling,
                                             "direct-select")
        _, full_rec = run_small(small_task, method="full-kd", seed=9)
        assert reuse_rec.param_digest == full_rec.param_digest

    def test_size_mismatch_rejected(self, small_task):
        ds, store = small_task
        labeling = ValueLabeling(ranks=np.arange(5), probs=1.0 - np.arange(5) / 5,
                                 labels=np.ones(5, dtype=np.uint8))
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="does not match store size"):
            run_with_fixed_labels(make_config(), store, student, ds, labeling,
                                  "direct-select")

    def test_unknown_mode_rejected(self, small_task):
        ds, store = small_task
        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), probs=1.0 - np.arange(n) / n,
                                 labels=np.ones(n, dtype=np.uint8))
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="unknown reuse mode"):
            run_with_fixed_labels(make_config(), store, student, ds, labeling, "nope")

    def test_all_zero_labels_rejected(self, small_task):
        ds, store = small_task
        n = store.n
        labeling = ValueLabeling(ranks=np.arange(n), probs=1.0 - np.arange(n) / n,
                                 labels=np.zeros(n, dtype=np.uint8))
        student = init_student(store.dim, (8,), store.num_classes, 0)
        with pytest.raises(ValueError, match="empty knowledge set"):
            run_with_fixed_labels(make_config(), store, student, ds, labeling,
                                  "direct-select")

    def test_with_vaks_mode_blends_borderline(self, small_task):
        ds, store = small_task
        n = store.n
        rng = np.random.default_rng(10)
        ranks = rng.permutation(n)
        labels = (ranks < keep_count(n, 0.7)).astype(np.uint8)
        labeling = ValueLabeling(ranks=ranks, probs=1.0 - ranks / n, labels=labels)
        student = init_student(store.dim, (8,), store.num_classes, 11)
        _, record = run_with_fixed_labels(make_config(seed=11), store, student, ds,
                                          labeling, "with-vaks")
        assert record.method == "reuse-with-vaks"
        assert all(s.aug_count > 0 for s in record.stages)
        assert all(s.set_size == int(labels.sum()) for s in record.stages)


class TestRunRecord:
    def test_json_round_trip(self, small_task, tmp_path):
        _, record = run_small(small_task, seed=12)
        path = tmp_path / "record.json"
        record.save(path)
        again = RunRecord.load(path)
        assert again.fingerprint() == record.fingerprint()
        assert again.cost == record.cost

    @pytest.mark.parametrize("method", ["kcd", "full-kd"])
    def test_list_fields_are_plain_ints_with_unchanged_fingerprint(self, small_task, method):
        import dataclasses

        _, record = run_small(small_task, method=method, seed=17)
        labels, ranks = record.final_labels, record.final_ranks
        assert all(type(v) is int for v in labels + ranks + record.student_dims)
        # the lists as an element-wise int() over the arrays built them before
        old = dataclasses.replace(
            record,
            final_labels=[int(v) for v in np.asarray(labels, dtype=np.uint8)],
            final_ranks=[int(v) for v in np.asarray(ranks, dtype=np.int64)],
        )
        assert json.dumps(old.to_dict()) == json.dumps(record.to_dict())
        assert old.fingerprint() == record.fingerprint()

    def test_epochs_csv_shape(self, small_task):
        _, record = run_small(small_task, seed=13, epochs=8, stage_len=2)
        lines = record.epochs_csv().strip().splitlines()
        assert lines[0] == "epoch,stage,active_size,train_loss,eval_accuracy"
        assert len(lines) == 9

    def test_final_labeling_matches_last_stage(self, small_task):
        _, record = run_small(small_task, seed=14)
        labeling = record.final_labeling()
        assert list(labeling.labels) == record.final_labels
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


class TestTrainEpoch:
    def test_per_epoch_observe_equals_per_batch_loop(self, small_task):
        _, store = small_task
        tcfg = TrainConfig(batch_size=7)
        active = np.arange(0, store.n, 2)
        targets = np.asarray(store.teacher_probs)

        def fresh():
            student = init_student(store.dim, (8,), store.num_classes, 3)
            return student, nn.SgdState.zeros_like(student), np.random.default_rng(4)

        # reference: the old loop, folding every batch's entropies as it goes
        store.reset_value_state()
        student, state, rng = fresh()
        for _ in range(2):
            ids = np.sort(active)
            order = ids[rng.permutation(ids.size)]
            for start in range(0, order.size, tcfg.batch_size):
                batch = order[start:start + tcfg.batch_size]
                _, gw, gb, probs_1 = nn.loss_and_grads(
                    student, store.features[batch], targets[batch])
                nn.sgd_step(student, gw, gb, state, tcfg.lr, tcfg)
                ogve.observe_batch(store, batch, ogve.entropy_rows(probs_1))
        expected = [a.copy() for a in (store.values, store.last_values, store.frequencies)]
        expected_params = student.params.copy()

        store.reset_value_state()
        student, state, rng = fresh()
        for epoch in (1, 2):
            emdriver._train_epoch(student, store, active, targets, tcfg, tcfg.lr,
                                  rng, state, 1, epoch)
        got = (store.values, store.last_values, store.frequencies)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        assert student.params.tobytes() == expected_params.tobytes()
        store.reset_value_state()

    def test_unblended_stage_targets_are_the_store_matrix(self, small_task):
        _, store = small_task
        labeling = ogve.labeling_from_ranks(np.arange(store.n), 0.5)
        targets = emdriver._stage_targets(store, vaks.direct_selection(labeling))
        assert targets is store.teacher_probs
        assert not store.teacher_probs.flags.writeable
        with pytest.raises(ValueError):
            targets[0, 0] = 0.5

    def test_blended_stage_targets_copy(self, small_task):
        _, store = small_task
        labeling = ogve.labeling_from_ranks(np.arange(store.n), 0.5)
        condensed = vaks.condense(labeling, store, 0.3)
        assert condensed.aug_ids.size
        targets = emdriver._stage_targets(store, condensed)
        assert targets is not store.teacher_probs
        np.testing.assert_array_equal(targets[condensed.aug_ids], condensed.aug_probs)
