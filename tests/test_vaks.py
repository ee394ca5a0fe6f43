import numpy as np
import pytest

from kcdistill import vaks
from kcdistill.knowledge import build_store
from kcdistill.ogve import labeling_from_ranks
from kcdistill.vaks import (
    Partition,
    augment,
    condense,
    direct_selection,
    epsilon_schedule,
    partition,
    summarize,
)


def labeled_store(n, keep_ratio, seed=0, classes=4):
    """Store with random soft labels plus a labeling keeping round(ratio*n)."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(classes), size=n)
    store = build_store(rng.normal(size=(n, 3)), probs)
    labeling = labeling_from_ranks(rng.permutation(n), keep_ratio)
    return store, labeling


class TestPartition:
    def test_borderline_matches_discarded_size(self):
        _, labeling = labeled_store(10, 0.7)
        part = partition(labeling)
        assert part.k1h_ids.size == 4
        assert part.k1l_ids.size == 3
        assert part.k0_ids.size == 3

    def test_all_kept_degenerates(self):
        _, labeling = labeled_store(10, 1.0)
        part = partition(labeling)
        assert part.k0_ids.size == 0
        assert part.k1l_ids.size == 0
        assert part.k1h_ids.size == 10

    def test_clamp_when_discarded_outnumbers_kept(self):
        _, labeling = labeled_store(10, 0.4)
        part = partition(labeling)
        assert part.k1h_ids.size == 0
        assert part.k1l_ids.size == 4
        assert part.k0_ids.size == 6
        assert part.k1l_ids.size == min(part.k0_ids.size, part.k1_size)

    def test_lists_ordered_by_rank(self):
        _, labeling = labeled_store(30, 0.6, seed=3)
        part = partition(labeling)
        for ids in (part.k1h_ids, part.k1l_ids, part.k0_ids):
            ranks = labeling.ranks[ids]
            assert np.all(np.diff(ranks) > 0)  # strictly better-to-worse

    def test_partition_covers_everything_disjointly(self):
        _, labeling = labeled_store(25, 0.52, seed=4)
        part = partition(labeling)
        combined = np.concatenate([part.k1h_ids, part.k1l_ids, part.k0_ids])
        assert np.array_equal(np.sort(combined), np.arange(25))

    def test_borderline_has_lowest_kept_scores(self):
        _, labeling = labeled_store(20, 0.7, seed=5)
        part = partition(labeling)
        if part.k1h_ids.size and part.k1l_ids.size:
            worst_high = labeling.ranks[part.k1h_ids].max()
            best_low = labeling.ranks[part.k1l_ids].min()
            assert worst_high < best_low


class TestEpsilonSchedule:
    def test_linear_ramp_values(self):
        sched = epsilon_schedule(5, 0.3)
        np.testing.assert_allclose(sched, [0.06, 0.12, 0.18, 0.24, 0.30], rtol=1e-12)

    def test_matches_offset_form(self):
        # the ramp evaluated at the j-th borderline position equals
        # eps_m/k0 * ((k1h + j) - k1) + eps_m with k1 = k1h + k0
        eps_m, k0, k1h = 0.3, 7, 12
        k1 = k1h + k0
        oracle = [eps_m / k0 * ((k1h + j) - k1) + eps_m for j in range(1, k0 + 1)]
        np.testing.assert_allclose(epsilon_schedule(k0, eps_m), oracle, rtol=1e-12)

    def test_single_element_is_max(self):
        assert list(epsilon_schedule(1, 0.3)) == [0.3]

    def test_zero_max_disables(self):
        assert np.all(epsilon_schedule(6, 0.0) == 0.0)

    def test_empty(self):
        assert epsilon_schedule(0, 0.3).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            epsilon_schedule(3, -0.1)

    def test_exact_endpoints(self):
        for n in (1, 2, 7, 49, 240):
            sched = epsilon_schedule(n, 0.3)
            assert sched[0] == 0.3 / n
            assert sched[-1] == 0.3
            assert np.all(np.diff(sched) > 0) or n == 1


class TestAugment:
    def test_two_class_blend_oracle(self):
        store = build_store(np.zeros((2, 2)),
                            np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = augment([0], [1], [0.3], store)
        assert out.shape == (1, 2)
        oracle = (np.array([1.0, 0.0]) + 0.3 * np.array([0.0, 1.0])) / 1.3
        np.testing.assert_allclose(oracle, [0.769231, 0.230769], atol=1e-6)
        np.testing.assert_allclose(out[0], oracle, rtol=1e-12)

    def test_zero_blend_is_identity(self):
        store, labeling = labeled_store(8, 0.5, seed=6)
        part = partition(labeling)
        out = augment(part.k1l_ids, part.k0_ids[:part.k1l_ids.size],
                      np.zeros(part.k1l_ids.size), store)
        np.testing.assert_array_equal(out, store.teacher_probs[part.k1l_ids])

    def test_uniform_is_fixed_point(self):
        store = build_store(np.zeros((2, 3)), np.full((2, 3), 1 / 3))
        for eps in (0.0, 0.3, 1.0):
            out = augment([0], [1], [eps], store)
            np.testing.assert_allclose(out[0], 1 / 3, rtol=1e-12)

    def test_rejects_length_mismatch(self):
        store, _ = labeled_store(4, 0.5)
        with pytest.raises(ValueError, match="equal length"):
            augment([0, 1], [2], [0.1, 0.2], store)

    def test_store_not_mutated(self):
        store, labeling = labeled_store(10, 0.6, seed=7)
        before = store.teacher_probs.copy()
        condense(labeling, store, 0.3)
        np.testing.assert_array_equal(store.teacher_probs, before)

    def test_outputs_on_simplex(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            c = int(rng.integers(2, 8))
            p_a = rng.dirichlet(np.ones(c))
            p_b = rng.dirichlet(np.ones(c))
            eps = float(rng.uniform(0.0, 1.0))
            store = build_store(np.zeros((2, 2)), np.stack([p_a, p_b]))
            blended = augment([0], [1], [eps], store)[0]
            assert np.all(blended >= 0.0)
            assert abs(blended.sum() - 1.0) <= 1e-9

    def test_blend_distance_grows_with_eps(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            p_a = rng.dirichlet(np.ones(c))
            p_b = rng.dirichlet(np.ones(c))
            store = build_store(np.zeros((2, 2)), np.stack([p_a, p_b]))
            eps_grid = np.sort(rng.uniform(0.0, 1.0, size=5))
            tv = []
            for eps in eps_grid:
                blended = augment([0], [1], [float(eps)], store)[0]
                tv.append(0.5 * np.abs(blended - p_a).sum())
            assert np.all(np.diff(tv) >= -1e-12)


class TestSummarize:
    def test_disjoint_union_size(self):
        store, labeling = labeled_store(10, 0.7, seed=10)
        condensed = condense(labeling, store, 0.3)
        assert condensed.size == 7
        assert condensed.size - condensed.aug_ids.size == 4
        assert condensed.aug_ids.size == 3
        assert condensed.aug_probs.shape == (3, 4)
        assert np.isin(condensed.aug_ids, condensed.member_ids).all()

    def test_empty_borderline_keeps_originals(self):
        store, labeling = labeled_store(10, 1.0)
        condensed = condense(labeling, store, 0.3)
        assert condensed.size == 10
        assert condensed.aug_ids.size == 0
        assert condensed.aug_probs.shape[0] == 0

    def test_clamped_case_all_augmented(self):
        store, labeling = labeled_store(10, 0.4, seed=11)
        condensed = condense(labeling, store, 0.3)
        assert condensed.size == 4
        assert np.array_equal(np.sort(condensed.aug_ids), np.sort(condensed.member_ids))

    def test_overlap_rejected(self):
        store, labeling = labeled_store(10, 0.7, seed=12)
        part = partition(labeling)
        sched = epsilon_schedule(part.k1l_ids.size, 0.3)
        blended = augment(part.k1l_ids, part.k0_ids[:part.k1l_ids.size], sched, store)
        bad = Partition(part.k1h_ids, np.r_[part.k1h_ids[0], part.k1l_ids[1:]], part.k0_ids)
        with pytest.raises(ValueError, match="duplicate member ids"):
            summarize(bad, blended)

    def test_condense_checks_size_against_kept_count(self, monkeypatch):
        store, labeling = labeled_store(10, 0.7, seed=12)
        part = partition(labeling)
        short = Partition(part.k1h_ids[1:], part.k1l_ids, part.k0_ids)
        monkeypatch.setattr(vaks, "partition", lambda _: short)
        with pytest.raises(ValueError, match="condensed size 6 does not equal kept size 7"):
            condense(labeling, store, 0.3)

    def test_size_equals_kept_count_across_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 120))
            ratio = float(rng.uniform(0.05, 1.0))
            store, labeling = labeled_store(n, ratio, seed=int(rng.integers(1e6)))
            condensed = condense(labeling, store, 0.3)
            assert condensed.size == int(labeling.labels.sum())

    def test_deterministic(self):
        store, labeling = labeled_store(20, 0.6, seed=14)
        a = condense(labeling, store, 0.3)
        b = condense(labeling, store, 0.3)
        assert np.array_equal(a.member_ids, b.member_ids)
        assert np.array_equal(a.aug_ids, b.aug_ids)
        assert np.array_equal(a.aug_probs, b.aug_probs)

    def test_constant_eps_variant(self):
        store, labeling = labeled_store(10, 0.7, seed=15)
        part = partition(labeling)
        condensed = condense(labeling, store, 0.3, constant_eps=True)
        assert np.array_equal(condensed.aug_ids, part.k1l_ids)
        for j, sid in enumerate(part.k1l_ids):
            paired = part.k0_ids[j]
            oracle = (store.teacher_probs[sid] + 0.3 * store.teacher_probs[paired]) / 1.3
            np.testing.assert_allclose(condensed.aug_probs[j], oracle, rtol=1e-12)

    def test_direct_selection_keeps_originals(self):
        _, labeling = labeled_store(10, 0.7, seed=16)
        condensed = direct_selection(labeling)
        assert condensed.size == 7
        assert condensed.aug_ids.size == 0
        assert condensed.aug_probs.shape[0] == 0
        kept_ranks = labeling.ranks[condensed.member_ids]
        assert np.all(np.diff(kept_ranks) > 0)
