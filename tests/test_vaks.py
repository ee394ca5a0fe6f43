import numpy as np
import pytest

from kcdistill import vaks
from kcdistill.knowledge import CondensedSet, build_store
from kcdistill.ogve import labeling_from_ranks
from kcdistill.vaks import augment, condense, direct_selection, epsilon_schedule


def labeled_store(n, keep_ratio, seed=0, classes=4):
    """Store with random soft labels plus a labeling keeping round(ratio*n)."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(classes), size=n)
    store = build_store(rng.normal(size=(n, 3)), probs)
    labeling = labeling_from_ranks(rng.permutation(n), keep_ratio)
    return store, labeling


def oracle_split(labeling):
    """Brute force from np.argsort: the kept ids and the discarded ids, each
    best first, and the borderline count min(|K0|, |K1|)."""
    order = np.argsort(labeling.ranks)
    kept = order[labeling.labels[order] == 1]
    discarded = order[labeling.labels[order] == 0]
    return kept, discarded, min(kept.size, discarded.size)


def oracle_blend(store, labeling, schedule):
    """Row j blends the j-th borderline id with the j-th best discarded id."""
    kept, discarded, n_low = oracle_split(labeling)
    border, partners = kept[kept.size - n_low:], discarded[:n_low]
    p = store.teacher_probs
    return border, np.array([(p[a] + eps * p[b]) / (1.0 + eps)
                             for a, b, eps in zip(border, partners, schedule)])


class TestPartition:
    """condense and direct_selection split the labeling as the argsort oracle."""

    def test_best_to_worst_is_argsort_of_ranks(self):
        for seed, n in enumerate((1, 2, 10, 257)):
            store, labeling = labeled_store(n, 0.6, seed=seed)
            order = vaks._best_to_worst(labeling)
            assert order.dtype == np.int64
            assert np.array_equal(order, np.argsort(labeling.ranks))
            kept, _, _ = oracle_split(labeling)
            assert np.array_equal(direct_selection(labeling).member_ids, kept)
            assert np.array_equal(condense(labeling, store, 0.3).member_ids, kept)

    def test_borderline_matches_discarded_size(self):
        store, labeling = labeled_store(10, 0.7)
        condensed = condense(labeling, store, 0.3)
        assert condensed.size - condensed.aug_ids.size == 4
        assert condensed.aug_ids.size == 3
        assert oracle_split(labeling)[1].size == 3

    def test_all_kept_degenerates(self):
        store, labeling = labeled_store(10, 1.0)
        condensed = condense(labeling, store, 0.3)
        assert condensed.aug_ids.size == 0
        assert condensed.aug_probs.shape[0] == 0
        assert np.array_equal(condensed.member_ids, np.argsort(labeling.ranks))

    def test_clamp_when_discarded_outnumbers_kept(self):
        store, labeling = labeled_store(10, 0.4)
        condensed = condense(labeling, store, 0.3)
        kept, discarded, n_low = oracle_split(labeling)
        assert (kept.size, discarded.size, n_low) == (4, 6, 4)
        assert condensed.size - condensed.aug_ids.size == 0
        assert np.array_equal(condensed.aug_ids, kept)
        assert np.array_equal(condensed.member_ids, kept)

    def test_lists_ordered_by_rank(self):
        store, labeling = labeled_store(30, 0.6, seed=3)
        condensed = condense(labeling, store, 0.3)
        for ids in (condensed.member_ids, condensed.aug_ids,
                    direct_selection(labeling).member_ids):
            ranks = labeling.ranks[ids]
            assert np.all(np.diff(ranks) > 0)  # strictly better-to-worse
        # the partners, seen through the blend: the best discarded ids in order
        border, oracle = oracle_blend(store, labeling,
                                      epsilon_schedule(condensed.aug_ids.size, 0.3))
        assert np.array_equal(condensed.aug_ids, border)
        np.testing.assert_allclose(condensed.aug_probs, oracle, rtol=1e-12)

    def test_partition_covers_everything_disjointly(self):
        store, labeling = labeled_store(25, 0.52, seed=4)
        condensed = condense(labeling, store, 0.3)
        kept, discarded, _ = oracle_split(labeling)
        assert np.array_equal(np.sort(condensed.member_ids), np.flatnonzero(labeling.labels))
        assert np.isin(condensed.aug_ids, condensed.member_ids).all()
        combined = np.concatenate([condensed.member_ids, discarded])
        assert np.array_equal(np.sort(combined), np.arange(25))

    def test_borderline_has_lowest_kept_scores(self):
        store, labeling = labeled_store(20, 0.7, seed=5)
        condensed = condense(labeling, store, 0.3)
        aug = condensed.aug_ids
        high = condensed.member_ids[:condensed.size - aug.size]
        assert high.size and aug.size
        assert np.array_equal(condensed.member_ids[high.size:], aug)
        assert labeling.ranks[high].max() < labeling.ranks[aug].min()


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
        kept, discarded, n_low = oracle_split(labeling)
        out = augment(kept[kept.size - n_low:], discarded[:n_low], np.zeros(n_low), store)
        np.testing.assert_array_equal(out, store.teacher_probs[kept[kept.size - n_low:]])
        condensed = condense(labeling, store, 0.0)
        np.testing.assert_array_equal(condensed.aug_probs,
                                      store.teacher_probs[condensed.aug_ids])

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
        condensed = condense(labeling, store, 0.3)
        high = condensed.member_ids[:condensed.size - condensed.aug_ids.size]
        aug = np.r_[high[0], condensed.aug_ids[1:]]
        with pytest.raises(ValueError, match="duplicate member ids"):
            CondensedSet(member_ids=np.r_[high, aug], aug_ids=aug,
                         aug_probs=condensed.aug_probs)

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
        condensed = condense(labeling, store, 0.3, constant_eps=True)
        border, oracle = oracle_blend(store, labeling, [0.3] * 3)
        assert np.array_equal(condensed.aug_ids, border)
        assert np.array_equal(condensed.member_ids, oracle_split(labeling)[0])
        np.testing.assert_allclose(condensed.aug_probs, oracle, rtol=1e-12)

    def test_direct_selection_keeps_originals(self):
        _, labeling = labeled_store(10, 0.7, seed=16)
        condensed = direct_selection(labeling)
        assert condensed.size == 7
        assert condensed.aug_ids.size == 0
        assert condensed.aug_probs.shape[0] == 0
        kept_ranks = labeling.ranks[condensed.member_ids]
        assert np.all(np.diff(kept_ranks) > 0)
