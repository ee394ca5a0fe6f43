import tracemalloc

import numpy as np
import pytest

from kcdistill import vaks
from kcdistill.knowledge import build_store
from kcdistill.ogve import labeling_from_ranks
from kcdistill.vaks import augment, condense, direct_selection, epsilon_schedule
from oracles import augment as whole_matrix_augment


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
    """direct_selection and condense split the labeling as the argsort oracle."""

    def test_selection_and_blend_match_the_argsort_oracle(self):
        for seed, n in enumerate((1, 2, 10, 257)):
            store, labeling = labeled_store(n, 0.6, seed=seed)
            kept, _, n_low = oracle_split(labeling)
            selected = direct_selection(labeling)
            assert selected.dtype == np.int64
            assert np.array_equal(selected, np.sort(kept))
            assert np.array_equal(condense(labeling, store, 0.3)[0], kept[kept.size - n_low:])

    def test_borderline_matches_discarded_size(self):
        store, labeling = labeled_store(10, 0.7)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        assert direct_selection(labeling).size - aug_ids.size == 4
        assert aug_ids.size == 3
        assert oracle_split(labeling)[1].size == 3

    def test_all_kept_degenerates(self):
        store, labeling = labeled_store(10, 1.0)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        assert aug_ids.size == 0
        assert aug_probs.shape[0] == 0
        assert np.array_equal(direct_selection(labeling), np.arange(10))

    def test_clamp_when_discarded_outnumbers_kept(self):
        store, labeling = labeled_store(10, 0.4)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        kept, discarded, n_low = oracle_split(labeling)
        assert (kept.size, discarded.size, n_low) == (4, 6, 4)
        assert np.array_equal(aug_ids, kept)
        assert np.array_equal(direct_selection(labeling), np.sort(kept))

    def test_lists_ordered(self):
        store, labeling = labeled_store(30, 0.6, seed=3)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        assert np.all(np.diff(labeling.ranks[aug_ids]) > 0)  # better-to-worse
        assert np.all(np.diff(direct_selection(labeling)) > 0)  # ascending ids
        # the partners, seen through the blend: the best discarded ids in order
        border, oracle = oracle_blend(store, labeling,
                                      epsilon_schedule(aug_ids.size, 0.3))
        assert np.array_equal(aug_ids, border)
        np.testing.assert_allclose(aug_probs, oracle, rtol=1e-12)

    def test_partition_covers_everything_disjointly(self):
        store, labeling = labeled_store(25, 0.52, seed=4)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        _, discarded, _ = oracle_split(labeling)
        selected = direct_selection(labeling)
        assert np.array_equal(selected, np.flatnonzero(labeling.labels))
        assert np.isin(aug_ids, selected).all()
        combined = np.concatenate([selected, discarded])
        assert np.array_equal(np.sort(combined), np.arange(25))

    def test_borderline_has_lowest_kept_scores(self):
        store, labeling = labeled_store(20, 0.7, seed=5)
        aug = condense(labeling, store, 0.3)[0]
        high = np.setdiff1d(direct_selection(labeling), aug)
        assert high.size and aug.size
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

    @pytest.mark.parametrize("n", [-1, -5])
    def test_rejects_a_negative_length(self, n):
        with pytest.raises(ValueError, match=f"^schedule length must be >= 0, got {n}$"):
            epsilon_schedule(n, 0.3)

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
        aug_ids, aug_probs = condense(labeling, store, 0.0)
        np.testing.assert_array_equal(aug_probs,
                                      store.teacher_probs[aug_ids])

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

    @pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default-chunk", "7-row-chunk"])
    def test_chunked_gather_equals_whole_matrix_expression(self, monkeypatch, chunk_rows):
        """A borderline slice over two chunks long, whose last chunk is
        short, blends to the whole-matrix expression's bits."""
        if chunk_rows is not None:
            monkeypatch.setattr(vaks, "_CHUNK_ROWS", chunk_rows)
        n_low = 2 * vaks._CHUNK_ROWS + 3
        rng = np.random.default_rng(10)
        probs = rng.dirichlet(np.ones(5), size=2 * n_low + 1)
        store = build_store(np.zeros((probs.shape[0], 1)), probs)
        ids = rng.permutation(probs.shape[0])
        k1l, k0, eps = ids[:n_low], ids[n_low:2 * n_low], epsilon_schedule(n_low, 0.3)
        out = augment(k1l, k0, eps, store)
        assert out.tobytes() == whole_matrix_augment(k1l, k0, eps, store.teacher_probs).tobytes()

    def test_traced_peak_holds_one_gather_and_a_chunk(self):
        """augment's traced peak stays under (n_low + chunk) x C float64s plus
        its 1 + eps temporary and 64 KiB; the whole-matrix expression holds
        two n_low x C gathers at once, which is over that budget here."""
        n_low, c = 4 * vaks._CHUNK_ROWS, 8
        rng = np.random.default_rng(11)
        store = build_store(np.zeros((2 * n_low, 1)), rng.dirichlet(np.ones(c), size=2 * n_low))
        ids = rng.permutation(2 * n_low)
        k1l, k0, eps = ids[:n_low], ids[n_low:], epsilon_schedule(n_low, 0.3)
        tracemalloc.start()
        try:
            augment(k1l, k0, eps, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n_low + vaks._CHUNK_ROWS) * c * 8 + n_low * 8 + 64 * 1024


class TestSummarize:
    def test_disjoint_union_size(self):
        store, labeling = labeled_store(10, 0.7, seed=10)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        selected = direct_selection(labeling)
        assert selected.size == 7
        assert selected.size - aug_ids.size == 4
        assert aug_ids.size == 3
        assert aug_probs.shape == (3, 4)
        assert np.isin(aug_ids, selected).all()

    def test_empty_borderline_keeps_originals(self):
        store, labeling = labeled_store(10, 1.0)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        assert direct_selection(labeling).size == 10
        assert aug_ids.size == 0
        assert aug_probs.shape[0] == 0

    def test_clamped_case_all_augmented(self):
        store, labeling = labeled_store(10, 0.4, seed=11)
        aug_ids, aug_probs = condense(labeling, store, 0.3)
        assert np.array_equal(np.sort(aug_ids), direct_selection(labeling))
        assert aug_ids.size == 4

    def test_size_equals_kept_count_across_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 120))
            ratio = float(rng.uniform(0.05, 1.0))
            store, labeling = labeled_store(n, ratio, seed=int(rng.integers(1e6)))
            k1 = int(labeling.labels.sum())
            assert direct_selection(labeling).size == k1
            assert condense(labeling, store, 0.3)[0].size == min(k1, n - k1)

    def test_deterministic(self):
        store, labeling = labeled_store(20, 0.6, seed=14)
        a = condense(labeling, store, 0.3)
        b = condense(labeling, store, 0.3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_constant_eps_variant(self):
        store, labeling = labeled_store(10, 0.7, seed=15)
        aug_ids, aug_probs = condense(labeling, store, 0.3, constant_eps=True)
        border, oracle = oracle_blend(store, labeling, [0.3] * 3)
        assert np.array_equal(aug_ids, border)
        np.testing.assert_allclose(aug_probs, oracle, rtol=1e-12)

    def test_direct_selection_keeps_originals(self):
        _, labeling = labeled_store(10, 0.7, seed=16)
        selected = direct_selection(labeling)
        assert selected.size == 7
        assert np.array_equal(selected, np.sort(oracle_split(labeling)[0]))
        assert labeling.ranks[selected].max() == 6  # the top seven ranks
