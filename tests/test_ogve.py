import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcdistill.ogve import (
    OgveConfig,
    ValueState,
    entropy_rows,
    keep_count,
    label_by_ratio,
    labeling_from_ranks,
    observe_batch,
    rank,
    ranks_from_scores,
)
from oracles import (
    TwoArrayValues,
    ValueRecord,
    binarize,
    cost_aware_score,
    lexsort_ranks,
    masked_entropy_rows,
    prediction_entropy,
    rank_probability,
    ratio_threshold,
    record_value,
    running_means,
)

# observations: both zeros, subnormals, and values far from 1 either way
OBSERVED = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e300)


class TestPredictionEntropy:
    def test_uniform_is_log_c(self):
        assert prediction_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-9)

    def test_one_hot_is_zero(self):
        assert prediction_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_term_by_term_oracle(self):
        p = [0.5, 0.25, 0.25]
        oracle = -sum(v * math.log(v) for v in p)
        assert oracle == pytest.approx(1.039721, abs=1e-6)
        assert prediction_entropy(p) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            prediction_entropy([0.6, 0.5])
        with pytest.raises(ValueError, match="simplex"):
            prediction_entropy([1.2, -0.2])

    def test_bounds_on_random_simplexes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(c))
            h = prediction_entropy(p)
            assert 0.0 <= h <= math.log(c) + 1e-12


class TestEntropyRows:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                      elements=st.floats(-30.0, 30.0)), st.data())
    def test_fast_path_is_the_masked_terms_bit_for_bit(self, logits, data):
        """Softmax rows (no zero) take the fast path and match the masked
        terms exactly; rows with exact zeros take the masked path (the fast
        one would give 0 * log 0 = NaN); a NaN entry makes its row NaN and
        leaves the other rows as the masked terms give them."""
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        assert p.min() > 0.0
        assert entropy_rows(p).tobytes() == masked_entropy_rows(p).tobytes()

        zeros = data.draw(hnp.arrays(np.bool_, p.shape))
        zeroed = np.where(zeros, 0.0, p)
        got = entropy_rows(zeroed)
        assert np.isfinite(got).all()
        assert got.tobytes() == masked_entropy_rows(zeroed).tobytes()

        flat = zeroed.reshape(-1, p.shape[-1])
        row = data.draw(st.integers(0, flat.shape[0] - 1))
        flat[row, data.draw(st.integers(0, p.shape[-1] - 1))] = np.nan
        got = entropy_rows(flat)
        assert np.isnan(got[row])
        others = np.arange(flat.shape[0]) != row
        assert got[others].tobytes() == masked_entropy_rows(flat[others]).tobytes()


class TestRecordValue:
    def test_first_observation(self):
        rec = record_value(ValueRecord(), 2.0)
        assert rec == ValueRecord(value=2.0, frequency=1)

    def test_two_observations_average(self):
        rec = record_value(record_value(ValueRecord(), 2.0), 4.0)
        assert rec.frequency == 2
        assert rec.value == pytest.approx(3.0, rel=1e-12)

    def test_three_observations_running_mean_oracle(self):
        rec = ValueRecord()
        for v in (1.0, 2.0, 6.0):
            rec = record_value(rec, v)
        assert rec.frequency == 3
        assert rec.value == pytest.approx(np.mean([1.0, 2.0, 6.0]), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            record_value(ValueRecord(), -0.5)

    def test_matches_arithmetic_mean_on_random_sequences(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            seq = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 60)))
            rec = ValueRecord()
            for v in seq:
                rec = record_value(rec, float(v))
            assert rec.value == pytest.approx(float(np.mean(seq)), rel=1e-12)


class TestObserveBatch:
    def test_matches_scalar_updates(self):
        state = ValueState(4)
        rng = np.random.default_rng(2)
        records = [ValueRecord() for _ in range(4)]
        for _ in range(5):
            ids = rng.permutation(4)[:3]
            vals = rng.uniform(0, 2, size=3)
            observe_batch(state, ids, vals)
            for i, v in zip(ids, vals):
                records[i] = record_value(records[i], float(v))
        for i, rec in enumerate(records):
            assert state.frequencies[i] == rec.frequency
            if rec.frequency:
                assert state.values[i] == pytest.approx(rec.value, rel=1e-12)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            observe_batch(ValueState(2), [0], [-1.0])

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejected_batch_changes_nothing(self, bad):
        state = ValueState(2)
        with pytest.raises(ValueError, match="finite and >= 0"):
            observe_batch(state, [0, 1], [1.0, bad])
        assert np.isnan(state.values).all() and not state.frequencies.any()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 24))
    def test_in_place_update_is_the_where_expression_bit_for_bit(self, data, n):
        """Batches of distinct ids over a state with some samples already
        observed (any frequency) and some not: every batch writes exactly
        the np.where running mean, -0.0 and 0.0 kept apart, and frequency
        + 1, and touches no other sample."""
        state = ValueState(n)
        seen = data.draw(hnp.arrays(np.bool_, n))
        state.frequencies[seen] = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, 10**6)))[seen]
        state.values[seen] = data.draw(hnp.arrays(np.float64, n, elements=OBSERVED))[seen]
        for _ in range(data.draw(st.integers(1, 4))):
            ids = np.array(data.draw(st.permutations(range(n))))[:data.draw(st.integers(0, n))]
            vals = data.draw(hnp.arrays(np.float64, ids.size, elements=OBSERVED))
            want = running_means(state.values[ids], state.frequencies[ids], vals)
            before = [a.copy() for a in (state.values, state.frequencies)]
            observe_batch(state, ids, vals)
            assert state.values[ids].tobytes() == want.tobytes()
            assert np.array_equal(state.frequencies[ids], before[1][ids] + 1)
            rest = np.setdiff1d(np.arange(n), ids)
            for now, then in zip((state.values, state.frequencies), before):
                assert now[rest].tobytes() == then[rest].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 24))
    def test_both_fold_rules_match_the_two_array_oracle(self, data, n):
        """Over a random sequence of batches of distinct ids, a default
        state's values are the oracle's running means and a latest state's
        its latest observations, bit for bit, with the oracle's frequencies."""
        mean, latest, oracle = ValueState(n), ValueState(n, latest=True), TwoArrayValues(n)
        for _ in range(data.draw(st.integers(0, 8))):
            ids = np.array(data.draw(st.permutations(range(n))))[:data.draw(st.integers(0, n))]
            vals = data.draw(hnp.arrays(np.float64, ids.size, elements=OBSERVED))
            for state in (mean, latest):
                observe_batch(state, ids, vals)
            oracle.observe(ids, vals)
        assert mean.values.tobytes() == oracle.values.tobytes()
        assert latest.values.tobytes() == oracle.last_values.tobytes()
        for state in (mean, latest):
            assert state.frequencies.tobytes() == oracle.frequencies.tobytes()


class TestCostAwareScore:
    def test_frequency_exponent_oracle(self):
        oracle = math.exp(0.03 * math.log(10))
        assert oracle == pytest.approx(1.071519, abs=1e-6)
        got = cost_aware_score(ValueRecord(1.0, 10), OgveConfig(alpha=0.03))
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_alpha_zero_disables_reweighting(self):
        assert cost_aware_score(ValueRecord(2.5, 7), OgveConfig(alpha=0.0)) == 2.5

    def test_frequency_one_is_identity(self):
        for alpha in (0.0, 0.03, 1.5):
            assert cost_aware_score(ValueRecord(2.5, 1), OgveConfig(alpha=alpha)) == 2.5

    def test_unobserved_rejected(self):
        with pytest.raises(ValueError, match="unobserved"):
            cost_aware_score(ValueRecord(), OgveConfig())

    def test_config_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            OgveConfig(alpha=-0.1)


def state_with_scores(values, frequencies=None):
    state = ValueState(len(values))
    state.values[:] = values
    state.frequencies[:] = frequencies if frequencies is not None else 1
    return state


class TestRank:
    def test_descending_sort(self):
        state = state_with_scores([3.0, 1.0, 2.0])
        assert list(rank(state, OgveConfig(alpha=0.0))) == [0, 2, 1]

    def test_tie_break_by_id(self):
        state = state_with_scores([1.0, 1.0])
        assert list(rank(state, OgveConfig(alpha=0.0))) == [0, 1]

    def test_unobserved_ranked_last(self):
        state = state_with_scores([0.1, 0.5, 0.9])
        state.frequencies[1] = 0
        state.values[1] = np.nan
        ranks = rank(state, OgveConfig(alpha=0.0))
        assert ranks[1] == 2

    def test_unobserved_ranked_last_in_id_order(self):
        rng = np.random.default_rng(8)
        state = state_with_scores(rng.uniform(0.1, 2.0, size=40),
                                  rng.integers(1, 5, size=40))
        unobserved = np.flatnonzero(rng.random(40) < 0.4)
        state.frequencies[unobserved] = 0
        state.values[unobserved] = np.nan
        ranks = rank(state, OgveConfig())
        assert list(ranks[unobserved]) == list(range(40 - unobserved.size, 40))
        assert np.array_equal(ranks, lexsort_ranks(
            np.where(state.frequencies > 0, state.values * state.frequencies ** 0.03,
                     -np.inf)))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.1, 4.0, size=50)
        base = ranks_from_scores(scores)
        transforms = [
            lambda x: 2.5 * x + 1.0,
            np.sqrt,
            np.log1p,
            lambda x: x ** 3,
            np.expm1,
            lambda x: x / (1.0 + x),
            np.tanh,
            lambda x: 0.01 * x,
            lambda x: x + 100.0,
            np.exp,
        ]
        for f in transforms:
            assert np.array_equal(ranks_from_scores(f(scores)), base)

    def test_latest_state_ranks_by_the_latest_observation(self):
        """Sample 0 sees 0.0 then 5.0 (mean 2.5), sample 1 sees 5.5 then 0.5
        (mean 3.0): the running mean ranks sample 1 first, the latest
        observation sample 0."""
        ranks = []
        for latest in (False, True):
            state = ValueState(2, latest=latest)
            observe_batch(state, [0, 1], [0.0, 5.5])
            observe_batch(state, [0, 1], [5.0, 0.5])
            ranks.append(list(rank(state, OgveConfig(alpha=0.0))))
        assert ranks == [[1, 0], [0, 1]]


SPECIAL_SCORES = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
rank_fuzz = settings(max_examples=150, deadline=None)


class TestRanksFromScores:
    """The argsort-and-repair ranking against one lexsort, bit for bit."""

    @rank_fuzz
    @given(n=st.integers(0, 3000), distinct=st.integers(1, 6000),
           special=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_lexsort_oracle(self, n, distinct, special, seed):
        """Values from a palette of `distinct` normals (heavy ties when it
        is small, none to speak of when it is large), each replaced by NaN,
        ±0.0 or ±inf with probability `special`."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=distinct)[rng.integers(0, distinct, size=n)]
        swap = rng.random(n) < special
        scores[swap] = rng.choice(SPECIAL_SCORES, size=int(swap.sum()))
        assert np.array_equal(ranks_from_scores(scores), lexsort_ranks(scores))

    @rank_fuzz
    @given(hnp.arrays(np.float64, st.integers(0, 60),
                      elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_equals_lexsort_oracle_on_any_floats(self, scores):
        assert np.array_equal(ranks_from_scores(scores), lexsort_ranks(scores))

    @pytest.mark.parametrize("value", [1.5, 0.0, -0.0, np.inf, -np.inf, np.nan])
    def test_all_tied_is_id_order(self, value):
        scores = np.full(2500, value)
        assert np.array_equal(ranks_from_scores(scores), np.arange(2500))

    def test_signed_zeros_tie(self):
        assert list(ranks_from_scores([0.0, -0.0, 0.0, -0.0])) == [0, 1, 2, 3]

    def test_nan_ranks_last_in_id_order(self):
        assert list(ranks_from_scores([np.nan, -np.inf, np.nan, 2.0])) == [2, 1, 3, 0]


class TestRankProbability:
    @pytest.mark.parametrize("r,expected", [(0, 1.0), (50, 0.5), (99, 0.01)])
    def test_substitution(self, r, expected):
        ranks = np.arange(100)
        ranks[0], ranks[r] = r, 0  # sample 0 gets rank r
        probs = rank_probability(ranks, 100)
        assert probs[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            rank_probability(np.array([0, 0, 1]), 3)

    def test_range(self):
        probs = rank_probability(np.arange(10), 10)
        assert probs.max() == 1.0
        assert probs.min() == pytest.approx(0.1)


def brute_force_count(n, tau):
    return sum(1 for r in range(n) if 1.0 - r / n >= tau)


class TestBinarize:
    def test_example_pair(self):
        labels = binarize(np.array([1.0, 0.5]), 0.9423)
        assert list(labels) == [1, 0]

    def test_boundary_inclusive(self):
        assert binarize(np.array([0.7]), 0.7)[0] == 1

    def test_count_at_n10_tau07(self):
        # direct enumeration of 1 - R/10 >= 0.7 keeps ranks 0..3
        probs = rank_probability(np.arange(10), 10)
        labels = binarize(probs, 0.7)
        assert int(labels.sum()) == brute_force_count(10, 0.7) == 4
        assert list(np.flatnonzero(labels)) == [0, 1, 2, 3]

    def test_rejects_bad_tau(self):
        probs = np.array([0.5])
        for tau in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                binarize(probs, tau)

    def test_closed_form_count_vs_enumeration(self):
        rng = np.random.default_rng(4)
        for n in list(range(1, 40)) + [63, 100, 200]:
            probs = rank_probability(np.arange(n), n)
            for tau in rng.uniform(0.001, 1.0, size=12):
                count = int(binarize(probs, tau).sum())
                assert count == brute_force_count(n, tau)
                tn = tau * n
                closed = n - math.ceil(tn) + 1 if float(tn).is_integer() else n - math.floor(tn)
                assert count == min(n, closed)

    def test_lowering_tau_never_drops_labels(self):
        probs = rank_probability(np.arange(50), 50)
        prev = binarize(probs, 0.99)
        for tau in np.linspace(0.95, 0.05, 19):
            cur = binarize(probs, float(tau))
            assert np.all(cur >= prev)
            prev = cur

    def test_count_depends_only_on_n_and_tau(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            tau = float(rng.uniform(0.05, 1.0))
            counts = set()
            for _ in range(4):
                ranks = rng.permutation(n)
                counts.add(int(binarize(rank_probability(ranks, n), tau).sum()))
            assert len(counts) == 1


class TestRatioLabeling:
    def test_keep_count_rounds_half_up(self):
        assert keep_count(10, 0.7) == 7
        assert keep_count(800, 0.9422865815358938) == 754
        assert keep_count(10, 0.04) == 1  # clamped to at least one
        assert keep_count(10, 1.0) == 10

    def test_threshold_retains_exact_count(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 500))
            ratio = float(rng.uniform(0.05, 1.0))
            labeling = labeling_from_ranks(rng.permutation(n), ratio)
            assert int(labeling.labels.sum()) == keep_count(n, ratio)

    def test_kept_set_is_top_ranked(self):
        labeling = labeling_from_ranks(np.random.default_rng(7).permutation(30), 0.5)
        kept_ranks = labeling.ranks[labeling.labels == 1]
        assert set(kept_ranks) == set(range(keep_count(30, 0.5)))

    def test_label_by_ratio_uses_store_scores(self):
        state = state_with_scores([0.1, 0.9, 0.5, 0.7])
        labeling = label_by_ratio(state, OgveConfig(alpha=0.0), 0.5)
        assert list(np.flatnonzero(labeling.labels)) == [1, 3]

    def test_threshold_matches_labeling(self):
        n, ratio = 37, 0.61
        labeling = labeling_from_ranks(np.arange(n), ratio)
        probs = rank_probability(labeling.ranks, n)
        assert np.array_equal(labeling.labels, binarize(probs, ratio_threshold(n, ratio)))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 200), st.floats(0.0, 1.0, exclude_min=True))
    def test_keep_rule_is_the_rank_probability_rule(self, data, n, tau):
        """ranks < keep_count(N, tau) keeps the same samples, bit for bit, as
        the paper's rule 1 - r/N >= the ratio cutoff."""
        ranks = data.draw(st.permutations(range(n)))
        labels = labeling_from_ranks(ranks, tau).labels
        oracle = binarize(rank_probability(ranks, n), ratio_threshold(n, tau))
        assert labels.dtype == oracle.dtype and np.array_equal(labels, oracle)
