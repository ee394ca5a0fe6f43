import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from kcdistill.data import DataFormatError, first_non_finite_row, gen_gaussian_mixture
from kcdistill.knowledge import (
    ValueLabeling,
    build_store,
    check_permutation,
    check_simplex,
    export_labels,
    import_labels,
    load_labels,
    save_labels,
)
from kcdistill.ogve import ValueState, labeling_from_ranks


def simple_store(n=3, c=2):
    features = np.arange(n * 4, dtype=float).reshape(n, 4)
    probs = np.full((n, c), 1.0 / c)
    labels = np.arange(n) % c
    return build_store(features, probs, labels)


def test_build_store_basic():
    store = simple_store()
    assert store.n == 3
    assert store.dim == 4
    assert store.num_classes == 2
    state = ValueState(store.n)
    assert np.all(state.frequencies == 0)
    assert np.all(np.isnan(state.values))


def test_build_store_rejects_bad_simplex():
    features = np.zeros((2, 3))
    probs = np.array([[0.5, 0.5], [0.6, 0.5]])
    with pytest.raises(ValueError, match="sample 1.*not a probability simplex"):
        build_store(features, probs)


def test_build_store_rejects_negative_entry():
    probs = np.array([[1.2, -0.2]])
    with pytest.raises(ValueError, match="not a probability simplex"):
        build_store(np.zeros((1, 2)), probs)


def _simplex_verdict(check, probs):
    try:
        check(probs, lambda i: f"row {i}")
    except ValueError as exc:
        return str(exc)
    return None


# entries the whole-array test must not wave through: sums a hair off 1 on
# either side of the tolerance, signed zeros, tiny negatives and non-finite
_EDGE_ENTRIES = [0.0, -0.0, -1e-300, -5e-324, 1e-6, -1e-6, 5e-7, 1.0000005e-6,
                 np.nan, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 12), classes=st.integers(1, 6), data=st.data())
def test_check_simplex_agrees_with_the_row_scan(rows, classes, data):
    """The whole-array fast path only ever accepts: check_simplex gives the
    row scan's verdict and message on every matrix, rows shifted off the
    simplex by about the tolerance included."""
    p = np.asarray(data.draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                 min_size=classes, max_size=classes),
        min_size=rows, max_size=rows)), dtype=np.float64)
    sums = p.sum(axis=1, keepdims=True)
    p = np.divide(p, sums, out=np.full_like(p, 1.0 / classes), where=sums > 0)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN entry or sum here
        for _ in range(data.draw(st.integers(0, 3))):
            r, c = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, classes - 1))
            p[r, c] = data.draw(st.sampled_from(_EDGE_ENTRIES)) + data.draw(
                st.sampled_from([0.0, p[r, c], 1.0 - (p[r].sum() - p[r, c])]))
        for r in range(rows):
            if data.draw(st.booleans()):
                p[r, 0] += data.draw(st.sampled_from([1e-6, -1e-6, 5e-7, -5e-7, 9.99e-7, 1.01e-6]))
        assert _simplex_verdict(check_simplex, p) == _simplex_verdict(oracles.check_simplex, p)


@pytest.mark.parametrize("row, accepted", [
    ([0.1 + 1e-6] + [0.1] * 9, False), ([0.1 - 1e-6] + [0.1] * 9, False),
    ([0.1 + 6e-7] + [0.1] * 9, True), ([0.1 - 6e-7] + [0.1] * 9, True),
    ([0.1 + 1.1e-6] + [0.1] * 9, False), ([0.1 - 1.1e-6] + [0.1] * 9, False),
    ([0.25, 0.75, -0.0], True), ([0.25, 0.75, -5e-324], False), ([0.25, 0.75, -1e-300], False),
    ([0.25, 0.75 + 1e-9, -1e-9], False), ([np.nan, 1.0], False), ([np.inf, 0.0], False),
    ([1.0, -np.inf], False),
])
def test_check_simplex_decides_rows_at_its_edges_as_the_row_scan(row, accepted):
    """Sums off 1 by about the tolerance, signed zero, tiny negatives and
    non-finite entries in one row of an otherwise valid matrix."""
    p = np.full((4, len(row)), 1.0 / len(row))
    p[2] = row
    with np.errstate(invalid="ignore"):
        want = _simplex_verdict(oracles.check_simplex, p)
        assert _simplex_verdict(check_simplex, p) == want
    assert (want is None) == accepted


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_check_simplex_on_empty_arrays_is_the_row_scan(shape):
    p = np.zeros(shape)
    assert _simplex_verdict(check_simplex, p) == _simplex_verdict(oracles.check_simplex, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_store_names_first_non_finite_row(bad):
    probs = np.full((4, 2), 0.5)
    probs[2, 0] = bad
    probs[3, 0] = 0.9
    with pytest.raises(ValueError, match="sample 2: teacher_probs .*non-finite entry"):
        build_store(np.zeros((4, 3)), probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_store_names_first_non_finite_feature_row(bad):
    """A non-finite feature is refused when the store is built, naming the
    first bad sample, not at the first training step of a run."""
    features = np.random.default_rng(0).normal(size=(8, 3))
    features[5, 1] = bad
    features[7, 0] = np.inf
    with pytest.raises(ValueError, match="^sample 5: non-finite feature value$"):
        build_store(features, np.full((8, 3), 1 / 3), np.zeros(8, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                  elements=st.sampled_from([0.0, 1.5, np.nan, np.inf, -np.inf])))
def test_first_non_finite_row_is_the_row_scan(features):
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    assert first_non_finite_row(features) == (int(bad[0]) if bad.size else None)


@pytest.mark.parametrize("label", [-1, 2])
def test_build_store_rejects_hard_label_out_of_range(label):
    with pytest.raises(ValueError, match=f"sample 1: hard label {label} is outside \\[0, 2\\)"):
        build_store(np.zeros((3, 4)), np.full((3, 2), 0.5), [0, label, 1])


def test_build_store_rejects_empty():
    with pytest.raises(ValueError, match="empty knowledge set"):
        build_store(np.zeros((0, 3)), np.zeros((0, 2)))


def test_build_store_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        build_store(np.zeros((3, 2)), np.full((2, 2), 0.5))


def test_store_construction_deterministic():
    a = simple_store()
    b = simple_store()
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.teacher_probs, b.teacher_probs)


def test_store_arrays_immutable():
    store = simple_store()
    with pytest.raises(ValueError):
        store.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        store.teacher_probs[0, 0] = 0.9


def test_fresh_value_state_is_unobserved():
    """One value and one frequency per sample, whichever the fold rule."""
    for state in (ValueState(5), ValueState(5, latest=True)):
        arrays = [v for v in vars(state).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2
        assert state.values.shape == state.frequencies.shape == (5,)
        assert np.all(state.frequencies == 0)
        assert np.all(np.isnan(state.values))


def test_store_refuses_complex_teacher_probs():
    """A complex array is refused, not cast: a cast would drop its imaginary parts."""
    probs = np.full((2, 2), 0.5) + 0.25j
    with pytest.raises(ValueError, match="^complex values cannot be read as float64$"):
        build_store(np.zeros((2, 3)), probs)


def test_store_is_read_only_and_holds_no_value_state():
    store = simple_store()
    for attr in ("values", "last_values", "frequencies", "reset_value_state"):
        assert not hasattr(store, attr)
    arrays = [v for v in vars(store).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 3  # features, teacher_probs, hard_labels
    assert not any(a.flags.writeable for a in arrays)


def test_store_shares_a_datasets_splits_and_copies_writable_probs():
    ds = gen_gaussian_mixture(3, 4, 10, 1.0, seed=2)
    probs = np.full((ds.train_labels.size, 3), 1 / 3)
    store = build_store(ds.train_features, probs, ds.train_labels)
    assert store.features is ds.train_features
    assert store.hard_labels is ds.train_labels
    probs[0] = [1.0, 0.0, 0.0]
    assert store.teacher_probs[0, 0] == 1 / 3


def test_store_copies_writable_features_and_labels():
    features, labels = np.zeros((3, 2)), np.zeros(3, dtype=np.int64)
    store = build_store(features, np.full((3, 2), 0.5), labels)
    features[0, 0] = labels[0] = 1
    assert store.features[0, 0] == 0.0 and store.hard_labels[0] == 0
    assert not store.features.flags.writeable and not store.hard_labels.flags.writeable


def make_labeling(n=6, kept=3, seed=0):
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(n)
    labels = (ranks < kept).astype(np.uint8)
    return ValueLabeling(ranks=ranks, labels=labels)


class TestValueLabeling:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            ValueLabeling(ranks=[0, 0, 2], labels=[1, 1, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ValueLabeling(ranks=[0, 1], labels=[1])


class TestPermutationCheck:
    @pytest.mark.parametrize("ranks", [
        [0, 2, 2, 3],   # duplicate
        [0, 1, 2, 4],   # out of range
        [-1, 1, 2, 3],  # negative
        [3, 1, 2, 0, 1],  # too long
    ], ids=["duplicate", "out-of-range", "negative", "length"])
    def test_rejects(self, ranks):
        r = np.array(ranks)
        with pytest.raises(ValueError, match="ranks are not a permutation of 0..N-1"):
            check_permutation(r, 4)
        with pytest.raises(ValueError, match="ranks are not a permutation of 0..N-1"):
            labeling_from_ranks(r, 0.5)
        if r.size == 4:
            with pytest.raises(ValueError, match="ranks are not a permutation of 0..N-1"):
                ValueLabeling(ranks=r, labels=np.ones(4, np.uint8))

    def test_accepts_permutations(self):
        rng = np.random.default_rng(4)
        check_permutation(np.empty(0, dtype=np.int64), 0)
        for n in (1, 2, 7, 100):
            check_permutation(rng.permutation(n), n)


class TestLabelSerialization:
    def test_round_trip_identity(self):
        for seed in range(5):
            labeling = make_labeling(n=10 + seed, kept=4, seed=seed)
            again = import_labels(export_labels(labeling))
            assert again == labeling

    def test_file_round_trip(self, tmp_path):
        labeling = make_labeling()
        path = tmp_path / "labels.kcl"
        save_labels(path, labeling)
        assert load_labels(path) == labeling

    def test_file_error_names_the_path_and_offset(self, tmp_path):
        path = tmp_path / "bad.kcl"
        path.write_bytes(b"XXXX" + export_labels(make_labeling())[4:])
        with pytest.raises(DataFormatError) as caught:
            load_labels(path)
        assert str(caught.value) == f"{path}: bad magic b'XXXX' (byte offset 0)"

    def test_truncated_stream(self):
        blob = export_labels(make_labeling())
        with pytest.raises(DataFormatError, match="byte offset"):
            import_labels(blob[:-3])

    def test_error_pickles_with_message_and_offset(self):
        with pytest.raises(DataFormatError) as caught:
            import_labels(b"XXXX" + export_labels(make_labeling())[4:])
        err = pickle.loads(pickle.dumps(caught.value))
        assert type(err) is DataFormatError
        assert str(err) == "bad magic b'XXXX' (byte offset 0)"
        assert offset_of(err) == 0

    def test_truncated_header(self):
        with pytest.raises(DataFormatError, match="truncated header"):
            import_labels(b"KC")

    def test_bad_magic(self):
        blob = export_labels(make_labeling())
        with pytest.raises(DataFormatError, match="bad magic"):
            import_labels(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(export_labels(make_labeling()))
        blob[4] = 99
        with pytest.raises(DataFormatError, match="unsupported version"):
            import_labels(bytes(blob))

    def test_bytes_match_struct_layout(self):
        labeling = make_labeling(n=7, kept=3, seed=2)
        expected = struct.pack("<4sIQ", b"KCL1", 1, 7) + b"".join(
            struct.pack("<IIB", i, int(labeling.ranks[i]), int(labeling.labels[i]))
            for i in range(7))
        assert export_labels(labeling) == expected

    @pytest.mark.parametrize("record", [0, 3, 5])
    def test_out_of_order_sample_id(self, record):
        blob = bytearray(export_labels(make_labeling()))
        start = 16 + 9 * record
        blob[start:start + 4] = (7).to_bytes(4, "little")
        with pytest.raises(DataFormatError,
                           match=f"record {record} has out-of-order sample_id 7 "
                                 f"\\(byte offset {start}\\)"):
            import_labels(bytes(blob))

    @pytest.mark.parametrize("record", [0, 3, 5])
    def test_non_binary_label(self, record):
        blob = bytearray(export_labels(make_labeling()))
        start = 16 + 9 * record
        blob[start + 8] = 2
        with pytest.raises(DataFormatError,
                           match=f"record {record} has non-binary label 2 "
                                 f"\\(byte offset {start}\\)"):
            import_labels(bytes(blob))

    def test_first_faulty_record_is_reported(self):
        blob = bytearray(export_labels(make_labeling()))
        blob[16 + 9 * 4:16 + 9 * 4 + 4] = (0).to_bytes(4, "little")
        blob[16 + 9 * 2 + 8] = 3
        with pytest.raises(DataFormatError, match="record 2 has non-binary label 3"):
            import_labels(bytes(blob))

    def test_corrupt_rank_content(self):
        labeling = make_labeling()
        blob = bytearray(export_labels(labeling))
        # overwrite first record's rank with an out-of-range value
        blob[20:24] = (2 ** 20).to_bytes(4, "little")
        with pytest.raises(DataFormatError):
            import_labels(bytes(blob))


# a ten-record stream: 16 header bytes, then 9 bytes per record
FUZZ_LABELING = make_labeling(n=10, kept=6, seed=7)
FUZZ_BLOB = export_labels(FUZZ_LABELING)
label_fuzz = settings(max_examples=60, deadline=None)


def offset_of(err: DataFormatError) -> int:
    """The byte offset an import_labels error ends with."""
    return int(re.fullmatch(r".* \(byte offset (\d+)\)", str(err), re.S).group(1))


def assert_stream_rejected(blob, offset=None):
    with pytest.raises(DataFormatError, match="byte offset") as caught:
        import_labels(blob)
    assert 0 <= offset_of(caught.value) <= len(blob)
    if offset is not None:
        assert offset_of(caught.value) == offset
    return caught.value


def with_rank(record, rank):
    blob = bytearray(FUZZ_BLOB)
    at = 16 + 9 * record + 4
    blob[at:at + 4] = struct.pack("<I", rank)
    return bytes(blob)


class TestHostileLabelStream:
    """import_labels on corrupt streams: every failure is a DataFormatError
    whose byte offset lies inside the stream; nothing else escapes."""

    def test_truncation_at_every_length(self):
        for cut in range(len(FUZZ_BLOB)):
            assert_stream_rejected(FUZZ_BLOB[:cut])

    @label_fuzz
    @given(bit=st.integers(0, 8 * 16 - 1))
    def test_header_bit_flip(self, bit):
        flipped = bytearray(FUZZ_BLOB)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert_stream_rejected(bytes(flipped))

    @label_fuzz
    @given(n=st.integers(0, 2**64 - 1).filter(lambda n: n != FUZZ_LABELING.n))
    def test_header_count_disagrees(self, n):
        assert_stream_rejected(FUZZ_BLOB[:8] + struct.pack("<Q", n) + FUZZ_BLOB[16:])

    def test_zero_records(self):
        err = assert_stream_rejected(struct.pack("<4sIQ", b"KCL1", 1, 0), offset=16)
        assert "empty labeling" in str(err)

    @label_fuzz
    @given(bit=st.integers(8 * 16, 8 * len(FUZZ_BLOB) - 1))
    def test_record_bit_flip_rejected_or_round_trips(self, bit):
        flipped = bytearray(FUZZ_BLOB)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            labeling = import_labels(bytes(flipped))
        except DataFormatError as err:
            assert 16 <= offset_of(err) < len(flipped)
        else:
            assert export_labels(labeling) == bytes(flipped)

    @label_fuzz
    @given(record=st.integers(0, 9), other=st.integers(0, 9))
    def test_duplicate_rank_names_the_later_record(self, record, other):
        assume(record != other)
        blob = with_rank(max(record, other), int(FUZZ_LABELING.ranks[min(record, other)]))
        assert_stream_rejected(blob, offset=16 + 9 * max(record, other) + 4)

    @label_fuzz
    @given(record=st.integers(0, 9), rank=st.integers(10, 2**32 - 1))
    def test_out_of_range_rank_names_its_record(self, record, rank):
        assert_stream_rejected(with_rank(record, rank), offset=16 + 9 * record + 4)
