import struct

import numpy as np
import pytest

from kcdistill.knowledge import (
    CondensedSet,
    LabelStreamError,
    ValueLabeling,
    build_store,
    check_permutation,
    export_labels,
    import_labels,
    load_labels,
    save_labels,
)


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
    assert np.all(store.frequencies == 0)
    assert np.all(np.isnan(store.values))


def test_build_store_rejects_bad_simplex():
    features = np.zeros((2, 3))
    probs = np.array([[0.5, 0.5], [0.6, 0.5]])
    with pytest.raises(ValueError, match="sample 1.*not a probability simplex"):
        build_store(features, probs)


def test_build_store_rejects_negative_entry():
    probs = np.array([[1.2, -0.2]])
    with pytest.raises(ValueError, match="not a probability simplex"):
        build_store(np.zeros((1, 2)), probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_store_names_first_non_finite_row(bad):
    probs = np.full((4, 2), 0.5)
    probs[2, 0] = bad
    probs[3, 0] = 0.9
    with pytest.raises(ValueError, match="sample 2: teacher_probs .*non-finite entry"):
        build_store(np.zeros((4, 3)), probs)


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


def test_reset_value_state():
    store = simple_store()
    store.values[:] = 1.0
    store.frequencies[:] = 4
    store.reset_value_state()
    assert np.all(store.frequencies == 0)
    assert np.all(np.isnan(store.values))


def make_labeling(n=6, kept=3, seed=0):
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(n)
    probs = 1.0 - ranks / float(n)
    labels = (ranks < kept).astype(np.uint8)
    return ValueLabeling(ranks=ranks, probs=probs, labels=labels)


class TestValueLabeling:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            ValueLabeling(ranks=[0, 0, 2], probs=[1.0, 1.0, 0.5], labels=[1, 1, 0])

    def test_rejects_inconsistent_probs(self):
        with pytest.raises(ValueError, match="probs"):
            ValueLabeling(ranks=[0, 1], probs=[1.0, 0.4], labels=[1, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ValueLabeling(ranks=[0, 1], probs=[1.0, 0.5], labels=[1])


class TestPermutationCheck:
    @pytest.mark.parametrize("ranks", [
        [0, 2, 2, 3],   # duplicate
        [0, 1, 2, 4],   # out of range
        [-1, 1, 2, 3],  # negative
        [3, 1, 2, 0, 1],  # too long
    ], ids=["duplicate", "out-of-range", "negative", "length"])
    def test_rejects(self, ranks):
        from kcdistill.ogve import rank_probability

        r = np.array(ranks)
        with pytest.raises(ValueError, match="ranks are not a permutation of 0..N-1"):
            check_permutation(r, 4)
        with pytest.raises(ValueError, match="ranks are not a permutation of 0..N-1"):
            rank_probability(r, 4)
        if r.size == 4:
            with pytest.raises(ValueError, match="ranks are not a permutation of 0..N-1"):
                ValueLabeling(ranks=r, probs=1.0 - r / 4.0, labels=np.ones(4, np.uint8))

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

    def test_truncated_stream(self):
        blob = export_labels(make_labeling())
        with pytest.raises(LabelStreamError, match="byte offset"):
            import_labels(blob[:-3])

    def test_truncated_header(self):
        with pytest.raises(LabelStreamError, match="truncated header"):
            import_labels(b"KC")

    def test_bad_magic(self):
        blob = export_labels(make_labeling())
        with pytest.raises(LabelStreamError, match="bad magic"):
            import_labels(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(export_labels(make_labeling()))
        blob[4] = 99
        with pytest.raises(LabelStreamError, match="unsupported version"):
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
        with pytest.raises(LabelStreamError,
                           match=f"record {record} has out-of-order sample_id 7 "
                                 f"\\(byte offset {start}\\)"):
            import_labels(bytes(blob))

    @pytest.mark.parametrize("record", [0, 3, 5])
    def test_non_binary_label(self, record):
        blob = bytearray(export_labels(make_labeling()))
        start = 16 + 9 * record
        blob[start + 8] = 2
        with pytest.raises(LabelStreamError,
                           match=f"record {record} has non-binary label 2 "
                                 f"\\(byte offset {start}\\)"):
            import_labels(bytes(blob))

    def test_first_faulty_record_is_reported(self):
        blob = bytearray(export_labels(make_labeling()))
        blob[16 + 9 * 4:16 + 9 * 4 + 4] = (0).to_bytes(4, "little")
        blob[16 + 9 * 2 + 8] = 3
        with pytest.raises(LabelStreamError, match="record 2 has non-binary label 3"):
            import_labels(bytes(blob))

    def test_corrupt_rank_content(self):
        labeling = make_labeling()
        blob = bytearray(export_labels(labeling))
        # overwrite first record's rank with an out-of-range value
        blob[20:24] = (2 ** 20).to_bytes(4, "little")
        with pytest.raises(LabelStreamError):
            import_labels(bytes(blob))


class TestCondensedSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            CondensedSet(member_ids=[1, 1])

    def test_rejects_bad_aug_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            CondensedSet(member_ids=[0], aug_ids=[0], aug_probs=[[0.7, 0.7]])

    def test_names_first_off_simplex_row(self):
        rows = [[0.5, 0.5], [0.6, 0.6], [0.9, 0.9]]
        with pytest.raises(ValueError,
                           match="aug_probs for sample 4 is not a probability simplex"):
            CondensedSet(member_ids=[2, 4, 6], aug_ids=[2, 4, 6], aug_probs=rows)

    def test_rejects_non_member_aug_id(self):
        with pytest.raises(ValueError, match="aug id 9 is not a member"):
            CondensedSet(member_ids=[3, 5], aug_ids=[5, 9], aug_probs=np.full((2, 2), 0.5))

    def test_rejects_duplicate_aug_ids(self):
        with pytest.raises(ValueError, match="duplicate aug ids"):
            CondensedSet(member_ids=[3, 5], aug_ids=[5, 5], aug_probs=np.full((2, 2), 0.5))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rejects_aug_row_count_mismatch(self, rows):
        with pytest.raises(ValueError, match="one row per aug id"):
            CondensedSet(member_ids=[3, 5], aug_ids=[3, 5], aug_probs=np.full((rows, 2), 0.5))

    def test_provenance_derived_from_aug(self):
        cs = CondensedSet(member_ids=[3, 5], aug_ids=[5], aug_probs=[[0.5, 0.5]])
        assert cs.size == 2
        assert list(np.setdiff1d(cs.member_ids, cs.aug_ids)) == [3]
        assert list(cs.aug_ids) == [5]
        assert cs.aug_probs.shape == (1, 2)
