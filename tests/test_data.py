import os

import numpy as np
import pytest

from kcdistill.data import (
    DataFormatError,
    Dataset,
    gen_gaussian_mixture,
    load_csv,
    load_split_dir,
    save_csv,
    save_split_dir,
    write_atomic,
)
from kcdistill.nn import TrainConfig, forward, train_classifier, train_teacher


class TestGenerator:
    def test_same_seed_identical(self):
        a = gen_gaussian_mixture(10, 16, 100, 1.0, seed=5)
        b = gen_gaussian_mixture(10, 16, 100, 1.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)

    def test_split_sizes_and_disjointness(self):
        ds = gen_gaussian_mixture(5, 4, 40, 1.0, seed=1)
        assert ds.n == 200
        assert ds.train_indices.size == 160
        assert ds.test_indices.size == 40
        assert np.intersect1d(ds.train_indices, ds.test_indices).size == 0

    def test_train_features_standardized(self):
        ds = gen_gaussian_mixture(6, 8, 50, 1.3, seed=2)
        np.testing.assert_allclose(ds.train_features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(ds.train_features.std(axis=0), 1.0, atol=1e-9)

    def test_zero_spread_collapses_and_memorizes(self):
        ds = gen_gaussian_mixture(4, 6, 25, 0.0, seed=3)
        cfg = TrainConfig(lr=0.1, batch_size=16)
        model = train_classifier(ds.train_features, ds.train_labels, (6, 8, 4), cfg, 30, seed=0)
        preds = np.argmax(forward(model, ds.test_features), axis=1)
        assert np.mean(preds == ds.test_labels) == 1.0

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            gen_gaussian_mixture(1, 4, 10, 1.0, seed=0)

    def test_entropy_grows_with_spread(self):
        entropies = []
        for spread in (0.5, 3.0):
            ds = gen_gaussian_mixture(6, 8, 60, spread, seed=7)
            _, probs = train_teacher(ds.train_features, ds.train_labels,
                                     (8, 32, 6), TrainConfig(), 30, seed=1)
            safe = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
            entropies.append(float(np.mean(-safe.sum(axis=1))))
        assert entropies[1] > entropies[0]


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        ds = gen_gaussian_mixture(4, 5, 20, 1.1, seed=8)
        path = tmp_path / "rows.csv"
        save_csv(path, ds.features, ds.labels)
        again = load_csv(path)
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.labels, ds.labels)

    def test_well_formed_small_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n0.5,0.5,1\n")
        ds = load_csv(path)
        assert ds.n == 3
        assert ds.dim == 2
        assert list(ds.labels) == [0, 1, 1]

    def test_ragged_row_error_carries_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nouch,0\n")
        with pytest.raises(DataFormatError, match="line 2.*non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_carries_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n\n3.0,{cell},1\n{cell},1.0,0\n")
        with pytest.raises(DataFormatError, match="line 4: non-finite feature cell"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "badlabel.csv"
        path.write_text("f0,label\n1.0,zebra\n")
        with pytest.raises(DataFormatError, match="non-integer label"):
            load_csv(path)

    def test_unknown_label_value(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("f0,label\n1.0,7\n")
        with pytest.raises(DataFormatError, match="unknown label value 7"):
            load_csv(path, class_count=3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty dataset"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataFormatError, match="empty dataset"):
            load_csv(path)


class TestSplitDir:
    def test_round_trip_preserves_split_content(self, tmp_path):
        ds = gen_gaussian_mixture(5, 6, 30, 1.2, seed=9)
        save_split_dir(tmp_path / "d", ds)
        again = load_split_dir(tmp_path / "d")
        np.testing.assert_array_equal(again.train_features, ds.train_features)
        np.testing.assert_array_equal(again.train_labels, ds.train_labels)
        np.testing.assert_array_equal(again.test_features, ds.test_features)
        np.testing.assert_array_equal(again.test_labels, ds.test_labels)

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2,
                    train_indices=[0, 1, 2], test_indices=[2, 3])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite_features(self, value):
        features = np.zeros((4, 2))
        features[2, 1] = value
        features[3, 0] = value
        with pytest.raises(ValueError, match="row 2: non-finite"):
            Dataset(features, np.zeros(4, dtype=int), 2,
                    train_indices=[0, 1], test_indices=[2, 3])


def _save_record(path, small_task):
    from kcdistill.emdriver import DistillConfig, ScheduleConfig, init_student, run

    ds, store = small_task
    config = DistillConfig(schedule=ScheduleConfig(4, 2, 0.7),
                           train=TrainConfig.desk_default(4))
    _, record = run(config, store, init_student(store.dim, (4,), store.num_classes, 0), ds)
    record.save(path)


def _save_labels(path, small_task):
    from kcdistill.knowledge import ValueLabeling, save_labels

    ranks = np.array([2, 0, 1])
    save_labels(path, ValueLabeling(ranks=ranks, probs=1.0 - ranks / 3.0,
                                    labels=[0, 1, 1]))


def _save_model(path, small_task):
    from kcdistill.nn import init_mlp, save_model

    save_model(path, init_mlp((3, 4, 2), 0))


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents, longer than the new")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("save", [_save_record, _save_labels, _save_model],
                             ids=["record", "labels", "model"])
    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch, small_task, save):
        path = tmp_path / "target"
        path.write_bytes(b"earlier file")

        def interrupted(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="disk went away"):
            save(path, small_task)
        assert path.read_bytes() == b"earlier file"
        assert os.listdir(tmp_path) == ["target"]
        monkeypatch.undo()
        save(path, small_task)
        assert path.read_bytes() != b"earlier file"
        assert os.listdir(tmp_path) == ["target"]
