import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kcdistill import data
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
        for split in ("train_features", "train_labels", "test_features", "test_labels"):
            np.testing.assert_array_equal(getattr(a, split), getattr(b, split))

    def test_split_sizes_and_disjointness(self):
        ds = gen_gaussian_mixture(5, 4, 40, 1.0, seed=1)
        assert ds.n == 200
        assert ds.train_labels.size == 160
        assert ds.test_labels.size == 40
        shared = (ds.train_features[:, None, :] == ds.test_features[None, :, :]).all(axis=2)
        assert not shared.any()

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
        save_csv(path, ds.train_features, ds.train_labels)
        again = load_csv(path)
        np.testing.assert_array_equal(again.train_features, ds.train_features)
        np.testing.assert_array_equal(again.train_labels, ds.train_labels)
        assert again.test_features.shape == (0, 5)
        assert again.test_labels.shape == (0,)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_save_rejects_a_label_count_unlike_the_rows(self, tmp_path, rows):
        with pytest.raises(ValueError, match=f"{rows} feature rows but 3 labels"):
            save_csv(tmp_path / "rows.csv", np.zeros((rows, 2)), np.zeros(3, dtype=int))
        assert not (tmp_path / "rows.csv").exists()

    def test_well_formed_small_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n0.5,0.5,1\n")
        ds = load_csv(path)
        assert ds.n == 3
        assert ds.dim == 2
        assert list(ds.train_labels) == [0, 1, 1]

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


    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999",
                                       "9223372036854775808"])
    def test_label_outside_int64_names_its_line(self, tmp_path, label):
        path = tmp_path / "huge.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(DataFormatError, match=f"line 3: unknown label value {int(label)}$"):
            load_csv(path)

    def test_int64_label_extremes_parse(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("f0,label\n1.0,9223372036854775807\n2.0,0\n")
        assert load_csv(path).train_labels.tolist() == [2**63 - 1, 0]

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff13", "1\u0660"])
    def test_underscores_and_non_ascii_digits_are_rejected(self, tmp_path, cell):
        """float() and int() accept these, so the per-cell oracle loads them;
        the library's parser does not."""
        features = tmp_path / "features.csv"
        features.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,{cell},1\n", encoding="utf-8")
        assert oracles.load_csv(features).n == 2
        with pytest.raises(DataFormatError, match="line 3: non-numeric feature cell$"):
            load_csv(features)
        labels = tmp_path / "labels.csv"
        labels.write_text(f"f0,label\n1.0,0\n\n3.0,{cell}\n", encoding="utf-8")
        assert oracles.load_csv(labels).n == 2
        with pytest.raises(DataFormatError, match=f"line 4: non-integer label {cell!r}$"):
            load_csv(labels)

    def test_several_faults_name_one_of_their_lines(self, tmp_path):
        path = tmp_path / "faults.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,x,0\n1.0,2.0\n1.0,2.0,y\n")
        with pytest.raises(DataFormatError, match=r"line [345]: "):
            load_csv(path)


# -- the bulk CSV layer against the per-cell oracle ----------------------------

csv_props = settings(max_examples=80, deadline=None)
PADS = st.sampled_from(["", "", " ", "\t", "  ", " \t "])
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and zeros
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)
# rounding formats can carry the largest floats past the top: keep finite cells
FLOAT_CELLS = st.builds(lambda fmt, v: fmt % v,
                        st.sampled_from(["%.17g", "%r", "%.3e", "%.6f", "%g"]),
                        FLOATS).filter(lambda cell: math.isfinite(float(cell)))
LABEL_TEXT = st.sampled_from(["{}", "+{}", "0{}", "00{}"])
BLANKS = st.sampled_from(["", " ", "\t", "   ", " \t"])
BAD_FEATURES = ["x", "", "1.2.3", "--1", "0x1f", "1e", "#1", '"1"', "1 2", "nan1"]
BAD_LABELS = ["1.0", "1e0", "x", "", "0x1", "--1", "nan", "1 2", "2.5"]
NON_FINITE = ["nan", "inf", "-inf", "Infinity", "+nan", "1e400", "-1e999"]


@st.composite
def csv_files(draw):
    """A well-formed CSV text, with its dimension, class count and the lines
    of its data rows (as indexes into text.splitlines())."""
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(1, 5))
    lines = [",".join([f"f{i}" for i in range(dim)] + ["label"])]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(BLANKS))
        cells = [draw(PADS) + draw(FLOAT_CELLS) + draw(PADS) for _ in range(dim)]
        cells.append(draw(PADS) + draw(LABEL_TEXT).format(draw(st.integers(0, classes - 1)))
                     + draw(PADS))
        rows.append(len(lines))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text, dim, classes, rows


def _write(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    path.write_bytes(text.encode())
    return path


def _error(loader, path, class_count=None) -> str:
    with pytest.raises(DataFormatError) as exc:
        loader(path, class_count)
    return str(exc.value)


class TestCsvOracle:
    @csv_props
    @given(csv_files(), st.booleans())
    def test_well_formed_files_load_as_the_oracle(self, tmp_path_factory, drawn, counted):
        text, dim, classes, rows = drawn
        path = _write(tmp_path_factory, text)
        class_count = classes if counted else None
        got, want = load_csv(path, class_count), oracles.load_csv(path, class_count)
        assert got.train_features.shape == (len(rows), dim)
        assert got.test_features.shape == want.test_features.shape == (0, dim)
        np.testing.assert_array_equal(got.train_features.view(np.int64),
                                      want.train_features.view(np.int64))
        np.testing.assert_array_equal(got.train_labels, want.train_labels)
        assert got.class_count == want.class_count

    @csv_props
    @given(csv_files(), st.data())
    def test_a_single_fault_gets_the_oracle_message(self, tmp_path_factory, drawn, draw):
        text, dim, classes, rows = drawn
        lines = text.splitlines()
        line = draw.draw(st.sampled_from(rows))
        cells = lines[line].split(",")
        fault = draw.draw(st.sampled_from(
            ["ragged", "feature", "label", "unknown", "negative", "non-finite", "header",
             "blank"]))
        col = draw.draw(st.integers(0, dim - 1))
        if fault == "ragged":
            cells = cells[:-1] if draw.draw(st.booleans()) else cells + ["0"]
        elif fault == "feature":
            cells[col] = draw.draw(st.sampled_from(BAD_FEATURES))
        elif fault == "label":
            cells[-1] = draw.draw(st.sampled_from(BAD_LABELS))
        elif fault == "unknown":
            cells[-1] = str(classes + draw.draw(st.integers(0, 2**62)))
        elif fault == "negative":
            cells[-1] = str(-draw.draw(st.integers(1, 2**62)))
        elif fault == "non-finite":
            cells[col] = draw.draw(st.sampled_from(NON_FINITE))
        elif fault == "header":
            line = 0
            cells = lines[0].split(",")[:-1] + [draw.draw(st.sampled_from(["lab", "f9", ""]))]
        if fault == "blank":
            lines = lines[:1] + [draw.draw(BLANKS) for _ in lines[1:]]
        else:
            lines[line] = ",".join(cells)
        path = _write(tmp_path_factory, "\n".join(lines))
        class_count = classes if fault == "unknown" else None
        want = _error(oracles.load_csv, path, class_count)
        assert _error(load_csv, path, class_count) == want
        assert want.startswith(f"{path}: line {line + 1}: " if fault != "blank"
                               else f"{path}: empty dataset")

    @pytest.mark.parametrize("n", [0, 1, data._CSV_CHUNK_ROWS - 1, data._CSV_CHUNK_ROWS,
                                   data._CSV_CHUNK_ROWS + 1])
    def test_writer_bytes_equal_the_oracle(self, tmp_path, n):
        rng = np.random.default_rng(n)
        features = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-320, 300, (n, 3))
        features.flat[::7] = -0.0
        labels = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
        path = tmp_path / "rows.csv"
        save_csv(path, features, labels)
        assert path.read_bytes() == oracles.csv_bytes(features, labels)

    @csv_props
    @given(st.lists(st.tuples(FLOATS, FLOATS, st.integers(-2**63, 2**63 - 1)), max_size=30))
    def test_drawn_rows_write_as_the_oracle(self, tmp_path_factory, rows):
        features = np.array([r[:2] for r in rows], dtype=np.float64).reshape(len(rows), 2)
        labels = np.array([r[2] for r in rows], dtype=np.int64)
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        save_csv(path, features, labels)
        assert path.read_bytes() == oracles.csv_bytes(features, labels)


class TestSplitDir:
    def test_round_trip_preserves_split_content(self, tmp_path):
        ds = gen_gaussian_mixture(5, 6, 30, 1.2, seed=9)
        save_split_dir(tmp_path / "d", ds)
        again = load_split_dir(tmp_path / "d")
        np.testing.assert_array_equal(again.train_features, ds.train_features)
        np.testing.assert_array_equal(again.train_labels, ds.train_labels)
        np.testing.assert_array_equal(again.test_features, ds.test_features)
        np.testing.assert_array_equal(again.test_labels, ds.test_labels)

    def test_dataset_arrays_are_shared_and_read_only(self):
        ds = gen_gaussian_mixture(3, 2, 10, 1.0, seed=4)
        for name in ("train_features", "train_labels", "test_features", "test_labels"):
            array = getattr(ds, name)
            assert getattr(ds, name) is array
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_dataset_copies_its_inputs(self):
        features, labels = np.zeros((2, 2)), np.zeros(2, dtype=np.int64)
        ds = Dataset(features, labels, features, labels, 2)
        features[0, 0] = labels[0] = 1
        assert ds.train_features[0, 0] == ds.test_features[0, 0] == 0.0
        assert ds.train_labels[0] == ds.test_labels[0] == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite_features(self, value):
        features = np.zeros((4, 2))
        features[2, 1] = value
        features[3, 0] = value
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match="^test row 2: non-finite"):
            Dataset(np.zeros((2, 2)), labels[:2], features, labels, 2)
        with pytest.raises(ValueError, match="^train row 2: non-finite"):
            Dataset(features, labels, np.zeros((0, 2)), labels[:0], 2)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_dataset_rejects_labels_outside_the_class_range(self, label):
        features = np.zeros((2, 2))
        with pytest.raises(ValueError, match=r"^test labels must lie in \[0, class_count\)"):
            Dataset(features, [0, 1], features, [0, label], 2)

    @staticmethod
    def write_split(directory, train_labels, test_labels):
        directory.mkdir()
        (directory / "train.csv").write_text(
            "f0,label\n" + "".join(f"0.5,{y}\n" for y in train_labels))
        (directory / "test.csv").write_text(
            "f0,label\n\n" + "".join(f"1.5,{y}\n" for y in test_labels))

    def test_class_count_may_reach_the_row_count(self, tmp_path):
        self.write_split(tmp_path / "d", [0, 3], [1, 2])
        assert load_split_dir(tmp_path / "d").class_count == 4

    @pytest.mark.parametrize("train, test, where", [
        ([0, 4], [1, 2], "train.csv: line 3: unknown label value 4"),
        ([0, 1], [2, 1000000000000], "test.csv: line 4: unknown label value 1000000000000"),
        ([9, 5], [0, 1], "train.csv: line 2: unknown label value 9"),
    ])
    def test_class_count_above_the_row_count_names_a_label(self, tmp_path, train, test, where):
        self.write_split(tmp_path / "d", train, test)
        with pytest.raises(DataFormatError) as exc:
            load_split_dir(tmp_path / "d")
        assert str(exc.value) == (f"{tmp_path / 'd' / where}: more classes than the 4 rows "
                                  f"of train.csv and test.csv")


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
    save_labels(path, ValueLabeling(ranks=ranks, labels=[0, 1, 1]))


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
