import json
import os
import shutil

import numpy as np
import pytest

from kcdistill import data
from kcdistill.cli import _run_dir, main
from kcdistill.data import load_split_dir
from kcdistill.emdriver import RunRecord
from kcdistill.evaluation import hamming_distance
from kcdistill.knowledge import load_labels, save_labels
from kcdistill.nn import load_model
from kcdistill.ogve import labeling_from_ranks


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + cached teacher produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["gen-data", "--classes", "3", "--dims", "4", "--per-class", "20",
                 "--spread", "1.0", "--seed", "3", "--out", str(data_dir)]) == 0
    model_path = root / "teacher.bin"
    probs_path = root / "teacher_probs.npy"
    assert main(["train-teacher", "--data", str(data_dir), "--hidden", "16,16",
                 "--epochs", "30", "--seed", "1",
                 "--out-model", str(model_path), "--out-probs", str(probs_path)]) == 0
    return root


def distill_args(workdir, out_record, extra=()):
    return ["distill", "--data", str(workdir / "data"),
            "--teacher-probs", str(workdir / "teacher_probs.npy"),
            "--student-hidden", "6", "--epochs", "8", "--stage-len", "2",
            "--out-record", str(out_record), *extra]


class TestGenData:
    def test_outputs_exist_and_load(self, workdir):
        ds = load_split_dir(workdir / "data")
        assert ds.n == 60
        assert ds.dim == 4
        meta = json.loads((workdir / "data" / "meta.json").read_text())
        assert meta["classes"] == 3
        assert meta["n_train"] + meta["n_test"] == 60

    def test_writes_a_twin_of_each_split(self, workdir):
        for name in ("train.csv", "test.csv"):
            path = workdir / "data" / name
            assert data._twin_rows(path, path.read_bytes()) is not None

    @pytest.mark.parametrize("blocked", ["train.csv", "test.csv", "train.csv.npz",
                                         "test.csv.npz", "meta.json"])
    def test_an_output_directory_is_refused_before_any_write(self, tmp_path, capsys, blocked):
        (tmp_path / "out" / blocked).mkdir(parents=True)
        assert main(["gen-data", "--classes", "3", "--dims", "2", "--per-class", "5",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {tmp_path / 'out' / blocked} is a directory\n")
        assert os.listdir(tmp_path / "out") == [blocked]

    def test_deterministic_regeneration(self, workdir, tmp_path):
        again = tmp_path / "data2"
        main(["gen-data", "--classes", "3", "--dims", "4", "--per-class", "20",
              "--spread", "1.0", "--seed", "3", "--out", str(again)])
        assert (again / "train.csv").read_text() == (workdir / "data" / "train.csv").read_text()


class TestTrainTeacher:
    def test_artifacts_load(self, workdir):
        model = load_model(workdir / "teacher.bin")
        assert model.layer_dims == (4, 16, 16, 3)
        probs = np.load(workdir / "teacher_probs.npy")
        assert probs.shape == (48, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)

    def test_label_outside_int64_is_a_clean_error(self, workdir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for name in ("train.csv", "test.csv"):
            lines = (workdir / "data" / name).read_text().splitlines()
            if name == "train.csv":
                lines[2] = lines[2].rsplit(",", 1)[0] + ",99999999999999999999"
            (data_dir / name).write_text("\n".join(lines) + "\n")
        code = main(["train-teacher", "--data", str(data_dir), "--hidden", "4",
                     "--epochs", "1", "--out-model", str(tmp_path / "t.bin"),
                     "--out-probs", str(tmp_path / "t.npy")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{data_dir / 'train.csv'}: line 3: unknown label value 99999999999999999999" in err

    def test_label_beyond_the_row_count_is_a_clean_error(self, workdir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(workdir / "data", data_dir)
        lines = (data_dir / "train.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",1000000000000"
        (data_dir / "train.csv").write_text("\n".join(lines) + "\n")
        code = main(["train-teacher", "--data", str(data_dir), "--hidden", "4",
                     "--epochs", "1", "--out-model", str(tmp_path / "t.bin"),
                     "--out-probs", str(tmp_path / "t.npy")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert (f"{data_dir / 'train.csv'}: line 3: unknown label value 1000000000000: "
                f"more classes than the 60 rows of train.csv and test.csv") in err
        assert not (tmp_path / "t.bin").exists()


    def test_a_byte_that_is_not_utf8_is_a_clean_error(self, workdir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(workdir / "data", data_dir)
        raw = (data_dir / "train.csv").read_bytes()
        at = raw.index(b"\n", raw.index(b"\n") + 1) + 2  # in the second data row
        (data_dir / "train.csv").write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        code = main(["train-teacher", "--data", str(data_dir), "--hidden", "4",
                     "--epochs", "1", "--out-model", str(tmp_path / "t.bin"),
                     "--out-probs", str(tmp_path / "t.npy")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {data_dir / 'train.csv'}: line 3: not utf-8: "
                                           f"invalid start byte (byte offset {at})\n")
        assert not (tmp_path / "t.bin").exists()

    def test_prints_the_probs_path_it_wrote(self, workdir, tmp_path, capsys):
        code = main(["train-teacher", "--data", str(workdir / "data"), "--hidden", "4",
                     "--epochs", "1", "--out-model", str(tmp_path / "t.bin"),
                     "--out-probs", str(tmp_path / "tprobs")])
        assert code == 0
        assert capsys.readouterr().out.rstrip("\n").endswith(f" probs={tmp_path / 'tprobs.npy'}")
        assert (tmp_path / "tprobs.npy").is_file()

    @pytest.mark.parametrize("epochs, lr, message", [
        ("30", "1e12", "non-finite loss at epoch 5"),
        ("1", "1e300", "non-finite teacher probs after epoch 1"),
    ])
    def test_diverging_training_is_a_clean_error(self, workdir, tmp_path, capsys, epochs,
                                                 lr, message):
        code = main(["train-teacher", "--data", str(workdir / "data"), "--hidden", "16,16",
                     "--epochs", epochs, "--seed", "1", "--lr", lr,
                     "--out-model", str(tmp_path / "t.bin"),
                     "--out-probs", str(tmp_path / "t.npy")])
        assert code == 1
        assert capsys.readouterr().err == f"error: training diverged: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-2", "--epochs must be >= 0, got -2"),
        ("--lr", "nan", "lr must be finite and >= 0, got nan"),
    ])
    def test_bad_option_is_refused_before_any_file_is_read(self, tmp_path, capsys, flag,
                                                            value, message):
        # --data does not exist: reading it would fail with another message
        code = main(["train-teacher", "--data", str(tmp_path / "nowhere"), flag, value,
                     "--out-model", str(tmp_path / "out" / "t.bin"),
                     "--out-probs", str(tmp_path / "out" / "t.npy")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

class TestDistill:
    def test_record_written_with_metrics(self, workdir, tmp_path, capsys):
        out = tmp_path / "rec.json"
        assert main(distill_args(workdir, out, ["--method", "kcd", "--seed", "4"])) == 0
        record = RunRecord.load(out)
        assert record.method == "kcd"
        assert len(record.epochs) == 8
        metrics = out.with_name("rec_metrics.csv").read_text().strip().splitlines()
        assert len(metrics) == 9
        assert "final_acc" in capsys.readouterr().out

    def test_rho_one_equals_full_kd(self, workdir, tmp_path):
        out_kcd = tmp_path / "kcd.json"
        out_full = tmp_path / "full.json"
        main(distill_args(workdir, out_kcd, ["--method", "kcd", "--rho", "1.0", "--seed", "5"]))
        main(distill_args(workdir, out_full, ["--method", "full-kd", "--seed", "5"]))
        kcd = RunRecord.load(out_kcd)
        full = RunRecord.load(out_full)
        assert kcd.final_accuracy == full.final_accuracy
        assert kcd.param_digest == full.param_digest

    def test_reference_cost_at_long_schedule(self, workdir, tmp_path):
        out = tmp_path / "cost.json"
        assert main(distill_args(workdir, out, ["--method", "kcd", "--rho", "0.7",
                                                "--epochs", "240", "--stage-len", "40",
                                                "--seed", "6"])) == 0
        record = RunRecord.load(out)
        assert record.cost.relative_cost == pytest.approx(0.8165, abs=5e-4)

    def test_stage_len_must_divide_epochs(self, workdir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(distill_args(workdir, tmp_path / "x.json",
                              ["--epochs", "240", "--stage-len", "7"]))
        assert exc.value.code == 2
        assert "T must divide I" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--eps-m", "eps_m must be finite and >= 0"),
        ("--lr", "lr must be finite and >= 0"),
        ("--temperature", "temperature must be finite and > 0"),
    ])
    def test_nan_option_is_refused_before_any_file_is_read(self, tmp_path, capsys,
                                                           flag, message):
        # neither input exists: reading one would fail with another message
        code = main(["distill", "--data", str(tmp_path / "nowhere"),
                     "--teacher-probs", str(tmp_path / "none.npy"), flag, "nan",
                     "--out-record", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}, got nan\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("inputs", ["present", "missing"])
    def test_full_kd_label_export_is_refused_before_any_file_is_read(
            self, workdir, tmp_path, capsys, inputs):
        # with inputs present the run would train and write; missing, reading fails
        root = workdir if inputs == "present" else tmp_path / "nowhere"
        argv = ["distill", "--data", str(root / "data"),
                "--teacher-probs", str(root / "teacher_probs.npy"),
                "--method", "full-kd", "--export-labels", str(tmp_path / "l.kcl"),
                "--out-record", str(tmp_path / "r.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --export-labels") and "full-kd" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_dir_is_clean_error(self, workdir, tmp_path, capsys):
        code = main(["distill", "--data", str(tmp_path / "nowhere"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--out-record", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_teacher_probs_class_count_mismatch(self, workdir, tmp_path, capsys):
        probs = np.load(workdir / "teacher_probs.npy")
        wide = tmp_path / "wide.npy"
        np.save(wide, np.hstack([probs, np.zeros((probs.shape[0], 1))]))
        code = main(["distill", "--data", str(workdir / "data"), "--teacher-probs", str(wide),
                     "--out-record", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{wide} have shape (48, 4)" in err
        assert f"{workdir / 'data'} has 3 classes" in err

    @pytest.mark.parametrize("kind, message", [
        ("npz", "is not a .npy file: the magic string is not correct"),
        ("text", "is not a .npy file: the magic string is not correct"),
        ("empty", "is not a .npy file: EOF: reading magic string"),
        ("complex", "holds a complex128 array, not a real one"),
        ("object", "is not a .npy file: Object arrays cannot be loaded"),
    ], ids=["npz", "text", "empty", "complex", "object"])
    def test_bad_teacher_probs_file_is_refused_before_training(self, workdir, tmp_path,
                                                               capsys, kind, message):
        """A --teacher-probs file that is not one real .npy array stops the
        run with a message naming the flag and the path; no record is written."""
        probs = np.load(workdir / "teacher_probs.npy")
        path = tmp_path / f"bad.{kind}"
        if kind == "npz":
            np.savez(path, probs=probs)
        elif kind == "text":
            np.savetxt(path, probs, delimiter=",")
        elif kind == "empty":
            path.write_bytes(b"")
        else:
            bad = probs.astype(complex) if kind == "complex" else probs.astype(object)
            with open(path, "wb") as fh:
                np.save(fh, bad, allow_pickle=True)
        argv = distill_args(workdir, tmp_path / "r.json")
        argv[argv.index("--teacher-probs") + 1] = str(path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: --teacher-probs {path} {message}")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_method_alias_random(self, workdir, tmp_path):
        out = tmp_path / "rand.json"
        main(distill_args(workdir, out, ["--method", "random", "--seed", "7"]))
        assert RunRecord.load(out).method == "random-subset"

    def test_every_method_name_is_accepted(self, workdir, tmp_path):
        out = tmp_path / "rand.json"
        assert main(distill_args(workdir, out, ["--method", "random-subset", "--seed", "7"])) == 0
        assert RunRecord.load(out).method == "random-subset"

    def test_record_config_echo_reproduces_run(self, workdir, tmp_path):
        out = tmp_path / "src.json"
        main(distill_args(workdir, out, ["--method", "kcd", "--seed", "17"]))
        record = RunRecord.load(out)
        # rebuild the run from nothing but the echoed config and the record
        from kcdistill.data import load_split_dir
        from kcdistill.emdriver import DistillConfig, ScheduleConfig, init_student, run
        from kcdistill.knowledge import build_store
        from kcdistill.nn import TrainConfig
        from kcdistill.ogve import OgveConfig

        cfg = record.config
        config = DistillConfig(
            schedule=ScheduleConfig(cfg["total_epochs"], cfg["stage_len"], cfg["rho"]),
            ogve=OgveConfig(alpha=cfg["alpha"]),
            eps_m=cfg["eps_m"],
            train=TrainConfig(**cfg["train"]),
            seed=cfg["seed"],
        )
        ds = load_split_dir(workdir / "data")
        store = build_store(ds.train_features, np.load(workdir / "teacher_probs.npy"),
                            ds.train_labels)
        student = init_student(store.dim, tuple(record.student_dims[1:-1]),
                               store.num_classes, cfg["seed"])
        _, again = run(config, store, student, ds)
        assert again.param_digest == record.param_digest
        assert again.fingerprint() == record.fingerprint()

    def test_default_out_dir_env(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("KCDISTILL_OUT_DIR", str(tmp_path / "envruns"))
        args = ["distill", "--data", str(workdir / "data"),
                "--teacher-probs", str(workdir / "teacher_probs.npy"),
                "--student-hidden", "6", "--epochs", "8", "--stage-len", "2"]
        assert main(args) == 0
        records = list((tmp_path / "envruns").glob("*/record.json"))
        assert len(records) == 1

    def test_run_dir_is_fresh_per_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KCDISTILL_OUT_DIR", str(tmp_path))
        first, second = _run_dir("kcd-s0"), _run_dir("kcd-s0")
        assert first != second
        assert first.is_dir() and second.is_dir()
        assert first.parent == second.parent == tmp_path


class TestReuseAndSweep:
    def test_export_then_reuse(self, workdir, tmp_path):
        record_path = tmp_path / "src.json"
        labels_path = tmp_path / "labels.kcl"
        main(distill_args(workdir, record_path,
                          ["--method", "kcd", "--seed", "8",
                           "--export-labels", str(labels_path)]))
        src = RunRecord.load(record_path)
        labeling = load_labels(labels_path)
        np.testing.assert_array_equal(labeling.labels, src.final_labels)
        reuse_record = tmp_path / "reuse.json"
        code = main(["reuse", "--labels", str(labels_path), "--mode", "with-vaks",
                     "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--student-hidden", "6", "--epochs", "8", "--stage-len", "2",
                     "--seed", "9", "--out-record", str(reuse_record)])
        assert code == 0
        assert RunRecord.load(reuse_record).method == "reuse-with-vaks"

    def test_sweep_csv(self, workdir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--rho-grid", "0.7,1.0", "--seeds", "2",
                     "--methods", "kcd,random",
                     "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--student-hidden", "6", "--epochs", "8", "--stage-len", "2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2
        assert lines[0].startswith("rho,seed,method")

    def test_sweep_rejects_unknown_method_before_running(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--methods", "kcd,kcdd", "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown --methods ['kcdd']" in err and "'random-subset'" in err
        assert not out.exists()

    @pytest.mark.parametrize("methods, twice", [("random,random-subset", "random-subset"),
                                                ("kcd,ogve-only,kcd", "kcd")])
    def test_sweep_refuses_a_method_named_twice_before_reading(self, tmp_path, capsys,
                                                                methods, twice):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--methods", methods, "--data", str(tmp_path / "absent"),
                     "--teacher-probs", str(tmp_path / "absent.npy"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --methods {methods!r} names {twice} twice\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, twice", [("--seeds", "1,1", "1"),
                                                    ("--seeds", "3, 2,3,", "3"),
                                                    ("--rho-grid", "0.5,0.7,.50", "0.5")])
    def test_sweep_refuses_a_seed_or_ratio_named_twice_before_reading(self, tmp_path, capsys,
                                                                      flag, value, twice):
        """A repeated entry would write the same rows twice and skew any
        mean or std taken over them."""
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--methods", "kcd", flag, value,
                     "--data", str(tmp_path / "absent"),
                     "--teacher-probs", str(tmp_path / "absent.npy"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} {value!r} names {twice} twice\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_takes_the_method_names_distill_takes(self, workdir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--rho-grid", "0.7", "--seeds", "1", "--methods", "random-subset",
                     "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--student-hidden", "6", "--epochs", "4", "--stage-len", "2",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("0.7,0,random-subset,")

    def test_sweep_drops_blank_list_entries(self, workdir, tmp_path):
        """Every comma list takes spaces and a trailing comma, as --seeds
        and --rho-grid always did."""
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--rho-grid", "0.7,", "--seeds", "1,", "--methods", "kcd, random,",
                     "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--student-hidden", "6,", "--lr-decay-epochs", " 2, ,3",
                     "--epochs", "4", "--stage-len", "2", "--out", str(out)])
        assert code == 0
        rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
        assert rows == [["0.7", "1", "kcd"], ["0.7", "1", "random-subset"]]

    @pytest.mark.parametrize("flag, value", [("--seeds", "0"), ("--seeds", "-3"),
                                             ("--rho-grid", ""), ("--methods", ""),
                                             ("--methods", " , ")])
    def test_sweep_rejects_an_empty_grid_before_reading(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--data", str(tmp_path / "absent"),
                     "--teacher-probs", str(tmp_path / "absent.npy"),
                     "--out", str(out), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {value!r} names no ")
        assert "absent" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out-record", "--out-metrics"])
    def test_sweep_has_no_record_outputs(self, workdir, tmp_path, capsys, flag):
        """A sweep writes only its --out CSV, so it takes no record paths."""
        out, record = tmp_path / "sweep.csv", tmp_path / "r.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--methods", "kcd", "--data", str(workdir / "data"),
                  "--teacher-probs", str(workdir / "teacher_probs.npy"),
                  "--out", str(out), flag, str(record)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {record}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    def test_bad_label_file_names_the_file_and_offset(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.kcl"
        bad.write_bytes(b"XXXX" + bytes(21))
        code = main(["reuse", "--labels", str(bad), "--mode", "with-vaks",
                     "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--out-record", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: bad magic b'XXXX' (byte offset 0)\n"
        assert list(tmp_path.iterdir()) == [bad]


class TestListFlags:
    """Each comma-list flag is parsed before any file is read or written; an
    entry of the wrong type is an error that names the flag and its text."""

    RUN = ["--data", "{d}/absent", "--teacher-probs", "{d}/absent.npy"]
    COMMANDS = {
        "train-teacher": ["train-teacher", "--data", "{d}/absent", "--out-model", "{d}/t/t.bin",
                          "--out-probs", "{d}/t/p.npy"],
        "distill": ["distill", *RUN, "--out-record", "{d}/r/r.json"],
        "reuse": ["reuse", "--labels", "{d}/absent.kcl", "--mode", "with-vaks", *RUN,
                  "--out-record", "{d}/r/r.json"],
        "sweep": ["sweep", *RUN, "--out", "{d}/s/sweep.csv"],
    }

    @pytest.mark.parametrize("command, flag, value, fault", [
        ("train-teacher", "--hidden", "4,x", "invalid literal for int() with base 10: 'x'"),
        ("train-teacher", "--hidden", "4, 1.5,", "invalid literal for int() with base 10: '1.5'"),
        ("distill", "--student-hidden", "6,six", "invalid literal for int() with base 10: 'six'"),
        ("distill", "--lr-decay-epochs", "2,,3e", "invalid literal for int() with base 10: '3e'"),
        ("reuse", "--student-hidden", "x", "invalid literal for int() with base 10: 'x'"),
        ("reuse", "--lr-decay-epochs", " - ", "invalid literal for int() with base 10: '-'"),
        ("sweep", "--rho-grid", "0.5,half", "could not convert string to float: 'half'"),
        ("sweep", "--seeds", "3,y", "invalid literal for int() with base 10: 'y'"),
        ("sweep", "--seeds", "two", "invalid literal for int() with base 10: 'two'"),
        ("sweep", "--student-hidden", "6,?", "invalid literal for int() with base 10: '?'"),
    ])
    def test_bad_entry_is_named_before_any_file_is_read(self, tmp_path, capsys, command,
                                                        flag, value, fault):
        # the inputs are absent: reading one would fail with another message
        argv = [a.format(d=tmp_path) for a in self.COMMANDS[command]] + [flag, value]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} {value!r}: {fault}\n"
        assert list(tmp_path.iterdir()) == []


class TestReport:
    def test_hamming_csv_holds_each_pair_distance(self, workdir, tmp_path):
        """summary_hamming.csv has a row and a column per record: symmetric,
        zero on the diagonal, each cell the hamming_distance of the two
        records' final labels. full-kd keeps every sample, so its distance
        to a run is the number of samples that run discarded."""
        records_dir = tmp_path / "records"
        records_dir.mkdir()
        for name, method, seed in (("a", "kcd", 10), ("b", "kcd", 11), ("c", "random", 12),
                                   ("d", "full-kd", 13)):
            assert main(distill_args(workdir, records_dir / f"{name}.json",
                                     ["--method", method, "--seed", str(seed)])) == 0
        out = tmp_path / "summary.csv"
        assert main(["report", "--records", str(records_dir), "--out-csv", str(out),
                     "--emit-plot-data"]) == 0
        rows = [line.split(",")
                for line in (tmp_path / "summary_hamming.csv").read_text().splitlines()]
        names = rows[0][1:]
        assert rows[0][0] == "record"
        assert names == [r[0] for r in rows[1:]] == [str(records_dir / f"{c}.json")
                                                     for c in "abcd"]
        matrix = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
        labels = [RunRecord.load(name).final_labels for name in names]
        assert np.array_equal(matrix, matrix.T)
        assert not np.diag(matrix).any()
        assert matrix.tolist() == [[hamming_distance(a, b) for b in labels] for a in labels]
        assert matrix[:3, 3].tolist() == [int(np.count_nonzero(lab == 0)) for lab in labels[:3]]
        assert matrix[:3, :3].any()

    def test_summary_and_plot_data(self, workdir, tmp_path):
        records_dir = tmp_path / "records"
        records_dir.mkdir()
        for seed in (10, 11):
            main(distill_args(workdir, records_dir / f"kcd{seed}.json",
                              ["--method", "kcd", "--seed", str(seed)]))
        out = tmp_path / "summary.csv"
        code = main(["report", "--records", str(records_dir),
                     "--out-csv", str(out), "--emit-plot-data"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "summary_rho_curve.csv").exists()
        assert (tmp_path / "summary_hamming.csv").exists()

    @pytest.mark.parametrize("taken", ["summary_rho_curve.csv", "summary_hamming.csv"])
    def test_a_plot_file_that_is_a_directory_is_refused_before_any_write(
            self, workdir, tmp_path, capsys, taken):
        records_dir = tmp_path / "records"
        assert main(distill_args(workdir, records_dir / "r.json", ["--seed", "10"])) == 0
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        capsys.readouterr()
        assert main(["report", "--records", str(records_dir),
                     "--out-csv", str(out / "summary.csv"), "--emit-plot-data"]) == 1
        assert capsys.readouterr().err == f"error: --emit-plot-data {out / taken} is a directory\n"
        assert list(out.iterdir()) == [out / taken]
        assert list((out / taken).iterdir()) == []

    def test_report_without_records_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--records", str(empty), "--out-csv",
                     str(tmp_path / "o.csv")]) == 1
        assert "no run records" in capsys.readouterr().err

    def test_names_skipped_records(self, workdir, tmp_path, capsys):
        records_dir = tmp_path / "records"
        (records_dir / "good").mkdir(parents=True)
        (records_dir / "bad").mkdir()
        assert main(distill_args(workdir, records_dir / "good" / "record.json",
                                 ["--method", "kcd"])) == 0
        good = (records_dir / "good" / "record.json").read_text()
        bad_path = records_dir / "bad" / "record.json"
        bad_path.write_text(good[:len(good) // 2])
        capsys.readouterr()
        out = tmp_path / "summary.csv"
        assert main(["report", "--records", str(records_dir), "--out-csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and "good" in lines[1]
        err = capsys.readouterr().err
        assert f"skipped {bad_path}" in err
        assert "skipped 1 files" in err

    def test_hostile_records_are_skipped_by_name(self, workdir, tmp_path, capsys):
        """A label outside uint8, a config without rho or with a list for
        it, a method that is a list and a seed that is a string each skip
        their record with a named line; the good record is still summarized."""
        records_dir = tmp_path / "records"
        records_dir.mkdir()
        good_path = records_dir / "good.json"
        assert main(distill_args(workdir, good_path, ["--method", "kcd"])) == 0
        good = json.loads(good_path.read_text())
        bad = {
            "overflow": dict(good, final_labels=[300] + good["final_labels"][1:]),
            "no_rho": dict(good, config={k: v for k, v in good["config"].items() if k != "rho"}),
            "method_list": dict(good, method=["kcd"]),
            "seed_str": dict(good, seed="3"),
            "rho_list": dict(good, config=dict(good["config"], rho=[0.7])),
        }
        bad_paths = [records_dir / f"{name}.json" for name in bad]
        for path, payload in zip(bad_paths, bad.values()):
            path.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "summary.csv"
        assert main(["report", "--records", str(records_dir), "--out-csv", str(out),
                     "--emit-plot-data"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith(f"{good_path},kcd,")
        skipped = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("skipped ")]
        assert len(skipped) == 6 and skipped[-1] == "skipped 5 files"
        for path in bad_paths:
            assert sum(line.startswith(f"skipped {path}: ") for line in skipped) == 1
        for path, name in ((bad_paths[2], "method"), (bad_paths[3], "seed")):
            assert any(line.startswith(f"skipped {path}: ValueError: record field '{name}'")
                       for line in skipped)



class TestAtomicCliWrites:
    """Each file the CLI writes goes through a temp file and os.replace: an
    interrupted write leaves the earlier file whole and no temp file."""

    @pytest.fixture
    def record_dir(self, workdir, tmp_path_factory):
        records = tmp_path_factory.mktemp("records")
        assert main(distill_args(workdir, records / "a.json", ["--seed", "1"])) == 0
        return records

    def commands(self, workdir, record_dir, out):
        run_inputs = ["--data", str(workdir / "data"),
                      "--teacher-probs", str(workdir / "teacher_probs.npy"),
                      "--student-hidden", "6", "--epochs", "4", "--stage-len", "2"]
        report = ["report", "--records", str(record_dir), "--out-csv", str(out / "summary.csv"),
                  "--emit-plot-data"]
        gen_data = ["gen-data", "--classes", "3", "--dims", "2", "--per-class", "5",
                    "--out", str(out)]
        return {
            "train.csv": gen_data,
            "test.csv": gen_data,
            "train.csv.npz": gen_data,
            "meta.json": gen_data,
            "tprobs.npy": ["train-teacher", "--data", str(workdir / "data"), "--hidden", "4",
                           "--epochs", "1", "--out-model", str(out / "t.bin"),
                           "--out-probs", str(out / "tprobs.npy")],
            "m.csv": distill_args(workdir, out / "r.json",
                                  ["--out-metrics", str(out / "m.csv")]),
            "sweep.csv": ["sweep", *run_inputs, "--rho-grid", "1.0", "--seeds", "1",
                          "--methods", "kcd", "--out", str(out / "sweep.csv")],
            "summary.csv": report,
            "summary_rho_curve.csv": report,
            "summary_hamming.csv": report,
        }

    @pytest.mark.parametrize("target", ["meta.json", "m.csv", "sweep.csv", "summary.csv",
                                        "summary_rho_curve.csv", "summary_hamming.csv",
                                        "train.csv", "test.csv", "train.csv.npz",
                                        "tprobs.npy"])
    def test_interrupted_write_keeps_old_file(self, workdir, record_dir, tmp_path,
                                              monkeypatch, capsys, target):
        out = tmp_path / "out"
        out.mkdir()
        (out / target).write_bytes(b"earlier file")
        real_replace = os.replace

        def interrupted(src, dst):
            if os.path.basename(dst) == target:
                raise OSError("disk went away")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", interrupted)
        assert main(self.commands(workdir, record_dir, out)[target]) == 1
        assert "disk went away" in capsys.readouterr().err
        assert (out / target).read_bytes() == b"earlier file"
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]


class TestOutputPathCollisions:
    """A command refuses, before any work, two outputs that are one file, an
    output that is one of its inputs and an output that is an existing
    directory; nothing under the directory changes."""

    RUN = ["--data", "{d}/data", "--teacher-probs", "{d}/t.npy", "--student-hidden", "6",
           "--epochs", "2", "--stage-len", "1"]
    COMMANDS = {
        "distill": ["distill", *RUN],
        "reuse": ["reuse", "--labels", "{d}/l.kcl", "--mode", "direct-select", *RUN],
        "sweep": ["sweep", "--rho-grid", "1.0", "--seeds", "1", "--methods", "kcd", *RUN],
        "train-teacher": ["train-teacher", "--data", "{d}/data", "--hidden", "4",
                          "--epochs", "1"],
    }
    CASES = {
        "record=metrics": ("distill", ["--out-record", "{d}/r.json",
                                       "--out-metrics", "{d}/r.json"]),
        "record=metrics=labels": ("distill", ["--out-record", "{d}/r.json",
                                              "--out-metrics", "{d}/r.json",
                                              "--export-labels", "{d}/r.json"]),
        "record=labels": ("distill", ["--out-record", "{d}/r.json",
                                      "--export-labels", "{d}/r.json"]),
        "metrics=labels": ("distill", ["--out-record", "{d}/r.json", "--out-metrics",
                                       "{d}/m.csv", "--export-labels", "{d}/m.csv"]),
        "default-metrics=labels": ("distill", ["--out-record", "{d}/r.json",
                                               "--export-labels", "{d}/r_metrics.csv"]),
        "record=teacher-probs": ("distill", ["--out-record", "{d}/t.npy"]),
        "record=teacher-probs-symlink": ("distill", ["--out-record", "{d}/alias.npy"]),
        "record=teacher-probs-dotdot": ("distill", ["--out-record", "{d}/data/../t.npy"]),
        "metrics=train-csv": ("distill", ["--out-metrics", "{d}/data/train.csv"]),
        "labels=test-csv": ("distill", ["--out-record", "{d}/r.json",
                                        "--export-labels", "{d}/data/test.csv"]),
        "reuse-record=labels": ("reuse", ["--out-record", "{d}/l.kcl"]),
        "reuse-metrics=teacher-probs": ("reuse", ["--out-record", "{d}/r.json",
                                                  "--out-metrics", "{d}/t.npy"]),
        "reuse-record=metrics": ("reuse", ["--out-record", "{d}/r.json",
                                           "--out-metrics", "{d}/r.json"]),
        "sweep-out=teacher-probs": ("sweep", ["--out", "{d}/t.npy"]),
        "sweep-out=train-csv": ("sweep", ["--out", "{d}/data/train.csv"]),
        "model=probs.npy": ("train-teacher", ["--out-model", "{d}/p.npy",
                                              "--out-probs", "{d}/p"]),
        "model=train-csv": ("train-teacher", ["--out-model", "{d}/data/train.csv",
                                              "--out-probs", "{d}/p.npy"]),
    }

    @pytest.fixture
    def inputs(self, workdir, tmp_path):
        shutil.copytree(workdir / "data", tmp_path / "data")
        shutil.copy(workdir / "teacher_probs.npy", tmp_path / "t.npy")
        (tmp_path / "alias.npy").symlink_to(tmp_path / "t.npy")
        save_labels(tmp_path / "l.kcl", labeling_from_ranks(np.arange(48), 0.7))
        return tmp_path

    @staticmethod
    def snapshot(root):
        return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_before_any_work(self, inputs, capsys, case):
        command, outputs = self.CASES[case]
        argv = [a.format(d=inputs) for a in self.COMMANDS[command] + outputs]
        before = self.snapshot(inputs)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is the same file as" in err
        assert self.snapshot(inputs) == before

    @pytest.mark.parametrize("command, flag", [("distill", "--out-record"), ("sweep", "--out"),
                                               ("train-teacher", "--out-model")])
    def test_an_output_directory_is_refused_before_any_work(self, inputs, capsys,
                                                            command, flag):
        (inputs / "out").mkdir()
        probs = ["--out-probs", "{d}/p.npy"] if command == "train-teacher" else []
        argv = [a.format(d=inputs) for a in self.COMMANDS[command] + probs + [flag, "{d}/out"]]
        before = self.snapshot(inputs)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} {inputs / 'out'} is a directory\n"
        assert self.snapshot(inputs) == before
        assert list((inputs / "out").iterdir()) == []


class TestOutputDirectories:
    """Once every refusal has passed, a command makes the missing parent
    directories of each output it names, before any work."""

    def test_train_teacher_writes_into_new_directories(self, workdir, tmp_path):
        model, probs = tmp_path / "nodir" / "t.bin", tmp_path / "p" / "q" / "probs.npy"
        assert main(["train-teacher", "--data", str(workdir / "data"), "--hidden", "4",
                     "--epochs", "1", "--out-model", str(model), "--out-probs", str(probs)]) == 0
        assert load_model(model).layer_dims == (4, 4, 3)
        assert np.load(probs).shape == (48, 3)

    def test_distill_writes_into_new_directories(self, workdir, tmp_path):
        record, metrics = tmp_path / "rec" / "r.json", tmp_path / "m" / "metrics.csv"
        labels = tmp_path / "missing" / "l.kcl"
        assert main(distill_args(workdir, record, ["--out-metrics", str(metrics),
                                                   "--export-labels", str(labels)])) == 0
        assert load_labels(labels) == RunRecord.load(record).final_labeling()
        assert metrics.read_text().startswith("epoch,stage,")

    def test_sweep_and_report_write_into_new_directories(self, workdir, tmp_path):
        sweep, summary = tmp_path / "s" / "sweep.csv", tmp_path / "sum" / "summary.csv"
        assert main(["sweep", "--rho-grid", "1.0", "--seeds", "1", "--methods", "kcd",
                     "--data", str(workdir / "data"),
                     "--teacher-probs", str(workdir / "teacher_probs.npy"),
                     "--student-hidden", "6", "--epochs", "2", "--stage-len", "1",
                     "--out", str(sweep)]) == 0
        assert sweep.read_text().startswith("rho,seed,method")
        assert main(distill_args(workdir, tmp_path / "records" / "r.json")) == 0
        assert main(["report", "--records", str(tmp_path / "records"),
                     "--out-csv", str(summary)]) == 0
        assert summary.read_text().splitlines()[1].split(",")[1] == "kcd"

    def test_a_refused_command_makes_no_directory(self, workdir, tmp_path, capsys):
        argv = distill_args(workdir, tmp_path / "a" / "r.json",
                            ["--out-metrics", str(tmp_path / "b" / "m.csv"),
                             "--export-labels", str(tmp_path / "b" / "m.csv")])
        assert main(argv) == 1
        assert "is the same file as" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
