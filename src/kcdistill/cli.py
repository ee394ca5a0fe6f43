"""Command-line surface: data generation, teacher training, distillation
variants, reuse, sweeps, and report aggregation."""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as datamod
from . import emdriver, evaluation, knowledge, nn
from .emdriver import DistillConfig, ScheduleConfig
from .nn import TrainConfig

_METHOD_ALIASES = {"random": emdriver.METHOD_RANDOM}

OUT_DIR_ENV = "KCDISTILL_OUT_DIR"


def _items(args, key: str, kind=str) -> list:
    """The comma-separated entries of the list flag args.<key> as kind, blank
    entries dropped; an entry kind rejects is a ValueError naming the flag."""
    text = getattr(args, key)
    try:
        return [kind(t.strip()) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ValueError(f"--{key.replace('_', '-')} {text!r}: {exc}") from None


def _csv(values) -> str:
    return ",".join(map(str, values))


def _seed_list(args) -> list[int]:
    seeds = _items(args, "seeds", int)
    if "," not in args.seeds and seeds:  # a seed count
        return list(range(seeds[0]))
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"--seeds {args.seeds!r}: seed must be >= 0, got {seed}")
    return seeds


def _run_dir(tag: str) -> Path:
    """A directory no other call has returned: <stamp>-<tag>, suffixed -1, -2,
    ... when runs with the same tag start within the same second."""
    root = Path(os.environ.get(OUT_DIR_ENV, "runs"))
    root.mkdir(parents=True, exist_ok=True)
    stem = f"{time.strftime('%Y%m%d-%H%M%S')}-{tag}"
    for k in itertools.count():
        path = root / (f"{stem}-{k}" if k else stem)
        try:
            path.mkdir()
            return path
        except FileExistsError:
            continue


def _add_schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, default=ScheduleConfig.rho, help="final keep ratio")
    p.add_argument("--alpha", type=float, default=DistillConfig.alpha,
                   help="frequency weight exponent")
    p.add_argument("--eps-m", type=float, default=DistillConfig.eps_m,
                   help="max soft-label blend ratio")
    p.add_argument("--epochs", type=int, default=ScheduleConfig.total_epochs,
                   help="total training epochs I")
    p.add_argument("--stage-len", type=int, default=ScheduleConfig.stage_len,
                   help="epochs per stage T")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr-decay-epochs", type=str, default=None,
                   help="csv of decay epochs; default 62.5/75/87.5%% of the run")
    p.add_argument("--lr-decay-factor", type=float, default=TrainConfig.lr_decay_factor)
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--hard-label-weight", type=float, default=TrainConfig.hard_label_weight)


def _add_run_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset directory (train.csv/test.csv)")
    p.add_argument("--teacher-probs", required=True, help=".npy of cached teacher soft labels")
    p.add_argument("--student-hidden", type=str, default=_csv(nn.DEFAULT_STUDENT_HIDDEN))
    p.add_argument("--seed", type=int, default=DistillConfig.seed)


def _add_run_io_args(p: argparse.ArgumentParser) -> None:
    _add_run_input_args(p)
    p.add_argument("--out-record", type=str, default=None)
    p.add_argument("--out-metrics", type=str, default=None)


def _build_config(args) -> DistillConfig:
    schedule = ScheduleConfig(total_epochs=args.epochs, stage_len=args.stage_len, rho=args.rho)
    decay = {} if args.lr_decay_epochs is None else dict(
        lr_decay_epochs=_items(args, "lr_decay_epochs", int))
    train = TrainConfig.desk_default(
        args.epochs, lr=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
        batch_size=args.batch_size, lr_decay_factor=args.lr_decay_factor,
        temperature=args.temperature, hard_label_weight=args.hard_label_weight, **decay,
    )
    return DistillConfig(schedule=schedule, alpha=args.alpha, eps_m=args.eps_m, train=train,
                         seed=args.seed)


def _load_teacher_probs(path) -> np.ndarray:
    """The one real array in the .npy file at path; anything else (an .npz
    archive, a text or pickle file, a complex or object array) is a
    ValueError that names --teacher-probs and the path."""
    with open(path, "rb") as fh:
        try:
            probs = np.lib.format.read_array(fh)
        except ValueError as exc:
            raise ValueError(f"--teacher-probs {path} is not a .npy file: {exc}") from None
    if probs.dtype.kind not in "biuf":
        raise ValueError(f"--teacher-probs {path} holds a {probs.dtype} array, not a real one")
    return probs


def _load_run_inputs(args):
    dataset = datamod.load_split_dir(args.data)
    teacher_probs = _load_teacher_probs(args.teacher_probs)
    if teacher_probs.shape[1:] != (dataset.class_count,):
        raise ValueError(
            f"teacher probs {args.teacher_probs} have shape {teacher_probs.shape}, "
            f"but the dataset in {args.data} has {dataset.class_count} classes"
        )
    store = knowledge.build_store(dataset.train_features, teacher_probs,
                                  dataset.train_labels)
    return dataset, store


def _metrics_path(args, record_path):
    """--out-metrics, else <record stem>_metrics.csv beside the record."""
    if args.out_metrics or record_path is None:
        return args.out_metrics
    return Path(record_path).with_name(Path(record_path).stem + "_metrics.csv")


def _record_outputs(args) -> list:
    return [("--out-record", args.out_record),
            ("--out-metrics", _metrics_path(args, args.out_record))]


def _check_paths(args, *outputs, extra_inputs=()) -> None:
    """Refuse, before any work, an output that is an existing directory or
    lies under a path that is not one, two outputs that resolve to one file
    and an output that resolves to an input: the --data CSVs,
    --teacher-probs, --labels or one of extra_inputs. outputs and
    extra_inputs are (flag, path) pairs; a None output is skipped."""
    inputs = [("--data", Path(args.data) / n) for n in (datamod.TRAIN_FILE, datamod.TEST_FILE)
              if hasattr(args, "data")]
    inputs += [(f"--{key.replace('_', '-')}", getattr(args, key))
               for key in ("teacher_probs", "labels") if hasattr(args, key)]
    inputs += extra_inputs
    claimed = {os.path.realpath(path): f"input {flag} {path}" for flag, path in inputs}
    outputs = [(flag, path) for flag, path in outputs if path is not None]
    for flag, path in outputs:
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        parent = Path(path).parent
        while not os.path.lexists(parent):  # "." and "/" always exist
            parent = parent.parent
        if not parent.is_dir():
            raise ValueError(f"{flag} {path}: {parent} is not a directory")
        real = os.path.realpath(path)
        if real in claimed:
            raise ValueError(f"{flag} {path} is the same file as {claimed[real]}")
        claimed[real] = f"{flag} {path}"


def _persist_record(record: emdriver.RunRecord, args, tag: str) -> Path:
    record_path = Path(args.out_record) if args.out_record else _run_dir(tag) / "record.json"
    record.save(record_path)
    datamod.write_atomic(_metrics_path(args, record_path), record.epochs_csv().encode())
    return record_path


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    splits = [out / datamod.TRAIN_FILE, out / datamod.TEST_FILE]
    outputs = [*splits, *map(datamod.twin_path, splits), out / "meta.json"]
    dataset = datamod.gen_gaussian_mixture(args.classes, args.dims, args.per_class,
                                           args.spread, args.seed)
    if not dataset.test_labels.size:
        raise ValueError(f"--classes {args.classes} --per-class {args.per_class}: empty test split")
    _check_paths(args, *[("--out", path) for path in outputs])
    datamod.save_split_dir(out, dataset)
    n_train, n_test = dataset.train_labels.size, dataset.test_labels.size
    meta = {
        "classes": args.classes, "dims": args.dims, "per_class": args.per_class,
        "spread": args.spread, "seed": args.seed, "n_train": n_train, "n_test": n_test,
    }
    datamod.write_atomic(out / "meta.json", (json.dumps(meta, indent=2) + "\n").encode())
    print(f"wrote {out}/train.csv ({n_train} rows), {out}/test.csv ({n_test} rows)")
    return 0


def cmd_train_teacher(args) -> int:
    # the path np.save(args.out_probs, probs) writes to
    probs_path = str(args.out_probs).removesuffix(".npy") + ".npy"
    hidden = _items(args, "hidden", int)
    for flag, value in (("--epochs", args.epochs), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    cfg = TrainConfig.desk_default(args.epochs, lr=args.lr, batch_size=args.batch_size)
    _check_paths(args, ("--out-model", args.out_model), ("--out-probs", probs_path))
    dataset = datamod.load_split_dir(args.data)
    dims = (dataset.dim, *hidden, dataset.class_count)
    model, probs = nn.train_teacher(dataset.train_features, dataset.train_labels,
                                    dims, cfg, args.epochs, args.seed)
    nn.save_model(args.out_model, model)
    npy = io.BytesIO()
    np.save(npy, probs)
    datamod.write_atomic(probs_path, npy.getvalue())
    train_acc = evaluation.accuracy(model, dataset.train_features, dataset.train_labels)
    test_acc = evaluation.accuracy(model, dataset.test_features, dataset.test_labels)
    print(f"teacher dims={dims} train_acc={train_acc:.4f} test_acc={test_acc:.4f} "
          f"probs={probs_path}")
    return 0


def cmd_distill(args) -> int:
    config = _build_config(args)
    method = _METHOD_ALIASES.get(args.method, args.method)
    if args.export_labels and method == emdriver.METHOD_FULL_KD:
        raise ValueError(f"--export-labels needs a condensed labeling; a {method} run "
                         "keeps every sample and carries none")
    hidden = _items(args, "student_hidden", int)
    _check_paths(args, *_record_outputs(args), ("--export-labels", args.export_labels))
    dataset, store = _load_run_inputs(args)
    student = emdriver.init_student(store.dim, hidden, store.num_classes, args.seed)
    student, record = emdriver.run(config, store, student, dataset, method)
    record_path = _persist_record(record, args, f"{method}-s{args.seed}")
    if args.export_labels:
        knowledge.save_labels(args.export_labels, record.final_labeling())
    print(f"method={method} seed={args.seed} final_acc={record.final_accuracy:.4f} "
          f"relative_cost={record.cost.relative_cost:.4f} "
          f"realized={record.cost.realized_relative_cost:.4f} record={record_path}")
    return 0


def cmd_reuse(args) -> int:
    config = _build_config(args)
    hidden = _items(args, "student_hidden", int)
    _check_paths(args, *_record_outputs(args))
    dataset, store = _load_run_inputs(args)
    labeling = knowledge.load_labels(args.labels)
    student = emdriver.init_student(store.dim, hidden, store.num_classes, args.seed)
    student, record = evaluation.reuse_run(labeling, config, store, dataset,
                                           args.mode, student)
    record_path = _persist_record(record, args, f"reuse-{args.mode}-s{args.seed}")
    print(f"reuse mode={args.mode} seed={args.seed} "
          f"final_acc={record.final_accuracy:.4f} record={record_path}")
    return 0


def cmd_sweep(args) -> int:
    base = _build_config(args)
    methods = [_METHOD_ALIASES.get(m, m) for m in _items(args, "methods")]
    if not methods:
        raise ValueError(f"--methods {args.methods!r} names no method")
    known = emdriver._method_names(False)
    if unknown := [m for m in methods if m not in known]:
        raise ValueError(f"unknown --methods {unknown}; expected some of "
                         f"{(*known, *_METHOD_ALIASES)}")
    seeds, rho_grid = _seed_list(args), _items(args, "rho_grid", float)
    if not seeds:
        raise ValueError(f"--seeds {args.seeds!r} names no seed")
    if not rho_grid:
        raise ValueError(f"--rho-grid {args.rho_grid!r} names no keep ratio")
    for flag, text, values in (("--methods", args.methods, methods),
                               ("--seeds", args.seeds, seeds),
                               ("--rho-grid", args.rho_grid, rho_grid)):
        if twice := [v for i, v in enumerate(values) if v in values[:i]]:
            raise ValueError(f"{flag} {text!r} names {twice[0]} twice")
    for rho in rho_grid:  # the schedules ratio_sweep builds once the inputs are read
        try:
            ScheduleConfig(args.epochs, args.stage_len, rho)
        except ValueError as exc:
            raise ValueError(f"--rho-grid {args.rho_grid!r}: {exc}") from None
    hidden = _items(args, "student_hidden", int)
    _check_paths(args, ("--out", args.out))
    dataset, store = _load_run_inputs(args)
    rows = evaluation.ratio_sweep(store, dataset, base, hidden,
                                  rho_grid=rho_grid, seeds=seeds, methods=methods)
    datamod.write_atomic(args.out, evaluation.sweep_rows_to_csv(rows).encode())
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _plot_paths(out_csv) -> tuple[Path, Path]:
    """The rho curve and Hamming matrix files --emit-plot-data writes beside
    --out-csv."""
    out = Path(out_csv)
    return (out.with_name(out.stem + "_rho_curve.csv"),
            out.with_name(out.stem + "_hamming.csv"))


def cmd_report(args) -> int:
    records_dir = Path(args.records)
    paths = sorted(records_dir.glob("**/*.json"))
    plots = _plot_paths(args.out_csv) if args.emit_plot_data else ()
    _check_paths(args, ("--out-csv", args.out_csv),
                 *(("--emit-plot-data", path) for path in plots),
                 extra_inputs=[("--records", path) for path in paths])
    records = []
    lines = ["record,method,rho,seed,final_accuracy,relative_cost,"
             "realized_relative_cost,wall_time_s"]
    for p in paths:
        try:
            r = emdriver.RunRecord.load(p)
            rho = r.config["rho"]
            if isinstance(rho, bool) or not isinstance(rho, (int, float)):
                raise ValueError(f"config field 'rho' must be a number, not {type(rho).__name__}")
            lines.append(f"{p},{r.method},{rho},{r.seed},"
                         f"{r.final_accuracy:.10g},{r.cost.relative_cost:.10g},"
                         f"{r.cost.realized_relative_cost:.10g},{r.wall_time_s:.3f}")
            records.append((p, r))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            print(f"skipped {p}: {type(exc).__name__}: {exc}", file=sys.stderr)
    if len(records) < len(paths):
        print(f"skipped {len(paths) - len(records)} files", file=sys.stderr)
    if not records:
        raise ValueError(f"no run records found under {records_dir}")
    out = Path(args.out_csv)
    datamod.write_atomic(out, ("\n".join(lines) + "\n").encode())
    print(f"wrote {len(records)} record summaries to {out}")
    if plots:
        _emit_plot_data(records, *plots)
    return 0


def _emit_plot_data(records, curve_path: Path, ham_path: Path) -> None:
    by_key: dict[tuple, list[float]] = {}
    for _, r in records:
        by_key.setdefault((r.method, r.config["rho"]), []).append(r.final_accuracy)
    curve = ["method,rho,mean_accuracy,std_accuracy,runs"]
    for (method, rho), accs in sorted(by_key.items()):
        arr = np.asarray(accs)
        curve.append(f"{method},{rho},{arr.mean():.10g},{arr.std():.10g},{arr.size}")
    datamod.write_atomic(curve_path, ("\n".join(curve) + "\n").encode())

    sized: dict[int, list[tuple[str, np.ndarray]]] = {}
    for p, r in records:
        sized.setdefault(r.final_labels.size, []).append((str(p), r.final_labels))
    biggest = max(sized.values(), key=len)
    ham = ["record," + ",".join(name for name, _ in biggest)]
    ham += [name + "," + ",".join(str(evaluation.hamming_distance(a, b)) for _, b in biggest)
            for name, a in biggest]
    datamod.write_atomic(ham_path, ("\n".join(ham) + "\n").encode())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcdistill",
        description="Stage-scheduled knowledge distillation on a condensed, "
                    "value-ranked knowledge set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic blob dataset")
    p.set_defaults(handler=cmd_gen_data)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-teacher", help="train and cache the teacher")
    p.set_defaults(handler=cmd_train_teacher)
    p.add_argument("--data", required=True)
    p.add_argument("--hidden", type=str, default=_csv(nn.DEFAULT_TEACHER_HIDDEN))
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-probs", required=True)

    p = sub.add_parser("distill", help="run a distillation variant")
    p.set_defaults(handler=cmd_distill)
    p.add_argument("--method", default="kcd",
                   choices=(*emdriver._method_names(False), *_METHOD_ALIASES))
    _add_schedule_args(p)
    _add_train_args(p)
    _add_run_io_args(p)
    p.add_argument("--export-labels", type=str, default=None,
                   help="write the final stage labeling to this .kcl path")

    p = sub.add_parser("reuse", help="retrain against an exported labeling")
    p.set_defaults(handler=cmd_reuse)
    p.add_argument("--labels", required=True)
    p.add_argument("--mode", choices=emdriver._method_names(True), required=True)
    _add_schedule_args(p)
    _add_train_args(p)
    _add_run_io_args(p)

    p = sub.add_parser("sweep", help="keep-ratio sweep over seeds and methods")
    p.set_defaults(handler=cmd_sweep)
    p.add_argument("--rho-grid", type=str, default=_csv(evaluation.DEFAULT_RHO_GRID))
    p.add_argument("--seeds", type=str, default="5",
                   help="seed count, or csv of explicit seeds")
    p.add_argument("--methods", type=str, default="kcd,random")
    p.add_argument("--out", required=True)
    _add_schedule_args(p)
    _add_train_args(p)
    _add_run_input_args(p)

    p = sub.add_parser("report", help="aggregate run records into CSV")
    p.set_defaults(handler=cmd_report)
    p.add_argument("--records", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--emit-plot-data", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, FloatingPointError, emdriver.DistillationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
