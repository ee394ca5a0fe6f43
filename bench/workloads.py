"""The benchmark's three workloads and the correctness gate on their outputs.

Each workload has a set-up (dataset, teacher, knowledge store) and a
repetition (the timed phase). Both return a Rep whose deferred checks yield
operations: a name, a digest of what the operation produced, and the
invariant violations found in it. The runner compares digests against
golden.json (reference seeds) or against the first round (the run's own
seeds).

The class geometry of each dataset is fixed; the benchmark seed drives the
teacher initialisation, big-store's teacher subset and every run seed. A
seed-drawn geometry moved the mean final accuracy by 7.6% of its median
(quartile spread over ten seeds), which would drown any bound on final_acc.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kcdistill import cli, data, emdriver, evaluation, knowledge, nn
from kcdistill.ogve import keep_count


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Op:
    """One operation: a run, a label round trip or a CLI command."""

    name: str
    digest: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class Rep:
    """What one set-up or repetition produced. Checks are deferred so that
    fingerprints and invariants are computed outside the timed region."""

    task: object = None
    kp: int = 0             # knowledge points trained
    distill_s: float = 0.0  # seconds inside calls that run distillation
    accs: list[float] = field(default_factory=list)
    checks: list = field(default_factory=list)  # callables returning an Op

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.distill_s += time.perf_counter() - start

    def check(self, fn, *args) -> None:
        self.checks.append(functools.partial(fn, *args))

    def finish(self) -> list[Op]:
        return [check() for check in self.checks]


@dataclass(frozen=True)
class TaskSpec:
    """Gaussian-blob task; teacher_subset > 0 trains the teacher on that many
    training samples drawn at random."""

    classes: int
    dims: int
    per_class: int
    spread: float
    data_seed: int
    teacher_epochs: int
    teacher_subset: int = 0


@dataclass
class Task:
    dataset: data.Dataset
    store: knowledge.KnowledgeStore


TEACHER_HIDDEN = (64, 64)
STUDENT_HIDDEN = (16,)
LABEL_CHUNK = 10_000


def derive_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % 2**31]


def build_task(spec: TaskSpec, teacher_seed: int, subset_seed: int = 0) -> Task:
    ds = data.gen_gaussian_mixture(spec.classes, spec.dims, spec.per_class,
                                   spec.spread, spec.data_seed)
    x, y = ds.train_features, ds.train_labels
    fit = np.arange(y.size)
    if spec.teacher_subset:
        rng = np.random.default_rng(subset_seed)
        fit = np.sort(rng.choice(y.size, spec.teacher_subset, replace=False))
    dims = (spec.dims, *TEACHER_HIDDEN, spec.classes)
    tcfg = nn.TrainConfig.desk_default(spec.teacher_epochs)
    teacher, probs = nn.train_teacher(x[fit], y[fit], dims, tcfg,
                                      spec.teacher_epochs, teacher_seed)
    if spec.teacher_subset:
        # label the full store in chunks: one forward pass over 200k rows
        # would hold ~300 MB of activations and set peak_rss_mb by itself
        probs = np.concatenate([nn.softmax(nn.forward(teacher, x[i:i + LABEL_CHUNK]))
                                for i in range(0, y.size, LABEL_CHUNK)])
    return Task(ds, knowledge.build_store(x, probs, y))


def distill_config(epochs: int, stage_len: int, rho: float, batch: int,
                   seed: int) -> emdriver.DistillConfig:
    return emdriver.DistillConfig(
        schedule=emdriver.ScheduleConfig(epochs, stage_len, rho),
        train=nn.TrainConfig.desk_default(epochs, batch_size=batch),
        seed=seed,
    )


def cost_problems(method: str, n: int, rho: float, stages: int, epochs: int,
                  realized: float, ideal: float) -> list[str]:
    """Realized cost must equal the forward passes the schedule implies, and
    sit within the paper's warm-up bound (1 - rho**(1/S)) / I of the ideal
    cost mean(tau_s), widened by 0.5/N because each stage keeps a whole
    number of samples (at N=800, rho=0.5 the rounding alone adds 1.5e-4)."""
    stage_len = epochs // stages
    if method == emdriver.METHOD_FULL_KD:
        passes = n * epochs
    else:
        kept = [keep_count(n, rho if method.startswith("reuse-") else tau)
                for tau in emdriver.tau_schedule(rho, stages)]
        passes = n + (stage_len - 1) * kept[0] + stage_len * sum(kept[1:])
    problems = []
    if abs(realized * n * epochs - passes) > 1e-6:
        problems.append(f"realized cost {realized} is not {passes} forward passes")
    bound = (1.0 - rho ** (1.0 / stages)) / epochs + 0.5 / n
    if abs(realized - ideal) > bound:
        problems.append(f"realized cost {realized} is more than {bound:.3g} from {ideal}")
    return problems


def record_problems(record: emdriver.RunRecord, n: int, rho: float) -> list[str]:
    cfg, cost = record.config, record.cost
    epochs = cfg["total_epochs"]
    problems = cost_problems(record.method, n, rho, epochs // cfg["stage_len"], epochs,
                             cost.realized_relative_cost, cost.relative_cost)
    if cost.absolute_cost != round(cost.realized_relative_cost * n * epochs):
        problems.append("absolute cost disagrees with realized relative cost")
    kept = int(np.sum(record.final_labels))
    want = n if record.method == emdriver.METHOD_FULL_KD else keep_count(n, rho)
    if kept != want:
        problems.append(f"{kept} kept labels, keep_count gives {want}")
    return problems


def round_trip_op(name: str, blob: bytes, back, labeling) -> Op:
    problems = [] if back == labeling else ["import_labels(export_labels(x)) != x"]
    return Op(name, sha256(blob), problems)


def label_round_trip(rep: Rep, name: str, labeling: knowledge.ValueLabeling) -> None:
    blob = knowledge.export_labels(labeling)
    rep.check(round_trip_op, name, blob, knowledge.import_labels(blob), labeling)


def record_op(name: str, record: emdriver.RunRecord, n: int, rho: float) -> Op:
    return Op(name, record.fingerprint(), record_problems(record, n, rho))


def run_op(rep: Rep, name: str, n: int, rho: float, fn, *args) -> emdriver.RunRecord:
    _, record = rep.timed(fn, *args)
    rep.kp += record.cost.absolute_cost
    rep.accs.append(record.final_accuracy)
    rep.check(record_op, name, record, n, rho)
    return record


# ---------------------------------------------------------------- ref-suite

REF_TASK = TaskSpec(classes=10, dims=16, per_class=100, spread=1.25, data_seed=7,
                    teacher_epochs=80)
REF_EPOCHS, REF_STAGE_LEN, REF_RHO, REF_BATCH = 60, 10, 0.7, 64
REF_RHO_GRID = (0.5, 0.7)


def sweep_row_op(row: dict, seed_tag: str, n: int) -> Op:
    line = evaluation.sweep_rows_to_csv([row]).splitlines()[1]
    problems = cost_problems(row["method"], n, row["rho"], REF_EPOCHS // REF_STAGE_LEN,
                             REF_EPOCHS, row["realized_relative_cost"], row["relative_cost"])
    return Op(f"sweep/{row['method']}/rho={row['rho']}/seed-{seed_tag}",
              sha256(line.encode()), problems)


class RefSuite:
    """The paper's reference task: every method over a keep-ratio grid and two
    seeds through ratio_sweep, then kcd label export and reuse in both modes."""

    name = "ref-suite"
    reference_seeds = (1, 0, 1, 9)  # teacher, two sweep seeds, reuse

    def seeds(self, seed: int) -> tuple[int, ...]:
        return tuple(derive_seeds(seed, 4))

    def setup(self, seeds, workdir: Path) -> Rep:
        return Rep(task=build_task(REF_TASK, seeds[0]))

    def rep(self, task: Task, seeds, workdir: Path) -> Rep:
        _, sweep_a, sweep_b, reuse_seed = seeds
        store, ds, n = task.store, task.dataset, task.store.n
        rep = Rep()
        base = distill_config(REF_EPOCHS, REF_STAGE_LEN, REF_RHO, REF_BATCH, 0)
        rows = rep.timed(evaluation.ratio_sweep, store, ds, base, STUDENT_HIDDEN,
                         rho_grid=REF_RHO_GRID, seeds=(sweep_a, sweep_b),
                         methods=emdriver.ALL_METHODS)
        rep.check(lambda: Op("sweep.csv", sha256(evaluation.sweep_rows_to_csv(rows).encode())))
        for row in rows:
            rep.kp += round(row["realized_relative_cost"] * n * REF_EPOCHS)
            rep.accs.append(row["accuracy"])
            tag = "a" if row["seed"] == sweep_a else "b"
            rep.check(sweep_row_op, row, tag, n)

        cfg = distill_config(REF_EPOCHS, REF_STAGE_LEN, REF_RHO, REF_BATCH, sweep_a)
        student = emdriver.init_student(store.dim, STUDENT_HIDDEN, store.num_classes, sweep_a)
        record = run_op(rep, "kcd", n, REF_RHO, emdriver.run, cfg, store, student, ds)
        labeling = record.final_labeling()
        label_round_trip(rep, "kcd.kcl", labeling)
        reuse_cfg = distill_config(REF_EPOCHS, REF_STAGE_LEN, REF_RHO, REF_BATCH, reuse_seed)
        for mode in emdriver.REUSE_MODES:
            run_op(rep, f"reuse-{mode}", n, REF_RHO, evaluation.reuse_run,
                   labeling, reuse_cfg, store, ds, mode)
        return rep


# ---------------------------------------------------------------- big-store

BIG_TASK = TaskSpec(classes=10, dims=16, per_class=25_000, spread=1.25, data_seed=7,
                    teacher_epochs=30, teacher_subset=4000)
BIG_EPOCHS, BIG_STAGE_LEN, BIG_RHO, BIG_BATCH = 4, 1, 0.7, 512


class BigStore:
    """A 200k-sample store with a stage boundary every epoch: kcd (blend path),
    ogve-only (selection-only path), then a .kcl round trip of kcd's labels."""

    name = "big-store"
    reference_seeds = (1, 2, 0)  # teacher, teacher subset, runs
    spec = BIG_TASK

    def seeds(self, seed: int) -> tuple[int, ...]:
        return tuple(derive_seeds(seed, 3))

    def setup(self, seeds, workdir: Path) -> Rep:
        return Rep(task=build_task(self.spec, seeds[0], seeds[1]))

    def rep(self, task: Task, seeds, workdir: Path) -> Rep:
        store, ds, n = task.store, task.dataset, task.store.n
        rep = Rep()
        cfg = distill_config(BIG_EPOCHS, BIG_STAGE_LEN, BIG_RHO, BIG_BATCH, seeds[2])
        records = {}
        for method in (emdriver.METHOD_KCD, emdriver.METHOD_OGVE_ONLY):
            student = emdriver.init_student(store.dim, STUDENT_HIDDEN, store.num_classes,
                                            seeds[2])
            records[method] = run_op(rep, method, n, BIG_RHO, emdriver.run_baseline,
                                     cfg, store, student, ds, method)
        label_round_trip(rep, "kcd.kcl", records[emdriver.METHOD_KCD].final_labeling())
        return rep


class BigStoreWarmup(BigStore):
    """big-store's code path on a tenth of the samples: the warm-up and the
    golden reference."""

    spec = TaskSpec(classes=10, dims=16, per_class=2500, spread=1.25, data_seed=7,
                    teacher_epochs=30, teacher_subset=4000)


# ---------------------------------------------------------------- cli-files

CLI_TASK = TaskSpec(classes=10, dims=16, per_class=1500, spread=1.25, data_seed=7,
                    teacher_epochs=8)
CLI_DATA = ["--classes", CLI_TASK.classes, "--dims", CLI_TASK.dims,
            "--per-class", CLI_TASK.per_class, "--spread", CLI_TASK.spread,
            "--seed", CLI_TASK.data_seed]
CLI_TEACHER = ["--hidden", ",".join(map(str, TEACHER_HIDDEN)),
               "--epochs", CLI_TASK.teacher_epochs]
CLI_RUN = ["--epochs", "4", "--stage-len", "2", "--batch-size", "256", "--rho", "0.7"]
CLI_RHO = 0.7
CLI_TRAIN_ROWS = round(0.8 * CLI_TASK.classes * CLI_TASK.per_class)


def cli_command(*argv) -> tuple[int, str]:
    """Run one command in-process; return its exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue().strip()


def command_op(name: str, result: tuple[int, str], *files: Path) -> Op:
    """A command's operation: exit code 0, digest over the files it wrote."""
    code, output = result
    if code != 0:
        return Op(name, problems=[f"exit code {code}: {output}"])
    return Op(name, sha256(b"".join(Path(p).read_bytes() for p in files)))


class CliFiles:
    """The README walkthrough through cli.main: gen-data and train-teacher are
    the set-up; distill --export-labels, reuse in both modes and report are
    the repetition. Sized so file reads and writes are a large share."""

    name = "cli-files"
    reference_seeds = (1, 0, 9)  # teacher, distill, reuse

    def seeds(self, seed: int) -> tuple[int, ...]:
        return tuple(derive_seeds(seed, 3))

    def setup(self, seeds, workdir: Path) -> Rep:
        rep = Rep(task=workdir)
        data_dir = workdir / "data"
        result = cli_command("gen-data", *CLI_DATA, "--out", data_dir)
        rep.check(command_op, "gen-data", result, data_dir / "train.csv", data_dir / "test.csv")
        model_path, probs_path = workdir / "teacher.bin", workdir / "tprobs.npy"
        result = cli_command("train-teacher", "--data", data_dir, *CLI_TEACHER,
                             "--seed", seeds[0], "--out-model", model_path,
                             "--out-probs", probs_path)
        rep.check(self.teacher_op, result, model_path, probs_path)
        return rep

    @staticmethod
    def teacher_op(result, model_path: Path, probs_path: Path) -> Op:
        op = command_op("train-teacher", result, model_path, probs_path)
        if not op.problems:
            # the CSV holds 17 significant digits, so regenerating the split
            # gives the very features the command read
            train = data.gen_gaussian_mixture(
                CLI_TASK.classes, CLI_TASK.dims, CLI_TASK.per_class, CLI_TASK.spread,
                CLI_TASK.data_seed).train_features
            probs = nn.softmax(nn.forward(nn.load_model(model_path), train))
            if not np.array_equal(probs, np.load(probs_path)):
                op.problems.append("reloaded checkpoint does not reproduce the cached probs")
        return op

    def rep(self, task: Path, seeds, workdir: Path) -> Rep:
        records_dir = workdir / "records"
        records_dir.mkdir()
        inputs = ["--data", task / "data", "--teacher-probs", task / "tprobs.npy", *CLI_RUN]
        labels_path = workdir / "labels.kcl"
        rep = Rep()
        runs = [("distill", ["distill", "--method", "kcd", *inputs, "--seed", seeds[1],
                             "--export-labels", labels_path])]
        runs += [(f"reuse-{mode}", ["reuse", "--labels", labels_path, "--mode", mode,
                                    *inputs, "--seed", seeds[2]])
                 for mode in emdriver.REUSE_MODES]
        written = 0
        for name, argv in runs:
            path = records_dir / f"{name}.json"
            result = rep.timed(cli_command, *argv, "--out-record", path)
            written += result[0] == 0
            rep.check(self.record_op, rep, name, result, path)
        rep.check(self.labels_op, records_dir / "distill.json", labels_path)
        summary = workdir / "summary.csv"
        result = cli_command("report", "--records", records_dir, "--out-csv", summary)
        rep.check(self.report_op, result, summary, written)
        return rep

    @staticmethod
    def record_op(rep: Rep, name: str, result, path: Path) -> Op:
        op = command_op(name, result)
        if not op.problems:
            record = emdriver.RunRecord.load(path)
            rep.kp += record.cost.absolute_cost
            rep.accs.append(record.final_accuracy)
            op = record_op(name, record, CLI_TRAIN_ROWS, CLI_RHO)
        return op

    @staticmethod
    def labels_op(record_path: Path, labels_path: Path) -> Op:
        if not (record_path.is_file() and labels_path.is_file()):
            return Op("labels.kcl", problems=["no exported labels"])
        op = Op("labels.kcl", sha256(labels_path.read_bytes()))
        labeling = emdriver.RunRecord.load(record_path).final_labeling()
        if knowledge.load_labels(labels_path) != labeling:
            op.problems.append("exported labels differ from the record's")
        return op

    @staticmethod
    def report_op(result, summary: Path, written: int) -> Op:
        op = command_op("report", result)
        if not op.problems:
            rows = summary.read_text().splitlines()[1:]
            if len(rows) != written:
                op.problems.append(f"report wrote {len(rows)} rows for {written} records")
            # drop the path and wall-time columns, which differ between runs
            op.digest = sha256("\n".join(",".join(r.split(",")[1:-1]) for r in rows).encode())
        return op


WORKLOADS = {w.name: w for w in (RefSuite(), BigStore(), CliFiles())}
WARMUPS = {"ref-suite": WORKLOADS["ref-suite"], "big-store": BigStoreWarmup(),
           "cli-files": WORKLOADS["cli-files"]}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reference_ops(name: str, workdir: Path) -> list[Op]:
    """Set-up and one repetition at the reference seeds: the golden operations."""
    workload = WARMUPS[name]
    seeds = workload.reference_seeds
    setup = workload.setup(seeds, fresh_dir(workdir / "setup"))
    rep = workload.rep(setup.task, seeds, fresh_dir(workdir / "rep"))
    return setup.finish() + rep.finish()
