"""kcdistill benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload ref-suite --seed 3 --seconds 30 --trace 0

Runs from the root of a source checkout and imports kcdistill from src/.
Order of a run:

1. an untimed warm-up: set-up plus one repetition at the reference seeds,
   whose digests must match bench/golden.json;
2. set-up and timed phase in turn, until --seconds have passed and each ran
   at least MIN_REPS times; setup_s, total_s and kp_per_s are medians.

With --trace 1 untraced and traced rounds alternate; per-layer metrics are
the median over traced set-ups plus the median over traced timed phases, and
trace.overhead_s is traced minus untraced total_s.

The last line of stdout is the result object; the line before it holds the
environment, every sample and, when traced, each layer's share of run time.
`--write-golden` recomputes bench/golden.json instead of measuring.
"""

import os

# BLAS must be single-threaded before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".bench_work"
MIN_REPS = 3

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import kcdistill
except ImportError as exc:
    print(f"error: cannot import kcdistill from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(kcdistill.__file__).resolve().is_relative_to(ROOT / "src"):
    # an installed copy would be measured instead of this checkout's source
    print(f"error: kcdistill imported from {kcdistill.__file__}, not {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "kp_per_s": "1/s",
                    "peak_rss_mb": "MB", "final_acc": "ratio", "ok_frac": "ratio"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def tally(ops, expected: dict, failures: list, strict: bool) -> int:
    """Check each operation's invariants and digest. With strict, every digest
    must already be in expected (golden); otherwise the first occurrence of an
    operation sets the digest later ones must repeat."""
    for op in ops:
        problems = list(op.problems)
        if strict and op.name not in expected:
            problems.append("no golden digest")
        want = expected.setdefault(op.name, op.digest)
        if op.digest != want:
            problems.append(f"digest {op.digest[:16]} != expected {want[:16]}")
        if problems:
            failures.append({"op": op.name, "problems": problems})
    return len(ops)


def layer_values(rec: spans.SpanRecorder, wall: float) -> dict:
    values = {f"{name}_s": rec.self_s[name] for name in spans.SPAN_NAMES}
    values["other_s"] = wall - sum(rec.self_s.values())
    values["nn.steps"] = rec.calls["nn.loss_and_grads"]
    values["ogve.rank_calls"] = rec.calls["ogve.rank"]
    values["vaks.calls"] = rec.calls["vaks.condense"] + rec.calls["vaks.direct_selection"]
    values["evaluation.accuracy_calls"] = rec.calls["evaluation.accuracy"]
    values["emdriver.runs"] = rec.calls["emdriver.self"]
    for key in ("emdriver.kp", "knowledge.label_bytes", "data.csv_rows"):
        values[key] = rec.counts[key]
    for layer in spans.LAYERS:
        values[f"{layer}.errors"] = rec.errors[layer]
    return values


def median_values(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def timed_call(fn, *args, trace: bool):
    """Run fn after a collection; return (result, seconds, layer values)."""
    rec = spans.SpanRecorder()
    gc.collect()
    with rec.recording() if trace else contextlib.nullcontext():
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
    return result, wall, layer_values(rec, wall) if trace else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Return the result object and the detail behind it."""
    workload = workloads.WORKLOADS[name]
    work = WORK / name
    failures: list = []
    golden = json.loads(GOLDEN.read_text()).get(name, {})
    warm_ops = workloads.reference_ops(name, work / "warmup")
    attempted = tally(warm_ops, dict(golden), failures, strict=True)
    missing = sorted(set(golden) - {op.name for op in warm_ops})
    attempted += len(missing)
    failures += [{"op": op, "problems": ["not produced"]} for op in missing]

    # Set-ups and repetitions alternate, so that both sample the whole run
    # rather than one stretch of it: on a shared host the speed of the same
    # code drifts by tens of percent over a few seconds.
    seeds = workload.seeds(seed)
    expected: dict = {}
    setup_walls, walls, rates, traced_setup_walls, traced_walls = [], [], [], [], []
    setup_layers, rep_layers = [], []
    phase_start = time.perf_counter()
    while (time.perf_counter() - phase_start < seconds or len(walls) < MIN_REPS
           or (trace and len(traced_walls) < MIN_REPS)):
        traced = trace and len(walls) > len(traced_walls)
        setup, setup_wall, setup_trace = timed_call(
            workload.setup, seeds, workloads.fresh_dir(work / "setup"), trace=traced)
        attempted += tally(setup.finish(), expected, failures, strict=False)
        rep, wall, rep_trace = timed_call(
            workload.rep, setup.task, seeds, workloads.fresh_dir(work / "rep"), trace=traced)
        attempted += tally(rep.finish(), expected, failures, strict=False)
        accs = rep.accs
        if traced:
            traced_setup_walls.append(setup_wall)
            traced_walls.append(wall)
            setup_layers.append(setup_trace)
            rep_layers.append(rep_trace)
        else:
            setup_walls.append(setup_wall)
            walls.append(wall)
            rates.append(rep.kp / rep.distill_s)
        # drop this round's store before the next set-up builds another, so
        # peak memory holds one task, not two
        setup = rep = None

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    total_s = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setup_walls),
        "total_s": total_s,
        "kp_per_s": statistics.median(rates),
        "peak_rss_mb": usage / 1024.0,
        "final_acc": sum(accs) / len(accs),
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    detail = {"workload": name, "seed": seed, "seeds": seeds, "env": environment(),
              "setup_s": setup_walls, "total_s": walls, "kp_per_s": rates,
              "end_to_end": values, "failures": failures[:20]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return {**result, "metrics": metrics}, detail

    setup_med, rep_med = median_values(setup_layers), median_values(rep_layers)
    traced_total = statistics.median(traced_walls)
    detail["traced_total_s"] = traced_walls
    detail["shares"] = {
        "setup": {k: v / statistics.median(traced_setup_walls)
                  for k, v in setup_med.items() if k.endswith("_s") and v},
        "rep": {k: v / traced_total for k, v in rep_med.items() if k.endswith("_s") and v},
    }
    metrics = {k: {"value": setup_med[k] + rep_med[k], "unit": layer_unit(k)} for k in rep_med}
    metrics["trace.overhead_s"] = {"value": traced_total - total_s, "unit": "s"}
    return {**result, "metrics": metrics}, detail


def write_golden() -> None:
    golden = {}
    for name in workloads.WORKLOADS:
        ops = workloads.reference_ops(name, WORK / name / "golden")
        broken = [(op.name, op.problems) for op in ops if op.problems]
        if broken:
            raise SystemExit(f"error: {name} reference fails its invariants: {broken}")
        golden[name] = {op.name: op.digest for op in ops}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests to {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not GOLDEN.is_file():
            print(f"error: missing golden digests {GOLDEN}", file=sys.stderr)
            return 2
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
