"""Every function the benchmark's span recorder wraps must still exist, and
its counting hooks must still read what those functions return.

bench/spans.py patches kcdistill functions by (owner, attribute) name only
when a run is traced, so a rename in src/ or a changed return shape would
otherwise surface only as a failing --trace 1 run. The bench files are
executed from source with runpy, which writes nothing under bench/.
"""

import json
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = runpy.run_path(str(BENCH / "spans.py"))
TARGETS = SPANS["TARGETS"]


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in TARGETS],
    ids=[f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
         for owner, attr, _, _ in TARGETS],
)
def test_span_target_resolves(owner, attr):
    module = getattr(owner, "__module__", None) or owner.__name__
    assert module.startswith("kcdistill.")
    assert callable(getattr(owner, attr, None)), f"{module} has no callable {attr!r}"


def test_cli_files_reference_ops_feed_every_counting_hook(tmp_path):
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    golden = json.loads((BENCH / "golden.json").read_text())["cli-files"]
    recorder = SPANS["SpanRecorder"]()
    with recorder.recording():
        ops = workloads["reference_ops"]("cli-files", tmp_path)
    assert [(op.name, op.problems) for op in ops if op.problems] == []
    assert {op.name: op.digest for op in ops} == golden
    assert dict(recorder.errors) == {}
    for counter in ("data.csv_rows", "knowledge.label_bytes", "emdriver.kp"):
        assert recorder.counts[counter] > 0, counter
    # student steps go through the traced names (nn.steps counts them), and
    # the teacher's steps stay inside its opaque span
    assert recorder.calls["nn.loss_and_grads"] > 0
    assert recorder.calls["nn.sgd_step"] > 0
    assert recorder.self_s["nn.teacher"] > 0
