"""Recompute ref-suite's reference operations and compare them with the
golden digests: every RunRecord fingerprint, the sweep CSV digest and the
.kcl round trip must be bit-identical, and every invariant must hold."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def test_ref_suite_matches_golden(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())["ref-suite"]
    ops = workloads.reference_ops("ref-suite", tmp_path)
    assert [(op.name, op.problems) for op in ops if op.problems] == []
    assert {op.name: op.digest for op in ops} == golden
