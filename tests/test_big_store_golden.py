"""big-store's reference operations against the benchmark's golden digests.

big-store is the only golden workload that trains at batch 512 and re-ranks
and blends at every epoch; its reference operations run that path on a
tenth of its samples. This is the tier-1 gate on it (row gathers, ranking,
condensation, the .kcl round trip). bench/workloads.py is executed from
source with runpy, which writes nothing under bench/.
"""

import json
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_big_store_matches_golden(tmp_path):
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    golden = json.loads((BENCH / "golden.json").read_text())["big-store"]
    ops = workloads["reference_ops"]("big-store", tmp_path)
    assert [(op.name, op.problems) for op in ops if op.problems] == []
    assert {op.name: op.digest for op in ops} == golden
