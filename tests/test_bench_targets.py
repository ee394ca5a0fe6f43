"""Every function the benchmark's span recorder wraps must still exist.

bench/spans.py patches kcdistill functions by (owner, attribute) name only
when a run is traced, so a rename in src/ would otherwise surface only as a
failing --trace 1 run. The file is executed from source with runpy, which
writes nothing under bench/.
"""

import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in TARGETS],
    ids=[f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
         for owner, attr, _, _ in TARGETS],
)
def test_span_target_resolves(owner, attr):
    module = getattr(owner, "__module__", None) or owner.__name__
    assert module.startswith("kcdistill.")
    assert callable(getattr(owner, attr, None)), f"{module} has no callable {attr!r}"
