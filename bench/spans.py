"""Span recorder that times kcdistill's layers from outside the package.

While recording, module-level functions (and RunRecord.save/load) are
replaced by wrappers. Each call opens a span linked to the span that was open
when it started; on close its duration, less the time of its child spans, is
added to the span name's self time. Spans are folded into these totals as
they close, so memory and per-call cost stay flat over long runs.

An opaque span (teacher training) swallows everything under it: steps inside
nn.train_classifier count as teacher time, not as nn.loss_and_grads.
Everything runs in one thread with no queue, so time spent waiting is zero
and is not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from kcdistill import data, emdriver, evaluation, knowledge, nn, ogve, vaks


def _add(key, size, outer_only=False):
    def hook(counts, args, result, outer):
        if outer or not outer_only:
            counts[key] += size(args, result)
    return hook


# run_baseline calls run for kcd: count each run's knowledge points once
_KP = _add("emdriver.kp", lambda args, result: result[1].cost.absolute_cost, outer_only=True)
_LABEL_OUT = _add("knowledge.label_bytes", lambda args, result: len(result))
_LABEL_IN = _add("knowledge.label_bytes", lambda args, result: len(args[0]))
_ROWS_IN = _add("data.csv_rows", lambda args, result: result.n)
_ROWS_OUT = _add("data.csv_rows", lambda args, result: len(args[2]))

# (owner, attribute, span name, options). Names that nest in each other, such
# as ogve.label_by_ratio -> ogve.rank, share a span name, so the outer call
# carries the total and is counted once.
TARGETS = [
    (nn, "loss_and_grads", "nn.loss_and_grads", {}),
    (nn, "sgd_step", "nn.sgd_step", {}),
    (nn, "train_teacher", "nn.teacher", {"opaque": True}),
    (nn, "train_classifier", "nn.teacher", {"opaque": True}),
    (nn, "save_model", "cli.model_io", {}),
    (nn, "load_model", "cli.model_io", {}),
    (ogve, "observe_batch", "ogve.observe_batch", {}),
    (ogve, "entropy_rows", "ogve.entropy_rows", {}),
    (ogve, "label_by_ratio", "ogve.rank", {}),
    (ogve, "rank", "ogve.rank", {}),
    (ogve, "ranks_from_scores", "ogve.rank", {}),
    (ogve, "labeling_from_ranks", "ogve.rank", {}),
    (vaks, "condense", "vaks.condense", {}),
    (vaks, "direct_selection", "vaks.direct_selection", {}),
    (knowledge, "build_store", "knowledge.build_store", {}),
    (knowledge, "export_labels", "knowledge.export_labels", {"on_result": _LABEL_OUT}),
    (knowledge, "save_labels", "knowledge.export_labels", {}),
    (knowledge, "import_labels", "knowledge.import_labels", {"on_result": _LABEL_IN}),
    (knowledge, "load_labels", "knowledge.import_labels", {}),
    (data, "gen_gaussian_mixture", "data.gen", {}),
    (data, "load_csv", "data.load_csv", {"on_result": _ROWS_IN}),
    (data, "save_csv", "data.save_csv", {"on_result": _ROWS_OUT}),
    # emdriver imports accuracy by name, so its binding is patched too
    (evaluation, "accuracy", "evaluation.accuracy", {}),
    (emdriver, "accuracy", "evaluation.accuracy", {}),
    (emdriver, "run", "emdriver.self", {"on_result": _KP}),
    (emdriver, "run_baseline", "emdriver.self", {"on_result": _KP}),
    (emdriver, "run_with_fixed_labels", "emdriver.self", {"on_result": _KP}),
    (emdriver.RunRecord, "save", "cli.record_io", {}),
    (emdriver.RunRecord, "load", "cli.record_io", {}),
]
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


class SpanRecorder:
    """Per-span self time and outermost call counts, plus per-layer error
    counts and the byte/row/knowledge-point counters of the hooks above."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # open spans: [name, seconds covered by children]
        self._opaque = 0

    def _wrap(self, fn, name, opaque=False, on_result=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._opaque:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != name
            frame = [name, 0.0]
            stack.append(frame)
            rec._opaque += opaque
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.errors[name.split(".")[0]] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                rec._opaque -= opaque
                stack.pop()
                rec.self_s[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if outer:
                    rec.calls[name] += 1
            if on_result is not None:
                on_result(rec.counts, args, result, outer)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, opts in TARGETS:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, **opts)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, **opts))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
