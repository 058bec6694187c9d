"""Outside-in span tracer for the somnoflow benchmark.

Spans are recorded by replacing module attributes and class methods with
timing wrappers inside the benchmark process; no somnoflow source changes.
A name is wrapped where its callers look it up, so `sleepnet.sigmoid` (the
name `forward_batch` resolves) is wrapped, not `neuralcore.sigmoid`.

Each span records its id, name, start, end, parent span and operation id.
Spans stay in memory (a flat int64 array) and are written out by `dump`.
Self time is a span's duration minus the time covered by its children; the
process is single-threaded, so children never overlap and that is the sum of
their durations.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN_FIELDS = ("span_id", "name_id", "start_ns", "end_ns", "parent_id", "op_id")


class Tracer:
    """Records spans of the names `patch` wraps while `enabled` is true, and
    keeps per-name self time, total time, call counts and counters."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self._names = {}
        self._spans = array("q")
        self._stack = []          # open spans: [span_id, child_ns]
        self._next_id = 0
        self._patches = []
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.top_ns = 0           # time covered by spans without a parent
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    # --- installation -----------------------------------------------------

    def patch(self, owner, attr, name, on_call=None):
        """Replace owner.attr with a wrapper recording span `name`.

        on_call(tracer, args, result) runs after the call to add counts.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, on_call))
        self._patches.append((owner, attr, original))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, on_call):
        tracer = self
        name_id = self._names.setdefault(name, len(self._names))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_ns[name] += dur - frame[1]
                tracer.total_ns[name] += dur
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_ns += dur
                tracer._spans.extend((frame[0], name_id, start, end, parent, tracer.op_id))
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- output -----------------------------------------------------------

    @property
    def span_count(self):
        return len(self._spans) // len(SPAN_FIELDS)

    def dump(self, path):
        """Write every recorded span to a compressed .npz file (columns
        SPAN_FIELDS, plus the span names indexed by name_id)."""
        spans = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        names = sorted(self._names, key=self._names.get)
        np.savez_compressed(path, spans=spans, fields=np.array(SPAN_FIELDS),
                            names=np.array(json.dumps(names)))
