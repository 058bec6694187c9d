"""Confusion-matrix metrics, event matching with time relaxation, aggregation.

The positive class is sleep. Metrics are percentages; a metric whose
denominator is zero is reported as None (never NaN, never 0) and excluded
from aggregates with the exclusion counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datapipe import EVENT_KINDS, write_rows

DEFAULT_TOLERANCE_MIN = 15


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def p(self):
        return self.tp + self.fn

    @property
    def n(self):
        return self.tn + self.fp

    def __add__(self, other):
        return ConfusionCounts(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)


def confusion(pred, truth):
    """Elementwise tally of two aligned BinaryHypnograms (sleep = positive)."""
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: pred {len(pred)} vs truth {len(truth)}")
    if pred.start != truth.start:
        raise ValueError(f"misaligned start timestamps: {pred.start} vs {truth.start}")
    p = np.asarray(pred.states, dtype=bool)
    t = np.asarray(truth.states, dtype=bool)
    return ConfusionCounts(
        tp=int(np.sum(p & t)),
        tn=int(np.sum(~p & ~t)),
        fp=int(np.sum(p & ~t)),
        fn=int(np.sum(~p & t)),
    )


def _ratio(num, den):
    if den == 0:
        return None
    return 100.0 * num / den


def accuracy(c):
    return _ratio(c.tp + c.tn, c.p + c.n)


def precision(c):
    return _ratio(c.tp, c.tp + c.fp)


def specificity(c):
    return _ratio(c.tn, c.fp + c.tn)


def sensitivity(c):
    return _ratio(c.tp, c.tp + c.fn)


@dataclass
class MetricReport:
    accuracy: float | None
    precision: float | None
    specificity: float | None
    sensitivity: float | None
    counts: ConfusionCounts
    run_id: str = ""

    @classmethod
    def from_counts(cls, c, run_id=""):
        return cls(accuracy(c), precision(c), specificity(c), sensitivity(c),
                   counts=c, run_id=run_id)

    def format(self):
        def fmt(v):
            return "undefined" if v is None else f"{v:.2f}%"
        return (f"run={self.run_id or '-'} accuracy={fmt(self.accuracy)} "
                f"precision={fmt(self.precision)} specificity={fmt(self.specificity)} "
                f"sensitivity={fmt(self.sensitivity)} "
                f"[TP={self.counts.tp} TN={self.counts.tn} "
                f"FP={self.counts.fp} FN={self.counts.fn}]")


@dataclass
class EventMatchResult:
    per_kind: dict = field(default_factory=dict)   # kind -> ConfusionCounts (tp/fp/fn)
    matched: list = field(default_factory=list)    # (kind, pred_ts, truth_ts, delta_min)


def match_events(pred, truth, tolerance_min=DEFAULT_TOLERANCE_MIN):
    """Match each predicted event to its nearest truth of the same kind.

    pred: a SleepEvents, at most one event per kind.
    truth: (kind, timestamp) pairs. A prediction whose nearest truth (the
    first listed of equally near ones) lies within the tolerance is a TP;
    a prediction with no truth in range is an FP, and each unmatched truth
    an FN. A tolerance that is not a finite number of minutes >= 0 is a
    ValueError.
    """
    if not 0 <= tolerance_min < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0 minutes, got {tolerance_min}")
    result = EventMatchResult()
    tol_s = tolerance_min * 60.0
    for kind in EVENT_KINDS:
        pt = getattr(pred, kind)
        t_ts = [ts for k, ts in truth if k == kind]
        tt = None if pt is None else min(t_ts, key=lambda ts: abs(pt - ts), default=None)
        tp = int(tt is not None and abs(pt - tt) <= tol_s)
        if tp:
            result.matched.append((kind, pt, tt, (pt - tt) / 60.0))
        result.per_kind[kind] = ConfusionCounts(tp=tp, fp=int(pt is not None) - tp,
                                                fn=len(t_ts) - tp)
    return result


def aggregate_runs(reports):
    """Mean and sample std per metric over runs.

    Runs with an undefined metric are excluded from that metric's aggregate;
    the exclusion count is reported. A single contributing run has std None.
    """
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    summary = {}
    for name in ("accuracy", "precision", "specificity", "sensitivity"):
        values = [getattr(r, name) for r in reports]
        defined = [v for v in values if v is not None]
        excluded = len(values) - len(defined)
        if not defined:
            summary[name] = {"mean": None, "std": None, "n": 0, "excluded": excluded}
            continue
        mean = float(np.mean(defined))
        std = float(np.std(defined, ddof=1)) if len(defined) > 1 else None
        summary[name] = {"mean": mean, "std": std, "n": len(defined), "excluded": excluded}
    return summary


def format_summary(summary):
    lines = []
    for name, s in summary.items():
        if s["mean"] is None:
            lines.append(f"{name}: undefined in all runs")
            continue
        std = "n/a" if s["std"] is None else f"{s['std']:.2f}"
        line = f"{name}: mean={s['mean']:.2f}% std={std} n={s['n']}"
        if s["excluded"]:
            line += f" (excluded {s['excluded']} undefined)"
        lines.append(line)
    return "\n".join(lines)


def emit_plotdata(hypnogram, events, truth, dest, threshold=0.5):
    """Tidy per-minute CSV: minute,timestamp,probability,binarized,truth,event.

    truth is an aligned BinaryHypnogram or None; event column carries the
    event kind on the minute it fires, empty elsewhere.
    """
    marker = {(ts - hypnogram.start) // 60: kind for kind, ts in events.pairs()}
    truth_vals = [] if truth is None else truth.states.tolist()
    write_rows(dest, ["minute", "timestamp", "probability", "binarized", "truth", "event"],
               [(i, hypnogram.start + i * 60, f"{p:.6f}", int(p >= threshold),
                 truth_vals[i] if i < len(truth_vals) else "", marker.get(i, ""))
                for i, p in enumerate(hypnogram.probs)])
