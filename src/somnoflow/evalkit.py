"""Confusion-matrix metrics, event matching with time relaxation, aggregation.

The positive class is sleep. Metrics are percentages; a metric whose
denominator is zero is reported as None (never NaN, never 0) and excluded
from aggregates with the exclusion counted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .datapipe import open_text

DEFAULT_TOLERANCE_MIN = 15
EVENT_KINDS = ("sleep_onset", "wake_time")


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

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn

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
    tolerance_min: float = DEFAULT_TOLERANCE_MIN

    def totals(self):
        out = ConfusionCounts()
        for c in self.per_kind.values():
            out = out + c
        return out


def match_events(pred, truth, tolerance_min=DEFAULT_TOLERANCE_MIN):
    """Greedy nearest-first matching of predicted events to truth, per kind.

    pred: a SleepEvents, a list of SleepEvents, or (kind, timestamp) pairs.
    truth: (kind, timestamp) pairs. A pair within the tolerance is a TP;
    unmatched predictions are FPs, unmatched truths FNs.
    """
    if hasattr(pred, "sleep_onset"):
        pred = pred.pairs()
    elif pred and hasattr(pred[0], "sleep_onset"):
        pred = [pair for ev in pred for pair in ev.pairs()]
    result = EventMatchResult(tolerance_min=tolerance_min)
    tol_s = tolerance_min * 60.0
    for kind in EVENT_KINDS:
        p_ts = [ts for k, ts in pred if k == kind]
        t_ts = [ts for k, ts in truth if k == kind]
        counts = ConfusionCounts()
        cand = sorted(
            ((abs(pt - tt), i, j) for i, pt in enumerate(p_ts) for j, tt in enumerate(t_ts)),
            key=lambda c: (c[0], c[1], c[2]))
        used_p, used_t = set(), set()
        for delta, i, j in cand:
            if delta > tol_s or i in used_p or j in used_t:
                continue
            used_p.add(i)
            used_t.add(j)
            counts.tp += 1
            result.matched.append((kind, p_ts[i], t_ts[j], (p_ts[i] - t_ts[j]) / 60.0))
        counts.fp = len(p_ts) - len(used_p)
        counts.fn = len(t_ts) - len(used_t)
        result.per_kind[kind] = counts
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
    marker = {}
    if events is not None:
        for kind, ts in events.pairs():
            minute = (ts - hypnogram.start) // 60
            marker[minute] = kind
    with open_text(dest, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["minute", "timestamp", "probability", "binarized", "truth", "event"])
        for i, p in enumerate(hypnogram.probs):
            truth_val = ""
            if truth is not None and i < len(truth.states):
                truth_val = int(truth.states[i])
            w.writerow([i, hypnogram.start + i * 60, f"{p:.6f}",
                        int(p >= threshold), truth_val, marker.get(i, "")])
