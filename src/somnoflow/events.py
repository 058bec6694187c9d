"""Sleep-onset / wake-up detection from a per-minute probability sequence.

Stages: moving-median smoothing, thresholding to binary states, minimum-run
suppression of short state flips, then the confirmation rules: a sleep-onset
candidate is accepted once 45 minutes of sleep accrue after it without any
10-minute contiguous awake run, and a wake candidate needs 15 contiguous awake
minutes immediately after it with no later sleep run of 10+ minutes.

All durations are configurable; the run-length-encoded engine here is checked
exhaustively against the literal reference in `reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datapipe import write_rows

MINUTE_SECONDS = 60


@dataclass
class Hypnogram:
    """Per-minute sleep probabilities starting at `start` (seconds)."""

    start: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        # NaN fails both comparisons
        if self.probs.size and not (self.probs.min() >= 0.0 and self.probs.max() <= 1.0):
            raise ValueError("probabilities must be finite and lie in [0,1]")

    def __len__(self):
        return len(self.probs)


@dataclass
class BinaryHypnogram:
    """Per-minute states, 0 = awake, 1 = sleep; any other value is a ValueError."""

    start: int
    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        if not ((states == 0) | (states == 1)).all():
            raise ValueError("states must be 0 (awake) or 1 (sleep)")
        self.states = np.asarray(states, dtype=np.int8)

    def __len__(self):
        return len(self.states)


@dataclass
class EventRuleConfig:
    threshold: float = 0.5
    median_width: int = 5
    min_run: int = 3
    sleep_confirm: int = 45
    awake_break: int = 10
    wake_confirm: int = 15
    reentry_run: int = 10

    def __post_init__(self):
        if self.median_width % 2 == 0:
            raise ValueError(f"median_width must be odd, got {self.median_width}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {self.threshold}")
        for name in ("median_width", "min_run", "sleep_confirm", "awake_break",
                     "wake_confirm", "reentry_run"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class TraceEntry:
    kind: str           # "sleep_onset" or "wake_time"
    candidate: int      # minute index
    accepted: bool
    reason: str


@dataclass
class SleepEvents:
    sleep_onset: int | None = None   # timestamps (seconds)
    wake_time: int | None = None
    trace: list = field(default_factory=list)

    def pairs(self):
        """(kind, timestamp) of each detected event, sleep onset first."""
        return [(kind, ts) for kind, ts in (("sleep_onset", self.sleep_onset),
                                            ("wake_time", self.wake_time))
                if ts is not None]


def smooth_probs(h, median_width):
    """Moving median; near the edges the window shrinks symmetrically so the
    length is preserved. Width 1 is the identity."""
    if median_width % 2 == 0:
        raise ValueError(f"median width must be odd, got {median_width}")
    n = len(h)
    if median_width > n:
        raise ValueError(f"median width {median_width} exceeds length {n}")
    half = median_width // 2
    p = h.probs
    out = np.empty_like(p)
    # an odd-width median is its window's middle order statistic, one of its
    # inputs, so partitioned interior windows and sorted edge windows are
    # bit-identical to one np.median call per minute (a Hypnogram holds no NaN)
    out[half:n - half] = np.partition(sliding_window_view(p, median_width), half,
                                      axis=1)[:, half]
    for i in (*range(half), *range(n - half, n)):
        k = min(i, n - 1 - i)
        out[i] = sorted(p[i - k:i + k + 1].tolist())[k]
    return Hypnogram(start=h.start, probs=out)


def binarize(h, threshold=0.5):
    """state = 1 iff p >= threshold (ties classify as sleep)."""
    return BinaryHypnogram(start=h.start, states=(h.probs >= threshold).astype(np.int8))


def _run_table(states):
    """Run-length encoding as three arrays: state, start and length per run."""
    a = np.asarray(states)
    # run edges: the first minute (if any), every change of state, the end
    edges = np.flatnonzero(np.concatenate(([a.size > 0], a[1:] != a[:-1], [True])))
    starts = edges[:-1]
    return a[starts], starts, edges[1:] - starts


def suppress_short_runs(b, min_run):
    """Flip interior runs shorter than min_run, leftmost first, to fixpoint.

    First and last runs are exempt. Flipping a run merges it with both
    neighbors, which necessarily share the opposite state. The merged run is
    at least as long as its left part, which is either the exempt first run or
    a run already found long enough, so one left-to-right pass reaches the
    fixpoint: after a flip the scan resumes past the absorbed right neighbor.
    """
    if min_run < 1:
        raise ValueError(f"min_run must be >= 1, got {min_run}")
    state, start, length = (a.tolist() for a in _run_table(b.states))
    out = np.array(b.states, dtype=np.int8)
    i = 1
    while i < len(state) - 1:
        if length[i] < min_run:
            out[start[i]:start[i] + length[i]] = 1 - state[i]
            i += 2
        else:
            i += 1
    return BinaryHypnogram(start=b.start, states=out)


def detect_sleep_time(b, cfg, trace=None):
    """First accepted awake-to-sleep transition, as a minute index.

    A candidate is accepted once `sleep_confirm` sleep minutes accrue after it
    before any contiguous awake run of `awake_break` minutes. A candidate left
    undecided at end of record is rejected (batch semantics).
    """
    state, start, length = _run_table(b.states)
    n = len(state)
    # Awake runs of awake_break+ minutes cut the runs into bouts, and a
    # candidate's accrual stops at the end of its bout. The first candidate of
    # a bout accrues the most, so the onset is the first sleep run of the
    # first bout that holds sleep_confirm sleep minutes. before[k] is the
    # number of sleep minutes in the runs before run k.
    sleep = state == 1
    before = np.concatenate(([0], np.cumsum(length * sleep)))
    breaks = np.flatnonzero(~sleep & (length >= cfg.awake_break))
    first = np.concatenate(([0], breaks + 1))
    end = np.append(breaks, n)
    hits = np.flatnonzero(before[end] - before[first] >= cfg.sleep_confirm)
    onset = None
    if hits.size:
        onset = int(first[hits[0]])
        while not sleep[onset]:  # only the first bout can open with awake runs
            onset += 1
    if trace is not None:
        cand = np.flatnonzero(sleep[:n if onset is None else onset + 1])
        stop = end[np.searchsorted(breaks, cand)]
        for i, j, accrued in zip(start[cand].tolist(), stop.tolist(),
                                 (before[stop] - before[cand]).tolist()):
            if accrued >= cfg.sleep_confirm:
                verdict = (True, f"{cfg.sleep_confirm} sleep minutes accrued")
            elif j < n:
                verdict = (False, f"awake run of {int(length[j])} >= {cfg.awake_break} "
                                  f"min after only {accrued} sleep minutes")
            else:
                verdict = (False, f"record ended with only {accrued} sleep minutes accrued")
            trace.append(TraceEntry("sleep_onset", i, *verdict))
    return None if onset is None else int(start[onset])


def detect_wake_time(b, cfg, sleep_onset, trace=None):
    """Earliest accepted sleep-to-awake transition after `sleep_onset`.

    A candidate needs `wake_confirm` contiguous awake minutes immediately
    after it and no later sleep run of `reentry_run` minutes or more.
    """
    state, start, length = _run_table(b.states)
    # only candidates after the last sleep run of reentry_run+ minutes have
    # no sleep reentry
    long_sleep = np.flatnonzero((state == 1) & (length >= cfg.reentry_run))
    last_reentry = int(long_sleep[-1]) if long_sleep.size else -1
    cand = np.flatnonzero((state == 0) & (start != 0) & (start > sleep_onset))
    hits = np.flatnonzero((length[cand] >= cfg.wake_confirm) & (cand > last_reentry))
    if trace is not None:
        decided = cand[:hits[0] + 1 if hits.size else len(cand)]
        for j, c, l in zip(decided.tolist(), start[decided].tolist(),
                           length[decided].tolist()):
            if l < cfg.wake_confirm:
                verdict = (False, f"only {l} contiguous awake minutes "
                                  f"(< {cfg.wake_confirm})")
            elif j < last_reentry:
                verdict = (False, f"later sleep run of >= {cfg.reentry_run} min")
            else:
                verdict = (True, f"{l} contiguous awake minutes, no sleep reentry")
            trace.append(TraceEntry("wake_time", c, *verdict))
    return int(start[cand[hits[0]]]) if hits.size else None


def predict_events(h, cfg=None):
    """Full chain: smooth, binarize, suppress short runs, detect both events."""
    if cfg is None:
        cfg = EventRuleConfig()
    n = len(h)
    eff_width = min(cfg.median_width, n if n % 2 == 1 else n - 1)
    smoothed = smooth_probs(h, eff_width) if n > 1 else h
    b = binarize(smoothed, cfg.threshold)
    b = suppress_short_runs(b, cfg.min_run)
    trace = []
    onset_idx = detect_sleep_time(b, cfg, trace)
    events = SleepEvents(trace=trace)
    if onset_idx is not None:
        events.sleep_onset = h.start + onset_idx * MINUTE_SECONDS
        wake_idx = detect_wake_time(b, cfg, onset_idx, trace)
        if wake_idx is not None:
            events.wake_time = h.start + wake_idx * MINUTE_SECONDS
    return events


class OnsetWatch:
    """The sleep onset of a hypnogram that grows one minute at a time.

    The watch counts only final minutes, whose suppressed state is the one
    `predict_events` gives them on this record and on every longer one, so
    the onset it accepts is the batch onset of all those records.
    - Minute i is settled once n >= median_width minutes are in and
      i + median_width // 2 <= n - 1: its median window stays the same in
      every longer record, so it is sleep iff at least k + 1 of the 2k + 1
      probabilities there reach the threshold (k = min(i, median_width // 2)).
    - Suppression flips a run iff it is neither the first nor the last run,
      the run before it did not flip, and it is shorter than min_run. So a
      settled run that the other state closes is final. The open run only
      grows, and never flips if it is the only run, holds min_run minutes or
      follows a flipped run: then its settled minutes are final at once.
    - A bout's sleep count only grows, and an awake run of awake_break final
      minutes cuts the bouts of every longer record there. So the first bout
      whose count reaches sleep_confirm opens with the batch onset.
    """

    def __init__(self, start, cfg):
        self.start = start
        self.cfg = cfg
        self.probs = []
        self.onset = None               # timestamp, once accepted
        self._state = None              # state of the open settled run
        self._run_start = 0             # its first minute
        self._flipped = False           # the run before it flipped
        self._final = 0                 # minutes [0, _final) are final
        self._count = 0                 # sleep minutes of the current bout
        self._candidate = None          # its first sleep minute
        self._sleep_end = 0             # one past the last final sleep minute

    def push(self, p):
        """Add one minute's probability; returns the onset timestamp on the
        minute it is accepted, else None."""
        self.probs.append(p)
        cfg, n, half = self.cfg, len(self.probs), self.cfg.median_width // 2
        if self.onset is not None or n < cfg.median_width:
            return None
        # minutes [0, half] settle at n = median_width, then one per push
        for i in range(0 if n == cfg.median_width else n - 1 - half, n - half):
            k = min(i, half)
            state = sum(q >= cfg.threshold for q in self.probs[i - k:i + k + 1]) > k
            if state != self._state:
                if i:  # the open run closes
                    flip = (self._run_start > 0 and not self._flipped
                            and i - self._run_start < cfg.min_run)
                    self._count_final(self._state ^ flip, i)
                    self._flipped = flip
                self._state, self._run_start = state, i
            if self._run_start == 0 or self._flipped or i + 1 - self._run_start >= cfg.min_run:
                self._count_final(state, i + 1)
        return self.onset

    def _count_final(self, state, stop):
        """Count the final minutes [_final, stop), all in one state, into the
        bout; an empty range repeats the last call's state and changes nothing."""
        if state:
            if not self._count:
                self._candidate = self._final
            self._count += stop - self._final
            self._sleep_end = stop
            if self._count >= self.cfg.sleep_confirm and self.onset is None:
                self.onset = self.start + self._candidate * MINUTE_SECONDS
        elif stop - self._sleep_end >= self.cfg.awake_break:
            self._count = 0
        self._final = stop


def write_events(events, dest, trace_ref=""):
    """Event output rows: kind,timestamp,confidence_trace_ref."""
    write_rows(dest, ["kind", "timestamp", "confidence_trace_ref"],
               [(kind, ts, trace_ref) for kind, ts in events.pairs()])


def format_trace(trace):
    lines = []
    for t in trace:
        verdict = "accept" if t.accepted else "reject"
        lines.append(f"{t.kind} candidate@{t.candidate}min {verdict}: {t.reason}")
    return "\n".join(lines)
