"""Real-time inference over newline-delimited epoch records.

A SleepStream keeps the last 30 normalized epochs in a ring buffer, runs the
model every second epoch once the window is full, grows the per-minute
hypnogram, and re-runs the event rules after each prediction. A class record
is emitted per prediction; each event kind is emitted at most once and never
retracted, so an event only fires once no future data can overturn it:

- sleep_onset is emitted as soon as the batch rules accept it on the prefix
  minus a short stability margin (the tail minutes whose smoothed/suppressed
  states can still change as data arrives); an acceptance that completes
  inside the stable region is final, so the emission always equals the batch
  result.
- wake_time depends on there being no later sleep re-entry anywhere in the
  record, which no prefix can guarantee; it is emitted at finalize() only.

finalize() applies end-of-record semantics identical to the batch pipeline.

Wire grammar (one record per line):
  in:  timestamp,hr,br,hr_conf,movement
  out: class,<timestamp>,<probability>
       event,<kind>,<timestamp>
       err,<reason>
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .datapipe import EPOCH_SECONDS, zscore
from .events import EventRuleConfig, Hypnogram, SleepEvents, predict_events


@dataclass
class Emission:
    kind: str        # "class" | "event" | "err"
    payload: tuple

    def format(self):
        if self.kind == "class":
            ts, p = self.payload
            return f"class,{ts},{p:.6f}"
        if self.kind == "event":
            event_kind, ts = self.payload
            return f"event,{event_kind},{ts}"
        return f"err,{self.payload[0]}"


class SleepStream:
    """Single ordered stream; share one immutable model across streams freely."""

    def __init__(self, model, rule_config=None, stride_epochs=2):
        if model.norm_stats is None:
            raise ValueError("model has no normalization statistics")
        self.model = model
        self.rule_config = rule_config or EventRuleConfig()
        self.window_epochs = model.config.window_epochs
        self.stride_epochs = stride_epochs
        self._ring = deque(maxlen=self.window_epochs)
        self._last_ts = None
        self._last_hr = None
        self._n_epochs = 0
        self._probs = []
        self._hyp_start = None
        self._emitted = {}
        self._finalized = False

    def feed_line(self, line):
        """Parse one input line and feed it; malformed input yields an error
        emission and leaves the state unchanged."""
        parts = line.strip().split(",")
        if len(parts) < 5:
            return [Emission("err", (f"malformed line: {line.strip()!r}",))]
        try:
            ts = int(float(parts[0]))
            values = tuple(float(v) for v in parts[1:5])
        except ValueError:
            return [Emission("err", (f"malformed line: {line.strip()!r}",))]
        return self.feed(ts, *values)

    def feed(self, timestamp, hr, br, hr_conf, movement):
        """Consume one epoch record; returns the emissions it triggers."""
        if self._finalized:
            return [Emission("err", ("stream already finalized",))]
        if self._last_ts is not None and timestamp != self._last_ts + EPOCH_SECONDS:
            return [Emission("err", (f"out-of-order timestamp {timestamp}; "
                                     f"expected {self._last_ts + EPOCH_SECONDS}",))]
        if not 0.0 <= hr_conf <= 1.0 or hr < 0 or br < 0 or movement < 0:
            return [Emission("err", (f"invalid feature values at {timestamp}",))]

        hr_diff = 0.0 if self._last_hr is None else hr - self._last_hr
        self._last_hr = hr
        self._last_ts = timestamp
        self._ring.append((hr, br, hr_conf, movement, hr_diff))
        self._n_epochs += 1

        out = []
        if (self._n_epochs >= self.window_epochs
                and (self._n_epochs - self.window_epochs) % self.stride_epochs == 0):
            # C-contiguous like the batch path: einsum's accumulation order
            # (and hence float32 rounding) depends on the memory layout
            window = np.ascontiguousarray(np.array(self._ring, dtype=np.float64).T)  # (5, 30)
            x = np.ascontiguousarray(zscore(window, self.model.norm_stats))
            p_final, _ = self.model.forward_batch(x[None], train=False)
            p = float(p_final[0])
            minute_ts = timestamp - EPOCH_SECONDS  # start of the window's final minute
            if self._hyp_start is None:
                self._hyp_start = minute_ts
            self._probs.append(p)
            out.append(Emission("class", (minute_ts, p)))
            out.extend(self._check_events())
        return out

    def hypnogram(self):
        start = self._hyp_start if self._hyp_start is not None else (self._last_ts or 0)
        return Hypnogram(start=start, probs=np.asarray(self._probs, dtype=np.float64))

    def _check_events(self):
        if "sleep_onset" in self._emitted:
            return []
        # drop the tail minutes whose smoothed / run-suppressed states can
        # still change with future data; an onset accepted before that point
        # is final, so emitting it can never disagree with the batch rules
        margin = self.rule_config.median_width // 2 + self.rule_config.min_run
        stable = len(self._probs) - margin
        if stable < 1:
            return []
        hyp = Hypnogram(start=self._hyp_start,
                        probs=np.asarray(self._probs[:stable], dtype=np.float64))
        events = predict_events(hyp, self.rule_config)
        if events.sleep_onset is None:
            return []
        self._emitted["sleep_onset"] = events.sleep_onset
        return [Emission("event", ("sleep_onset", events.sleep_onset))]

    def finalize(self):
        """Flush pending decisions; returns (emissions, SleepEvents).

        The returned events are the batch-rule result on the full hypnogram.
        """
        self._finalized = True
        if not self._probs:
            return [], SleepEvents()
        events = predict_events(self.hypnogram(), self.rule_config)
        out = []
        for kind, ts in (("sleep_onset", events.sleep_onset), ("wake_time", events.wake_time)):
            if ts is not None and kind not in self._emitted:
                self._emitted[kind] = ts
                out.append(Emission("event", (kind, ts)))
        return out, events


def batch_emissions(model, series, rule_config=None, stride_epochs=2):
    """Batch-pipeline twin of a full stream replay, for equivalence checks:
    one class record per hypnogram minute plus the batch events."""
    from .sleepnet import infer_hypnogram
    hyp = infer_hypnogram(model, series, stride_epochs=stride_epochs)
    out = [Emission("class", (hyp.start + i * 60, float(p)))
           for i, p in enumerate(hyp.probs)]
    events = predict_events(hyp, rule_config or EventRuleConfig())
    for kind, ts in (("sleep_onset", events.sleep_onset), ("wake_time", events.wake_time)):
        if ts is not None:
            out.append(Emission("event", (kind, ts)))
    return out, events


def replay_series(model, series, rule_config=None, stride_epochs=2):
    """Feed a whole series epoch-by-epoch; returns (emissions, SleepEvents)."""
    stream = SleepStream(model, rule_config, stride_epochs)
    out = []
    for i in range(len(series)):
        out.extend(stream.feed(int(series.timestamps[i]), float(series.hr[i]),
                               float(series.br[i]), float(series.hr_conf[i]),
                               float(series.movement[i])))
    tail, events = stream.finalize()
    out.extend(tail)
    return out, events
