"""Real-time inference over newline-delimited epoch records.

A SleepStream is the batch pipeline fed one record at a time. Records are
checked by the ingest code and z-scored by the batch formula; a malformed
line, a timestamp outside int64, a non-finite, negative or out-of-range
value, or a z-score that overflows float32 gets an `err,` frame and leaves
the state unchanged. Each accepted record is pushed into the batch scorer,
`sleepnet.RecordScorer`, which scores a window as soon as its final epoch
arrives by re-running, for all heads at once, the conv tile that holds the
newest epochs and the fc tile that holds the new window, zero-padded past
them, then the trunk. A column of those fixed-shape products is the same as
in a whole-night pass, so every probability equals the batch one bit for
bit. A class record is emitted per prediction; each event kind is emitted
at most once and never retracted:

- sleep_onset is emitted on the minute that `events.OnsetWatch` accepts it
  from minutes whose smoothed and suppressed states can no longer change:
  the first bout of those final minutes to hold `sleep_confirm` sleep
  minutes. So it equals the batch onset of the record at that minute and of
  every longer one, and the stream runs the batch rules only at finalize().
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

from dataclasses import dataclass

import numpy as np

from . import sleepnet
from .datapipe import (EPOCH_SECONDS, clipped_repr, parse_record, timestamp_error,
                       vitals_error, zscore)
from .events import EventRuleConfig, Hypnogram, OnsetWatch, SleepEvents, predict_events


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
    """Single ordered stream. Inference writes nothing to the model: each
    stream's scorer keeps its own stacked copies of the conv, batchnorm and
    FC weights and its own buffers, and only reads the rest. So streams on
    several threads may share one model while nothing trains it or loads
    into it."""

    def __init__(self, model, rule_config=None):
        if model.norm_stats is None:
            raise ValueError("model has no normalization statistics")
        self.model = model
        self.rule_config = rule_config or EventRuleConfig()
        self._scorer = sleepnet.RecordScorer(model)
        self._last_ts = None
        self._last_hr = None
        self._watch = None  # OnsetWatch, from the first prediction on
        self._finalized = False

    def feed_line(self, line):
        """Parse one input line and feed it; malformed input yields an error
        emission and leaves the state unchanged."""
        try:
            record = parse_record(line.strip().split(","))
        except ValueError:
            return [Emission("err", (f"malformed line: {clipped_repr(line.strip())}",))]
        return self.feed(*record)

    def feed(self, timestamp, hr, br, hr_conf, movement):
        """Consume one epoch record; returns the emissions it triggers."""
        if self._finalized:
            return [Emission("err", ("stream already finalized",))]
        error = timestamp_error(timestamp)
        if error is not None:
            return [Emission("err", (error,))]
        if self._last_ts is not None and timestamp != self._last_ts + EPOCH_SECONDS:
            return [Emission("err", (f"out-of-order timestamp {timestamp}; "
                                     f"expected {self._last_ts + EPOCH_SECONDS}",))]
        if vitals_error(hr, br, hr_conf, movement) is not None:
            return [Emission("err", (f"invalid feature values at {timestamp}",))]
        hr_diff = 0.0 if self._last_hr is None else hr - self._last_hr
        with np.errstate(over="ignore"):  # reported below
            z = zscore(np.array((hr, br, hr_conf, movement, hr_diff))[:, None],
                       self.model.norm_stats)
        if not np.isfinite(z).all():
            return [Emission("err", (f"feature values at {timestamp} overflow "
                                     f"float32 once z-scored",))]

        self._last_hr = hr
        self._last_ts = timestamp
        out = []
        for p in self._scorer.push(z).tolist():  # at most one window ends per record
            minute_ts = timestamp - EPOCH_SECONDS  # start of the window's final minute
            if self._watch is None:
                self._watch = OnsetWatch(minute_ts, self.rule_config)
            out.append(Emission("class", (minute_ts, p)))
            onset = self._watch.push(p)
            if onset is not None:
                out.append(Emission("event", ("sleep_onset", onset)))
        return out

    def hypnogram(self):
        if self._watch is None:
            return Hypnogram(start=self._last_ts or 0, probs=np.empty(0))
        return Hypnogram(start=self._watch.start,
                         probs=np.asarray(self._watch.probs, dtype=np.float64))

    def finalize(self):
        """Flush pending decisions; returns (emissions, SleepEvents).

        The returned events are the batch-rule result on the full hypnogram,
        the stream's one rule run. A sleep_onset emitted earlier is theirs
        and is not sent again.
        """
        self._finalized = True
        if self._watch is None:
            return [], SleepEvents()
        events = predict_events(self.hypnogram(), self.rule_config)
        pending = [pair for pair in events.pairs()
                   if pair[0] != "sleep_onset" or self._watch.onset is None]
        return [Emission("event", pair) for pair in pending], events


def batch_emissions(model, series, rule_config=None):
    """Batch-pipeline twin of a full stream replay, for equivalence checks:
    one class record per hypnogram minute plus the batch events."""
    hyp = sleepnet.infer_hypnogram(model, series)
    out = [Emission("class", (hyp.start + i * 60, float(p)))
           for i, p in enumerate(hyp.probs)]
    events = predict_events(hyp, rule_config or EventRuleConfig())
    out.extend(Emission("event", pair) for pair in events.pairs())
    return out, events


def replay_series(model, series, rule_config=None):
    """Feed a whole series epoch-by-epoch; returns (emissions, SleepEvents)."""
    stream = SleepStream(model, rule_config)
    out = []
    for i in range(len(series)):
        out.extend(stream.feed(int(series.timestamps[i]), float(series.hr[i]),
                               float(series.br[i]), float(series.hr_conf[i]),
                               float(series.movement[i])))
    tail, events = stream.finalize()
    out.extend(tail)
    return out, events
