"""Epoch-level feature ingestion, windowing, normalization and synthetic data.

The atomic unit is a 30-second epoch carrying five features: heart rate,
breath rate, heart-rate confidence, movement intensity, and the successive
heart-rate difference (derived at ingestion). Windows of 30 epochs (15 min)
are cut on a 2-epoch (1 min) stride and labeled by their final minute.

The synthetic generator produces fully labeled nights by alternating wake and
sleep bouts with log-normal durations and state-conditional Gaussian feature
emissions, optionally blended linearly across each transition. It stands in
for real recordings in training, evaluation, and the acceptance suite.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

EPOCH_SECONDS = 30
EPOCHS_PER_MINUTE = 2
FEATURE_NAMES = ("hr", "br", "hr_conf", "movement", "hr_diff")
CSV_COLUMNS = ("timestamp", "hr", "br", "hr_conf", "movement")
MAX_FILL_EPOCHS = 2  # most missing epochs that ingest_epochs fills in one gap
MIN_TAIL_MIN = 20.0  # trailing wake kept after a single synthetic sleep period


class IngestError(ValueError):
    """Malformed epoch CSV; message carries the offending row number."""


@dataclass
class EpochSeries:
    """Gap-free sequence of 30-second epochs for one subject.

    labels holds 0 (awake), 1 (sleep) or -1 (unlabeled) per epoch.
    transitions lists (kind, timestamp) ground-truth events when known
    (synthetic data or an ingested truth sidecar).
    """

    timestamps: np.ndarray
    hr: np.ndarray
    br: np.ndarray
    hr_conf: np.ndarray
    movement: np.ndarray
    hr_diff: np.ndarray
    labels: np.ndarray
    subject_id: str = ""
    source: str = "ingested"
    transitions: list = field(default_factory=list)

    def __len__(self):
        return len(self.timestamps)

    def feature_matrix(self):
        """5 x T matrix in canonical feature order."""
        return np.stack([self.hr, self.br, self.hr_conf, self.movement, self.hr_diff])


@dataclass
class FeatureWindow:
    """5 x 30 feature matrix labeled by its final minute.

    label_timestamp is the start of that final minute; end_timestamp is the
    exclusive end of the window.
    """

    values: np.ndarray
    end_timestamp: int
    label_timestamp: int
    label: int | None = None
    normalized: bool = False


@dataclass
class NormStats:
    """Per-feature z-score statistics, fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self):
        return {"mean": [float(v) for v in self.mean],
                "std": [float(v) for v in self.std]}

    @classmethod
    def from_dict(cls, d):
        return cls(mean=np.asarray(d["mean"], dtype=np.float64),
                   std=np.asarray(d["std"], dtype=np.float64))


def compute_hr_diff(hr):
    """Successive heart-rate difference; the first entry is defined as 0."""
    hr = np.asarray(hr, dtype=np.float64)
    out = np.zeros_like(hr)
    out[1:] = hr[1:] - hr[:-1]
    return out


def open_text(target, mode="r"):
    """Context manager: `target` itself if it is a file handle, else the file
    at that path opened in text mode with `mode` (and closed on exit)."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, mode, newline="")
    return contextlib.nullcontext(target)


def parse_record(fields):
    """(timestamp, hr, br, hr_conf, movement) from the text fields of one epoch
    record, ignoring any later field. Raises ValueError on a missing field, a
    field that is not a number, or a non-finite timestamp."""
    if len(fields) < 5:
        raise ValueError(f"expected 5 fields, got {len(fields)}")
    try:
        return (int(float(fields[0])), float(fields[1]), float(fields[2]),
                float(fields[3]), float(fields[4]))
    except OverflowError as exc:  # int(inf)
        raise ValueError(str(exc)) from exc


def vitals_error(hr, br, hr_conf, movement):
    """Why one epoch's vitals are invalid, or None when they are valid."""
    if not (math.isfinite(hr) and math.isfinite(br) and math.isfinite(hr_conf)
            and math.isfinite(movement)):
        return "hr, br, hr_conf and movement must be finite"
    if hr < 0 or br < 0:
        return "hr and br must be non-negative"
    if not 0.0 <= hr_conf <= 1.0:
        return f"hr_conf {hr_conf} outside [0,1]"
    if movement < 0:
        return "movement must be non-negative"
    return None


def _parse_row(row, row_no, has_label):
    try:
        ts, hr, br, hr_conf, movement = parse_record(row)
    except ValueError as exc:
        raise IngestError(f"row {row_no}: unparseable values: {row!r}") from exc
    error = vitals_error(hr, br, hr_conf, movement)
    if error is not None:
        raise IngestError(f"row {row_no}: {error}")
    label = -1
    if has_label and len(row) > 5 and row[5] != "":
        try:
            label = int(row[5])
        except ValueError:
            label = None
        if label not in (0, 1):
            raise IngestError(f"row {row_no}: label must be 0 or 1, got {row[5]!r}")
    return ts, hr, br, hr_conf, movement, label


def ingest_epochs(source, subject_id="", fill_gaps=False):
    """Read an epoch CSV into an EpochSeries.

    Expected header: timestamp,hr,br,hr_conf,movement[,label]. Timestamps must
    advance in strict 30 s steps; a gap is an error unless fill_gaps carries
    the last observation forward (at most MAX_FILL_EPOCHS missing epochs).
    """
    with open_text(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file: missing header")
        header = [h.strip() for h in header]
        if tuple(header[:5]) != CSV_COLUMNS:
            raise IngestError(f"bad header {header!r}; expected {','.join(CSV_COLUMNS)}[,label]")
        has_label = len(header) > 5 and header[5] == "label"
        if len(header) > 5 and not has_label:
            raise IngestError(f"bad header {header!r}; sixth column must be 'label'")

        cols = {name: [] for name in ("timestamp", "hr", "br", "hr_conf", "movement", "label")}
        prev_ts = None
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            ts, hr, br, hr_conf, movement, label = _parse_row(row, row_no, has_label)
            if prev_ts is not None:
                step = ts - prev_ts
                if step <= 0:
                    raise IngestError(f"row {row_no}: non-monotonic timestamp {ts} after {prev_ts}")
                if step != EPOCH_SECONDS:
                    missing = step // EPOCH_SECONDS - 1
                    if step % EPOCH_SECONDS != 0 or missing < 1:
                        raise IngestError(f"row {row_no}: timestamp {ts} not on the 30 s grid")
                    if not fill_gaps:
                        raise IngestError(f"row {row_no}: gap of {missing} epochs before timestamp {ts}")
                    if missing > MAX_FILL_EPOCHS:
                        raise IngestError(
                            f"row {row_no}: gap of {missing} epochs exceeds fill limit {MAX_FILL_EPOCHS}")
                    for i in range(1, missing + 1):
                        cols["timestamp"].append(prev_ts + i * EPOCH_SECONDS)
                        for name in ("hr", "br", "hr_conf", "movement", "label"):
                            cols[name].append(cols[name][-1])
            cols["timestamp"].append(ts)
            cols["hr"].append(hr)
            cols["br"].append(br)
            cols["hr_conf"].append(hr_conf)
            cols["movement"].append(movement)
            cols["label"].append(label)
            prev_ts = ts
    if not cols["timestamp"]:
        raise IngestError("no data rows")
    hr = np.asarray(cols["hr"], dtype=np.float64)
    return EpochSeries(
        timestamps=np.asarray(cols["timestamp"], dtype=np.int64),
        hr=hr,
        br=np.asarray(cols["br"], dtype=np.float64),
        hr_conf=np.asarray(cols["hr_conf"], dtype=np.float64),
        movement=np.asarray(cols["movement"], dtype=np.float64),
        hr_diff=compute_hr_diff(hr),
        labels=np.asarray(cols["label"], dtype=np.int64),
        subject_id=subject_id,
        source="ingested",
    )


def write_epochs(series, dest):
    """Write a series back to the epoch CSV schema (label column included
    whenever any epoch is labeled)."""
    with open_text(dest, "w") as fh:
        labeled = bool(np.any(series.labels >= 0))
        w = csv.writer(fh, lineterminator="\n")
        header = list(CSV_COLUMNS) + (["label"] if labeled else [])
        w.writerow(header)
        for i in range(len(series)):
            row = [int(series.timestamps[i]),
                   f"{series.hr[i]:.6f}", f"{series.br[i]:.6f}",
                   f"{series.hr_conf[i]:.6f}", f"{series.movement[i]:.6f}"]
            if labeled:
                row.append(int(series.labels[i]) if series.labels[i] >= 0 else "")
            w.writerow(row)


def write_transitions(transitions, dest):
    """Truth sidecar: one `kind,timestamp` row per ground-truth event."""
    with open_text(dest, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["kind", "timestamp"])
        for kind, ts in transitions:
            w.writerow([kind, int(ts)])


def read_transitions(source):
    """(kind, timestamp) pairs from a truth sidecar; IngestError names the
    first row without a finite timestamp."""
    with open_text(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["kind", "timestamp"]:
            raise IngestError(f"bad sidecar header {header!r}; expected kind,timestamp")
        out = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                out.append((row[0], int(float(row[1]))))
            except (IndexError, ValueError, OverflowError) as exc:  # int(inf)
                raise IngestError(f"row {row_no}: no finite timestamp: {row!r}") from exc
        return out


def make_windows(series, window_epochs=30):
    """Cut rolling windows: window i covers epochs [2i, 2i + window_epochs).

    The label is the final minute's state; if the last two epochs disagree the
    window stays unlabeled. A series shorter than one window yields an empty
    list with a warning.
    """
    n = len(series)
    if n < window_epochs:
        warnings.warn(f"series of {n} epochs shorter than one {window_epochs}-epoch window")
        return []
    mat = series.feature_matrix()
    out = []
    count = (n - window_epochs) // EPOCHS_PER_MINUTE + 1
    for i in range(count):
        s = i * EPOCHS_PER_MINUTE
        e = s + window_epochs
        l1 = int(series.labels[e - 2])
        l2 = int(series.labels[e - 1])
        label = l1 if (l1 == l2 and l1 >= 0) else None
        out.append(FeatureWindow(
            values=mat[:, s:e].copy(),
            end_timestamp=int(series.timestamps[e - 1]) + EPOCH_SECONDS,
            label_timestamp=int(series.timestamps[e - 2]),
            label=label,
        ))
    return out


def fit_normalizer(windows):
    """Per-feature mean/std over every epoch of the given (training) windows.

    A zero-variance feature gets std forced to 1 with a warning so the
    transform stays defined.
    """
    if not windows:
        raise ValueError("cannot fit normalizer on an empty window list")
    stacked = np.concatenate([w.values for w in windows], axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    for i, s in enumerate(std):
        if s == 0.0:
            warnings.warn(f"feature '{FEATURE_NAMES[i]}' has zero variance; std forced to 1")
            std[i] = 1.0
    return NormStats(mean=mean, std=std)


def zscore(values, stats):
    """Z-score (..., 5, T) feature values in float64, then cast to float32.

    The one normalization formula: training windows, `infer_hypnogram`'s
    whole night and the stream's single records all go through it, so they
    round identically.
    """
    return ((values - stats.mean[:, None]) / stats.std[:, None]).astype(np.float32)


def apply_normalizer(window, stats):
    """Z-score a window; the result is float32 and flagged normalized."""
    return replace(window, values=zscore(window.values, stats), normalized=True)


@dataclass
class SynthConfig:
    """Synthetic night generator parameters.

    Bout durations are log-normal with the given means (minutes) and a common
    log-space sigma. Emissions are state-conditional Gaussians per feature,
    blended linearly over transition_blur_min around each state change.
    """

    seed: int = 0
    hours: float = 8.0
    mean_sleep_min: float = 240.0
    mean_wake_min: float = 60.0
    duration_sigma: float = 0.25
    transition_blur_min: float = 2.0
    sleep_means: dict = field(default_factory=lambda: {
        "hr": 58.0, "br": 13.0, "hr_conf": 0.92, "movement": 0.05})
    sleep_stds: dict = field(default_factory=lambda: {
        "hr": 4.0, "br": 1.5, "hr_conf": 0.03, "movement": 0.05})
    wake_means: dict = field(default_factory=lambda: {
        "hr": 72.0, "br": 16.0, "hr_conf": 0.75, "movement": 0.6})
    wake_stds: dict = field(default_factory=lambda: {
        "hr": 8.0, "br": 2.5, "hr_conf": 0.08, "movement": 0.3})
    start_timestamp: int = 0
    subject_id: str = "synthetic"
    single_sleep_period: bool = False

    def validate(self):
        if self.hours < 1.0:
            raise ValueError(f"record length must be >= 1 h, got {self.hours}")
        if self.mean_sleep_min <= 0 or self.mean_wake_min <= 0:
            raise ValueError("bout durations must be positive")
        if self.transition_blur_min < 0:
            raise ValueError("transition blur must be non-negative")


def synth_generate(config):
    """Generate a fully labeled synthetic EpochSeries.

    Records start awake and alternate wake/sleep bouts until the requested
    length. series.transitions carries the true (kind, timestamp) events.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    n_epochs = int(round(config.hours * 3600 / EPOCH_SECONDS))

    def draw_minutes(mean):
        mu = math.log(mean) - 0.5 * config.duration_sigma ** 2
        return float(rng.lognormal(mu, config.duration_sigma))

    labels = np.empty(n_epochs, dtype=np.int64)
    transitions = []
    if config.single_sleep_period:
        # one main sleep period: wake, sleep, trailing wake (the event rules'
        # scope); the sleep bout is clamped to keep a wake tail on the record
        wake_epochs = max(2, int(round(draw_minutes(config.mean_wake_min)
                                       * EPOCHS_PER_MINUTE)))
        sleep_epochs = max(2, int(round(draw_minutes(config.mean_sleep_min)
                                        * EPOCHS_PER_MINUTE)))
        tail = int(round(MIN_TAIL_MIN * EPOCHS_PER_MINUTE))
        sleep_epochs = min(sleep_epochs, n_epochs - wake_epochs - tail)
        if sleep_epochs < 2:
            raise ValueError("record too short for a single sleep period")
        labels[:] = 0
        labels[wake_epochs:wake_epochs + sleep_epochs] = 1
        transitions.append(
            ("sleep_onset", config.start_timestamp + wake_epochs * EPOCH_SECONDS))
        transitions.append(
            ("wake_time", config.start_timestamp
             + (wake_epochs + sleep_epochs) * EPOCH_SECONDS))
    else:
        pos = 0
        state = 0  # start awake
        while pos < n_epochs:
            mean = config.mean_sleep_min if state == 1 else config.mean_wake_min
            dur = max(2, int(round(draw_minutes(mean) * EPOCHS_PER_MINUTE)))
            end = min(pos + dur, n_epochs)
            labels[pos:end] = state
            if pos > 0:
                kind = "sleep_onset" if state == 1 else "wake_time"
                transitions.append((kind, config.start_timestamp + pos * EPOCH_SECONDS))
            pos = end
            state = 1 - state

    # sleep-weight per epoch; a moving average of the label step turns each
    # transition into a linear ramp of transition_blur_min minutes
    w = labels.astype(np.float64)
    blur_epochs = int(round(config.transition_blur_min * EPOCHS_PER_MINUTE))
    if blur_epochs > 1:
        kernel = np.ones(blur_epochs) / blur_epochs
        w = np.convolve(w, kernel, mode="same")

    feats = {}
    for name in ("hr", "br", "hr_conf", "movement"):
        mu = (1.0 - w) * config.wake_means[name] + w * config.sleep_means[name]
        sd = (1.0 - w) * config.wake_stds[name] + w * config.sleep_stds[name]
        feats[name] = mu + sd * rng.standard_normal(n_epochs)
    feats["hr"] = np.maximum(feats["hr"], 0.0)
    feats["br"] = np.maximum(feats["br"], 0.0)
    feats["hr_conf"] = np.clip(feats["hr_conf"], 0.0, 1.0)
    feats["movement"] = np.maximum(feats["movement"], 0.0)

    timestamps = config.start_timestamp + EPOCH_SECONDS * np.arange(n_epochs, dtype=np.int64)
    return EpochSeries(
        timestamps=timestamps,
        hr=feats["hr"],
        br=feats["br"],
        hr_conf=feats["hr_conf"],
        movement=feats["movement"],
        hr_diff=compute_hr_diff(feats["hr"]),
        labels=labels,
        subject_id=config.subject_id,
        source="synthetic",
        transitions=transitions,
    )


def _series_transitions(series):
    if series.transitions:
        return [ts for _, ts in series.transitions]
    lab = series.labels
    idx = np.flatnonzero((lab[1:] != lab[:-1]) & (lab[1:] >= 0) & (lab[:-1] >= 0)) + 1
    return [int(series.timestamps[i]) for i in idx]


def build_training_set(series_list, context_hours=1.0, seed=0):
    """Labeled windows near state transitions, class-balanced.

    Keeps windows whose end timestamp lies within +-context_hours of some
    transition in their series, then down-samples the majority class (seeded).
    context_hours <= 0 keeps every labeled window.
    """
    windows = []
    any_transitions = False
    for series in series_list:
        trans = _series_transitions(series)
        if trans:
            any_transitions = True
        for w in make_windows(series):
            if w.label is None:
                continue
            if context_hours > 0:
                if not trans:
                    continue
                horizon = context_hours * 3600
                if not any(abs(w.end_timestamp - t) <= horizon for t in trans):
                    continue
            windows.append(w)
    if not any_transitions:
        raise ValueError("no transitions found in any input series")
    if not windows:
        raise ValueError("no labeled windows within the transition context")

    rng = np.random.default_rng(seed)
    by_class = {0: [], 1: []}
    for w in windows:
        by_class[w.label].append(w)
    n = min(len(by_class[0]), len(by_class[1]))
    if n == 0:
        raise ValueError("training set contains a single class only")
    kept = []
    for cls in (0, 1):
        group = by_class[cls]
        if len(group) > n:
            idx = rng.choice(len(group), size=n, replace=False)
            group = [group[i] for i in sorted(idx)]
        kept.extend(group)
    kept.sort(key=lambda w: (w.end_timestamp, w.label))
    return kept
