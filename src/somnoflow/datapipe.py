"""Epoch-level feature ingestion, windowing, normalization and synthetic data.

The atomic unit is a 30-second epoch carrying five features: heart rate,
breath rate, heart-rate confidence, movement intensity, and the successive
heart-rate difference (derived at ingestion). Windows of 30 epochs (15 min)
are cut on a 2-epoch (1 min) stride and labeled by their final minute.

Every CSV somnoflow reads (epoch files, truth sidecars, hypnograms) has one
record grammar: a record per line, lines ended by \\n, \\r\\n or \\r
(`record_lines` splits a text so), and fields split on commas with no
quoting, as `serve` splits its lines; a quoted field is not a number.
Timestamps must lie in int64.

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
from dataclasses import dataclass, field
from itertools import starmap, zip_longest

import numpy as np

EPOCH_SECONDS = 30
EPOCHS_PER_MINUTE = 2
FEATURE_NAMES = ("hr", "br", "hr_conf", "movement", "hr_diff")
CSV_COLUMNS = ("timestamp", "hr", "br", "hr_conf", "movement")
TIMESTAMP_LIMIT = 2 ** 63  # timestamps are int64: |t| must stay below this
MIN_TAIL_MIN = 20.0  # trailing wake kept after a single synthetic sleep period
ECHO_LIMIT = 200  # characters of a row or line an error message repeats
CONTEXT_HOURS = 1.0  # build_training_set's default span around a transition
EVENT_KINDS = ("sleep_onset", "wake_time")  # the kinds a truth sidecar may name


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


def record_lines(text):
    """The records of a CSV text, one per line, in the grammar every reader
    here shares: lines end with \\n, \\r\\n or \\r, and a record's fields are
    its line split on commas, with no quoting. A blank line is an empty
    string."""
    if "\r" in text:  # a 1-char scan: a 2-char replace costs much more
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    return lines


def clipped_repr(value):
    """repr(value) for an error message, cut after ECHO_LIMIT characters
    with the count of those cut: a message shows an ordinary row whole and
    a huge one in a bounded length."""
    text = repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text) - ECHO_LIMIT} more characters)"


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


def timestamp_error(ts):
    """Why the integer `ts` cannot be an int64 timestamp, or None when it can."""
    if abs(ts) >= TIMESTAMP_LIMIT:
        return f"timestamp {clipped_repr(ts)} out of range"
    return None


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


def _label_value(field):
    """A label field's value: -1 when blank, 0 or 1 as int() reads it, None
    when it is neither."""
    if field == "":
        return -1
    try:
        label = int(field)
    except ValueError:
        return None
    return label if label in (0, 1) else None


def _step_error(ts, prev_ts):
    """Why the step from prev_ts to ts is not one epoch."""
    step = ts - prev_ts
    if step <= 0:
        return f"non-monotonic timestamp {ts} after {prev_ts}"
    if step % EPOCH_SECONDS != 0:
        return f"timestamp {ts} not on the 30 s grid"
    return f"gap of {step // EPOCH_SECONDS - 1} epochs before timestamp {ts}"


def _floats(col):
    """The fields of `col` as float64, up to the first one float() rejects."""
    try:
        return np.fromiter(map(float, col), np.float64, len(col))
    except ValueError:
        out = []
        for text in col:
            try:
                out.append(float(text))
            except ValueError:
                return np.array(out, dtype=np.float64)


def ingest_epochs(source):
    """Read an epoch CSV into an EpochSeries.

    Expected header: timestamp,hr,br,hr_conf,movement[,label]. Records are
    lines split on commas, as `serve` splits its lines, with no quoting (see
    `record_lines`); blank lines are skipped. Timestamps must advance in strict
    30 s steps, as on the wire: a gap is an error. The first bad row in file
    order raises an IngestError naming it.

    The file is parsed by columns: each column is converted with one float()
    pass and checked with array ops, and the first bad row's error is worded
    from those columns as the one-row checks word it: unparseable fields (a
    non-finite timestamp too, as in `parse_record`), then `timestamp_error`,
    `vitals_error`, the label and `_step_error`.
    """
    with open_text(source) as fh:
        lines = record_lines(fh.read())
    if not lines:
        raise IngestError("empty file: missing header")
    header = [h.strip() for h in lines[0].split(",")] if lines[0] else []
    if tuple(header[:5]) != CSV_COLUMNS:
        raise IngestError(f"bad header {clipped_repr(header)}; expected {','.join(CSV_COLUMNS)}[,label]")
    has_label = len(header) > 5 and header[5] == "label"
    if len(header) > 5 and not has_label:
        raise IngestError(f"bad header {clipped_repr(header)}; sixth column must be 'label'")

    body = list(filter(None, lines[1:]))
    if not body:
        raise IngestError("no data rows")
    # a sixth split keeps the label field whole and bounds the column count
    cols = list(zip_longest(*[line.split(",", 6) for line in body], fillvalue=""))
    cols += [("",) * len(body)] * (6 - len(cols))
    values = [_floats(col) for col in cols[:5]]
    n = min(map(len, values))  # rows before the first unparseable field
    t, hr, br, hr_conf, movement = (v[:n] for v in values)

    in_range = np.abs(t) < TIMESTAMP_LIMIT  # False for nan and inf, which int() rejects
    ts = np.where(in_range, t, 0.0).astype(np.int64)
    ok = (in_range & (hr >= 0) & (hr < np.inf) & (br >= 0) & (br < np.inf)
          & (hr_conf >= 0) & (hr_conf <= 1) & (movement >= 0) & (movement < np.inf))
    labels = np.full(n, -1, dtype=np.int64)
    if has_label:  # each distinct field is read once; -2 marks an invalid one
        code = {field: _label_value(field) for field in set(cols[5][:n])}
        code = {field: -2 if label is None else label for field, label in code.items()}
        labels = np.fromiter(map(code.__getitem__, cols[5][:n]), np.int64, n)
        ok &= labels != -2
    # a step beyond 2**63 wraps in int64 to a negative one, or, from near
    # +2**63 down to near -2**63 (where float64 holds multiples of 1024),
    # to a multiple of 1024: never a 30 s step
    ok[1:] &= np.diff(ts) == EPOCH_SECONDS

    first = n if ok.all() else int(np.argmin(ok))
    if first < len(body):
        row_no = [no for no, line in enumerate(lines[1:], start=2) if line][first]
        if first == n or not np.isfinite(t[first]):
            raise IngestError(f"row {row_no}: unparseable values: "
                              f"{clipped_repr(body[first].split(','))}")
        error = timestamp_error(int(t[first])) or vitals_error(
            *(v[first].item() for v in (hr, br, hr_conf, movement)))
        if error is None:
            error = (f"label must be 0 or 1, got {clipped_repr(cols[5][first])}"
                     if labels[first] == -2 else _step_error(int(ts[first]), int(ts[first - 1])))
        raise IngestError(f"row {row_no}: {error}")
    return EpochSeries(timestamps=ts, hr=hr, br=br, hr_conf=hr_conf, movement=movement,
                       hr_diff=compute_hr_diff(hr), labels=labels)


def write_rows(dest, header, rows):
    """Write a header and rows as CSV to a path or an open text handle. Each
    field is written as str() gives it; the writer quotes only a field that
    holds a comma, a quote or a line break, which no epoch, sidecar or
    hypnogram field does."""
    with open_text(dest, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_rows(source, columns, what):
    """(row number, fields) of each non-blank record after a header whose
    first fields are `columns`, read by `record_lines`; IngestError on any
    other header, naming the file kind `what`."""
    with open_text(source) as fh:
        lines = record_lines(fh.read())
    header = lines[0].split(",") if lines else None
    if header is None or [h.strip() for h in header[:len(columns)]] != list(columns):
        raise IngestError(f"bad {what} header {clipped_repr(header)}; "
                          f"expected {','.join(columns)}")
    return [(row_no, line.split(","))
            for row_no, line in enumerate(lines[1:], start=2) if line]


def write_epochs(series, dest):
    """Write a series back to the epoch CSV schema (label column included
    whenever any epoch is labeled). The bytes are those of `write_rows` on
    the formatted fields: a number never needs quoting, so each row is one
    format call, and the file one write."""
    labeled = bool(np.any(series.labels >= 0))
    cols = [series.timestamps.tolist(), series.hr.tolist(), series.br.tolist(),
            series.hr_conf.tolist(), series.movement.tolist()]
    row = "{},{:.6f},{:.6f},{:.6f},{:.6f}"
    if labeled:
        cols.append(["" if label < 0 else label for label in series.labels.tolist()])
        row += ",{}"
    header = list(CSV_COLUMNS) + (["label"] if labeled else [])
    with open_text(dest, "w") as fh:
        fh.write(",".join(header) + "\n" + "".join(starmap((row + "\n").format, zip(*cols))))


def write_transitions(transitions, dest):
    """Truth sidecar: one `kind,timestamp` row per ground-truth event."""
    write_rows(dest, ["kind", "timestamp"], [(kind, int(ts)) for kind, ts in transitions])


def read_transitions(source):
    """(kind, timestamp) pairs from a truth sidecar, read by `read_rows`;
    IngestError names the first row without a finite timestamp inside int64
    or with a kind outside EVENT_KINDS."""
    out = []
    for row_no, row in read_rows(source, ("kind", "timestamp"), "sidecar"):
        try:
            ts = int(float(row[1]))
        except (IndexError, ValueError, OverflowError) as exc:  # int(inf)
            raise IngestError(f"row {row_no}: no finite timestamp: {clipped_repr(row)}") from exc
        error = timestamp_error(ts)
        if error is not None:
            raise IngestError(f"row {row_no}: {error}")
        if row[0] not in EVENT_KINDS:
            raise IngestError(f"row {row_no}: event kind not one of "
                              f"{', '.join(EVENT_KINDS)}: {clipped_repr(row)}")
        out.append((row[0], ts))
    return out


def _cut_windows(series, window_epochs=30):
    """Every window of a series, as arrays over windows: window i covers
    epochs [2i, 2i + window_epochs). Returns (values, labels, last): values
    is a (count, 5, window_epochs) view of the feature matrix by window
    start, labels the final minute's label, or -1 where its two epochs
    disagree or are unlabeled, and last the index of each window's last
    epoch. None, with a warning, for a series shorter than one window."""
    n = len(series)
    if n < window_epochs:
        warnings.warn(f"series of {n} epochs shorter than one {window_epochs}-epoch window")
        return None
    mat = series.feature_matrix()
    last = np.arange(window_epochs - 1, n, EPOCHS_PER_MINUTE)
    rows, cols = mat.strides
    # np.ndarray over mat's buffer, as im2col views its input
    values = np.ndarray((len(last), mat.shape[0], window_epochs), mat.dtype, mat, 0,
                        (EPOCHS_PER_MINUTE * cols, rows, cols))
    l1, l2 = series.labels[last - 1], series.labels[last]
    return values, np.where((l1 == l2) & (l1 >= 0), l1, -1), last


def _feature_windows(series, cut, idx):
    """The FeatureWindows of the windows idx of a `_cut_windows` cut. Each
    gets a copy of its values, so that a kept window does not keep the
    record's whole feature matrix alive."""
    values, labels, last = cut
    end = series.timestamps[last[idx]].tolist()
    label_ts = series.timestamps[last[idx] - 1].tolist()
    return [FeatureWindow(values[i].copy(), t + EPOCH_SECONDS, lt, None if label < 0 else label)
            for i, t, lt, label in zip(idx.tolist(), end, label_ts, labels[idx].tolist())]


def make_windows(series, window_epochs=30):
    """Cut rolling windows: window i covers epochs [2i, 2i + window_epochs).

    The label is the final minute's state; if the last two epochs disagree the
    window stays unlabeled. A series shorter than one window yields an empty
    list with a warning.
    """
    cut = _cut_windows(series, window_epochs)
    if cut is None:
        return []
    return _feature_windows(series, cut, np.arange(len(cut[0])))


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
    # built directly: dataclasses.replace cost as much again as the z-score
    return FeatureWindow(zscore(window.values, stats), window.end_timestamp,
                         window.label_timestamp, window.label, normalized=True)


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
        for name in ("hours", "mean_sleep_min", "mean_wake_min", "duration_sigma",
                     "transition_blur_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.hours < 1.0:
            raise ValueError(f"record length must be >= 1 h, got {self.hours}")
        if not math.isfinite(self.hours * 3600 / EPOCH_SECONDS):
            raise ValueError(f"hours gives an epoch count that is not finite, got {self.hours}")
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
    blur_epochs = int(round(min(config.transition_blur_min * EPOCHS_PER_MINUTE, n_epochs + 1)))
    if blur_epochs > n_epochs:
        raise ValueError(f"transition_blur_min {config.transition_blur_min} is wider "
                         f"than the record of {n_epochs} epochs")

    def draw_epochs(mean):
        # a bout past the record's end ends there either way; clamped before it
        # is rounded, an overflowing draw keeps the labels and the random stream
        mu = math.log(mean) - 0.5 * config.duration_sigma ** 2
        minutes = float(rng.lognormal(mu, config.duration_sigma))
        return max(2, int(round(min(minutes * EPOCHS_PER_MINUTE, n_epochs))))

    labels = np.empty(n_epochs, dtype=np.int64)
    transitions = []
    if config.single_sleep_period:
        # one main sleep period: wake, sleep, trailing wake (the event rules'
        # scope); the sleep bout is clamped to keep a wake tail on the record
        wake_epochs = draw_epochs(config.mean_wake_min)
        sleep_epochs = draw_epochs(config.mean_sleep_min)
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
            dur = draw_epochs(mean)
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
        transitions=transitions,
    )


def _series_transitions(series):
    if series.transitions:
        return [ts for _, ts in series.transitions]
    lab = series.labels
    idx = np.flatnonzero((lab[1:] != lab[:-1]) & (lab[1:] >= 0) & (lab[:-1] >= 0)) + 1
    return [int(series.timestamps[i]) for i in idx]


def _near_transition(last_ts, trans, horizon):
    """Whether each window, by the timestamp of its last epoch, ends within
    horizon seconds of a transition: |last_ts + EPOCH_SECONDS - t| <= horizon
    for some t, decided exactly, as on Python ints, in one comparison.
    For integers that is last_ts in [t - EPOCH_SECONDS - reach, t -
    EPOCH_SECONDS + reach] with reach = floor(horizon); each bound is
    clipped to int64, where the timestamps lie, and a span outside it
    dropped."""
    if not trans:
        return np.zeros(len(last_ts), dtype=bool)
    if math.isinf(horizon):
        return np.ones(len(last_ts), dtype=bool)
    reach, lim = math.floor(horizon), np.iinfo(np.int64)
    spans = [(t - EPOCH_SECONDS - reach, t - EPOCH_SECONDS + reach) for t in map(int, trans)]
    spans = np.array([(max(lo, lim.min), min(hi, lim.max)) for lo, hi in spans
                      if lo <= lim.max and hi >= lim.min], dtype=np.int64).reshape(-1, 2)
    ts = last_ts[:, None]
    return ((spans[:, 0] <= ts) & (ts <= spans[:, 1])).any(axis=1)


def build_training_set(series_list, context_hours=CONTEXT_HOURS, seed=0):
    """Labeled windows near state transitions, class-balanced.

    Keeps windows whose end timestamp lies within +-context_hours of some
    transition in their series, then down-samples the majority class (seeded).
    context_hours <= 0 keeps every labeled window; NaN raises ValueError.
    """
    if math.isnan(context_hours):
        raise ValueError("context_hours must be a number of hours, got nan")
    windows = []
    any_transitions = False
    for series in series_list:
        trans = _series_transitions(series)
        if trans:
            any_transitions = True
        cut = _cut_windows(series)
        if cut is None:
            continue
        _, labels, last = cut
        keep = labels >= 0
        if context_hours > 0:
            keep &= _near_transition(series.timestamps[last], trans, context_hours * 3600)
        windows += _feature_windows(series, cut, np.flatnonzero(keep))
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
