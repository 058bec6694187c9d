"""Inputs, set-up and the three operations the benchmark times.

Every input comes from `datapipe.synth_generate`, seeded from the workload
seed; the shared model is trained with fixed seeds, so only the inputs move
with `--seed`. Operations call somnoflow through module attributes
(`datapipe.ingest_epochs`, `sleepnet.infer_hypnogram`, ...) so that the
traced run sees every call. Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass

import numpy as np

from somnoflow import datapipe, evalkit, events, reference, sleepnet, stream

# shared model: trained in every set-up with fixed seeds (not the workload seed)
SHARED_SUBJECTS = 4
SHARED_MODEL_SEED = 3
SHARED_EPOCHS = 4

# a pool of 8 h single-sleep-period nights, scored in order; the first few
# are streamed, and make the shorter rounds of train_finetune
POOL_NIGHTS = 16
SHORT_NIGHTS = 8
NIGHT_HOURS = 8.0
NIGHT_START = 22 * 3600

# one 24 h record from 07:00, ~16 h awake then one sleep period; the small
# bout spread keeps the onset near 16 h on every seed
DAY_HOURS = 24.0
DAY_START = 7 * 3600
DAY_WAKE_MIN = 16 * 60
DAY_SLEEP_MIN = 7.5 * 60
DAY_SPREAD = 0.01

# train/fine-tune: fixed window sets, a fresh model every repeat
TRAIN_NIGHTS = 4
TRAIN_WINDOWS = 512
TRAIN_EPOCHS = 2
COHORT_NIGHTS = 4
COHORT_WINDOWS = 512
FINETUNE_EPOCHS = 4
TRAIN_MODEL_SEED = 11
TRAIN_SEED = 5

RULES = events.EventRuleConfig()
TOLERANCE_MIN = evalkit.DEFAULT_TOLERANCE_MIN


@dataclass
class Record:
    """One labeled recording, held as epoch-CSV text."""

    name: str
    text: str                 # header included
    lines: list               # data rows as `serve` receives them
    truth: events.BinaryHypnogram
    transitions: list
    start: int


@dataclass
class TrainSet:
    train: list               # normalized labeled FeatureWindows
    cohort: list
    stats: datapipe.NormStats


@dataclass
class Inputs:
    nights: list
    day: Record
    train: TrainSet

    def round(self, workload):
        """What one round of a workload runs."""
        if workload == "stream_day":
            # one record: scored several times a round for enough samples
            return Round([self.day] * 6, [self.day], 4)
        if workload == "train_finetune":
            return Round(self.nights[:SHORT_NIGHTS], self.nights[:SHORT_NIGHTS], 6)
        return Round(self.nights, self.nights[:SHORT_NIGHTS], 4)


@dataclass
class Round:
    batch: list               # records scored in batch
    stream: list              # records streamed
    train_repeats: int        # train/fine-tune repeats


def _minute_truth(series, window_epochs=30):
    """Per-minute truth aligned with infer_hypnogram: minute i is labeled by
    the second epoch of the final minute of window i."""
    n_windows = (len(series) - window_epochs) // datapipe.EPOCHS_PER_MINUTE + 1
    idx = window_epochs - 1 + datapipe.EPOCHS_PER_MINUTE * np.arange(n_windows)
    return events.BinaryHypnogram(start=int(series.timestamps[window_epochs - 2]),
                                  states=np.maximum(series.labels[idx], 0))


def _record(name, config):
    series = datapipe.synth_generate(config)
    buf = io.StringIO()
    datapipe.write_epochs(series, buf)
    text = buf.getvalue()
    return Record(name, text, text.splitlines(keepends=True)[1:], _minute_truth(series),
                  series.transitions, config.start_timestamp)


def build_inputs(seed):
    """Every workload input, derived from `seed` alone."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(
        0, 2**31 - 1, size=POOL_NIGHTS + 1 + TRAIN_NIGHTS + COHORT_NIGHTS)]
    nights = [_record(f"night{i}", datapipe.SynthConfig(
        seed=seeds[i], hours=NIGHT_HOURS, single_sleep_period=True,
        start_timestamp=NIGHT_START)) for i in range(POOL_NIGHTS)]
    day = _record("day", datapipe.SynthConfig(
        seed=seeds[POOL_NIGHTS], hours=DAY_HOURS, single_sleep_period=True,
        mean_wake_min=DAY_WAKE_MIN, mean_sleep_min=DAY_SLEEP_MIN,
        duration_sigma=DAY_SPREAD, start_timestamp=DAY_START))

    def labeled_windows(night_seeds, context_hours, count):
        series = [datapipe.synth_generate(datapipe.SynthConfig(seed=s, hours=NIGHT_HOURS))
                  for s in night_seeds]
        found = datapipe.build_training_set(series, context_hours=context_hours, seed=seed)
        if len(found) < count:
            raise ValueError(f"only {len(found)} labeled windows, {count} needed")
        return [found[i] for i in np.sort(rng.permutation(len(found))[:count])]

    train_seeds = seeds[POOL_NIGHTS + 1:POOL_NIGHTS + 1 + TRAIN_NIGHTS]
    train = labeled_windows(train_seeds, 1, TRAIN_WINDOWS)
    cohort = labeled_windows(seeds[-COHORT_NIGHTS:], 0, COHORT_WINDOWS)
    stats = datapipe.fit_normalizer(train)
    train_set = TrainSet([datapipe.apply_normalizer(w, stats) for w in train],
                         [datapipe.apply_normalizer(w, stats) for w in cohort], stats)
    return Inputs(nights, day, train_set)


def inputs_digest(inputs):
    h = hashlib.sha256()
    for rec in inputs.nights + [inputs.day]:
        h.update(rec.text.encode())
    for w in inputs.train.train + inputs.train.cohort:
        h.update(w.values.tobytes())
    return h.hexdigest()


def train_shared_model():
    series = [datapipe.synth_generate(datapipe.SynthConfig(seed=s, hours=NIGHT_HOURS))
              for s in range(SHARED_SUBJECTS)]
    windows = datapipe.build_training_set(series, context_hours=1, seed=0)
    stats = datapipe.fit_normalizer(windows)
    model = sleepnet.build_model(sleepnet.ModelConfig(seed=SHARED_MODEL_SEED))
    model.norm_stats = stats
    normed = [datapipe.apply_normalizer(w, stats) for w in windows]
    sleepnet.train(model, normed, None, sleepnet.TrainingHyper(n_epochs=SHARED_EPOCHS, seed=0))
    return model


@dataclass
class Setup:
    model: object
    model_path: str
    inputs: Inputs
    digest: str               # shared model digest after the save/load round trip


def setup(seed, model_path, between):
    """Data generation, shared-model training, save and load, input building.

    `between` runs untimed between the steps. Returns the Setup and the
    (perf_counter start, seconds) of each step.
    """
    clock = time.perf_counter
    steps = []
    t0 = clock()
    trained = train_shared_model()
    steps.append((t0, clock() - t0))
    between()
    t0 = clock()
    sleepnet.save_model(trained, model_path)
    model = sleepnet.load_model(model_path)
    if model.digest() != trained.digest():
        raise RuntimeError("shared model changed in a save/load round trip")
    inputs = build_inputs(seed)
    steps.append((t0, clock() - t0))
    return Setup(model, model_path, inputs, model.digest()), steps


# --- batch: CSV text to scored events -----------------------------------------

@dataclass
class BatchResult:
    start: int
    probs: np.ndarray
    events: events.SleepEvents
    counts: evalkit.ConfusionCounts
    both_hit: bool

    def digest(self):
        h = hashlib.sha256(np.ascontiguousarray(self.probs, dtype="<f8").tobytes())
        h.update(repr((self.events.sleep_onset, self.events.wake_time)).encode())
        h.update(events.format_trace(self.events.trace).encode())
        return h.hexdigest()


def run_batch(model, rec):
    """CSV text -> series -> hypnogram -> events -> scores, as `somnoflow eval`."""
    series = datapipe.ingest_epochs(io.StringIO(rec.text))
    hyp = sleepnet.infer_hypnogram(model, series)
    ev = events.predict_events(hyp, RULES)
    counts = evalkit.confusion(events.binarize(hyp, RULES.threshold), rec.truth)
    match = evalkit.match_events(ev, rec.transitions, tolerance_min=TOLERANCE_MIN)
    both_hit = all(c.tp == 1 for c in match.per_kind.values())
    return BatchResult(hyp.start, hyp.probs, ev, counts, both_hit)


def check_batch(result):
    """Raise unless the probabilities are finite and the events match the
    literal rule reference applied to the same probabilities."""
    p = result.probs
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite probability in hypnogram")
    n, half = len(p), RULES.median_width // 2
    smoothed = [np.median(p[i - k:i + k + 1]) for i in range(n)
                for k in (min(half, i, n - 1 - i),)]
    states = reference.ref_suppress_short_runs(
        [int(v >= RULES.threshold) for v in smoothed], RULES.min_run)
    onset = reference.ref_detect_sleep_time(states, RULES.sleep_confirm, RULES.awake_break)
    wake = None if onset is None else reference.ref_detect_wake_time(
        states, onset, RULES.wake_confirm, RULES.reentry_run)
    expected = tuple(None if idx is None else result.start + idx * events.MINUTE_SECONDS
                     for idx in (onset, wake))
    if (result.events.sleep_onset, result.events.wake_time) != expected:
        raise ValueError(f"events {result.events.sleep_onset, result.events.wake_time} "
                         f"differ from the rule reference {expected}")


def quality(results):
    """Minute accuracy (pooled confusion counts) and the share of records with
    both events inside the matching tolerance, in percent."""
    counts = results[0].counts
    for r in results[1:]:
        counts = counts + r.counts
    return {"quality.minute_accuracy": evalkit.accuracy(counts),
            "quality.event_hit_rate": 100.0 * sum(r.both_hit for r in results) / len(results)}


# --- stream: line by line, as `serve` ---------------------------------------------

@dataclass
class StreamResult:
    frames: list              # formatted emissions, in order
    class_probs: list         # probability of each class frame, unrounded
    line_start: np.ndarray    # perf_counter time at which each feed_line call began
    line_seconds: np.ndarray  # duration of each feed_line call
    class_lines: np.ndarray   # index of the line whose call emitted each class frame
    class_minute: np.ndarray  # record minute of each class frame
    onset_emit_ts: int | None  # timestamp of the line whose call emitted sleep_onset
    finalize_start: float
    finalize_seconds: float
    events: events.SleepEvents

    def digest(self):
        h = hashlib.sha256(np.asarray(self.class_probs, dtype="<f8").tobytes())
        h.update("\n".join(self.frames).encode())
        h.update(repr((self.events.sleep_onset, self.events.wake_time)).encode())
        return h.hexdigest()


def run_stream(model, rec, tick):
    """Feed every line through SleepStream.feed_line, then finalize; each
    call is timed. `tick` runs between calls, untimed."""
    st = stream.SleepStream(model, RULES)
    clock = time.perf_counter
    frames, probs, class_lines, minute = [], [], [], []
    starts = np.empty(len(rec.lines))
    seconds = np.empty(len(rec.lines))
    onset_emit_ts = None
    for i, line in enumerate(rec.lines):
        tick()
        t0 = clock()
        out = st.feed_line(line)
        seconds[i] = clock() - t0
        starts[i] = t0
        for em in out:
            frames.append(em.format())
            if em.kind == "class":
                probs.append(em.payload[1])
                class_lines.append(i)
                minute.append((em.payload[0] - rec.start) // 60)
            elif em.kind == "event" and em.payload[0] == "sleep_onset":
                onset_emit_ts = int(line.split(",", 1)[0])
    t0 = clock()
    tail, ev = st.finalize()
    finalize_seconds = clock() - t0
    frames.extend(em.format() for em in tail)
    return StreamResult(frames, probs, starts, seconds, np.array(class_lines, dtype=int),
                        np.array(minute), onset_emit_ts, t0, finalize_seconds, ev)


def check_stream(model, rec, result):
    """Raise on any err frame or any difference from the batch pipeline."""
    errs = [f for f in result.frames if f.startswith("err,")]
    if errs:
        raise ValueError(f"{len(errs)} err frames, first {errs[0]!r}")
    if not np.all(np.isfinite(result.class_probs)):
        raise ValueError("non-finite probability in class frames")
    batch, batch_ev = stream.batch_emissions(
        model, datapipe.ingest_epochs(io.StringIO(rec.text)), RULES)
    batch_probs = [em.payload[1] for em in batch if em.kind == "class"]
    if (batch_probs != result.class_probs
            or sorted(em.format() for em in batch) != sorted(result.frames)):
        raise ValueError("stream emissions differ from stream.batch_emissions")
    if (batch_ev.sleep_onset, batch_ev.wake_time) != (result.events.sleep_onset,
                                                      result.events.wake_time):
        raise ValueError("stream events differ from the batch events")


# --- train, then fine-tune ----------------------------------------------------------

@dataclass
class TrainResult:
    train_start: float
    train_seconds: float
    finetune_start: float
    finetune_seconds: float
    train_digest: str
    final_digest: str

    def digest(self):
        return hashlib.sha256((self.train_digest + self.final_digest).encode()).hexdigest()


def run_train(train_set, between):
    """Train a fresh seeded model on the fixed window set, then fine-tune it.
    `between` runs untimed between the two."""
    t0 = time.perf_counter()
    model = sleepnet.build_model(sleepnet.ModelConfig(seed=TRAIN_MODEL_SEED))
    model.norm_stats = train_set.stats
    _, report = sleepnet.train(model, train_set.train, None, sleepnet.TrainingHyper(
        n_epochs=TRAIN_EPOCHS, seed=TRAIN_SEED))
    train_seconds = time.perf_counter() - t0
    between()
    t1 = time.perf_counter()
    sleepnet.finetune_transfer(model, train_set.cohort, sleepnet.TrainingHyper(
        n_epochs=FINETUNE_EPOCHS, seed=TRAIN_SEED))
    return TrainResult(t0, train_seconds, t1, time.perf_counter() - t1,
                       report.digest, model.digest())
