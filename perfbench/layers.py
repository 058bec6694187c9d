"""Per-layer view of somnoflow: which names the traced run wraps, how the
recorded spans become per-layer metrics, and the layer micro-timings.

Layers are somnoflow's modules. `cli` (argument wiring) and `reference`
(a test oracle) are not timed.
"""

from __future__ import annotations

import time

import numpy as np

from somnoflow import datapipe, evalkit, events, neuralcore, sleepnet, stream

LAYER_CLASSES = {
    "conv1d": neuralcore.Conv1d,
    "batchnorm1d": neuralcore.BatchNorm1d,
    "maxpool1d": neuralcore.MaxPool1d,
    "dense": neuralcore.Dense,
    "relu": neuralcore.ReLU,
    "dropout": neuralcore.Dropout,
}
NIGHT_WINDOWS = 466         # windows of one 8 h night at a 1-minute stride
GROWTH_BLOCK_H = 4


def _rows(counter):
    def on_call(tracer, args, result):
        tracer.counts[counter] += args[1].shape[0]
    return on_call


def _conv_fwd(tracer, args, result):
    conv, x = args[0], args[1]
    tracer.counts["neuralcore.conv1d.fwd.rows"] += x.shape[0]
    # each output element takes in_channels * kernel_width multiply-accumulates
    macs = result.size * conv.in_channels * conv.kernel_width
    tracer.counts["neuralcore.conv1d.fwd.macs"] += macs


def _length(counter, of_result=False):
    def on_call(tracer, args, result):
        tracer.counts[counter] += len(result if of_result else args[0])
    return on_call


def _frames(tracer, args, result):
    for em in result:
        tracer.counts[f"stream.{em.kind}_frames"] += 1


def install(tracer):
    """Wrap every timed somnoflow name where its callers look it up."""
    p = tracer.patch
    p(datapipe, "ingest_epochs", "datapipe.ingest_epochs", _length("datapipe.rows", True))
    p(sleepnet, "make_windows", "datapipe.make_windows", _length("datapipe.windows", True))
    p(sleepnet, "apply_normalizer", "datapipe.apply_normalizer")
    p(sleepnet, "infer_hypnogram", "sleepnet.infer_hypnogram")
    p(sleepnet, "train", "sleepnet.train")
    p(sleepnet, "finetune_transfer", "sleepnet.finetune_transfer")
    p(sleepnet, "load_model", "sleepnet.load_model")
    p(sleepnet, "build_model", "sleepnet.build_model")
    p(sleepnet, "sigmoid", "neuralcore.sigmoid")
    p(sleepnet, "bce_loss", "neuralcore.bce_loss")
    p(sleepnet.SleepNetModel, "forward_batch", "sleepnet.forward_batch",
      _rows("sleepnet.forward.rows"))
    p(sleepnet.SleepNetModel, "backward", "sleepnet.backward")
    for key, cls in LAYER_CLASSES.items():
        p(cls, "forward", f"neuralcore.{key}.fwd",
          _conv_fwd if key == "conv1d" else _rows(f"neuralcore.{key}.fwd.rows"))
        p(cls, "backward", f"neuralcore.{key}.bwd")
    p(neuralcore.Adam, "step", "neuralcore.adam.step")
    minutes = _length("events.minutes")
    p(events, "predict_events", "events.predict_events", minutes)
    p(stream, "predict_events", "events.predict_events", minutes)
    p(events, "smooth_probs", "events.smooth_probs")
    p(events, "binarize", "events.binarize")
    p(events, "suppress_short_runs", "events.suppress_short_runs")
    p(events, "detect_sleep_time", "events.detect_sleep_time")
    p(events, "detect_wake_time", "events.detect_wake_time")
    p(stream.SleepStream, "feed_line", "stream.feed_line", _frames)
    p(stream.SleepStream, "finalize", "stream.finalize")
    p(evalkit, "confusion", "evalkit.confusion")
    p(evalkit, "match_events", "evalkit.match_events")


def _div(a, b):
    return a / b if b else 0.0


def span_metrics(tracer, n_ops, final_minutes, load_ms, factor):
    """Per-layer metrics from the traced phase, each per operation unless its
    name says otherwise. `final_minutes` is the hypnogram length of one
    operation (0 when the operation makes none); `factor` converts raw span
    time to reference time."""
    ms = lambda name: tracer.self_ns[name] * factor / 1e6 / n_ops  # noqa: E731
    total_ms = lambda name: tracer.total_ns[name] * factor / 1e6 / n_ops  # noqa: E731
    calls = lambda name: tracer.calls[name] / n_ops                # noqa: E731
    c = tracer.counts
    m = {
        "datapipe.ingest_ms": ms("datapipe.ingest_epochs"),
        "datapipe.rows": c["datapipe.rows"] / n_ops,
        "datapipe.window_ms": ms("datapipe.make_windows") + ms("datapipe.apply_normalizer"),
        "datapipe.windows": c["datapipe.windows"] / n_ops,
        "sleepnet.forward_calls": calls("sleepnet.forward_batch"),
        "sleepnet.windows_per_forward": _div(c["sleepnet.forward.rows"],
                                             tracer.calls["sleepnet.forward_batch"]),
        "sleepnet.forward_ms": ms("sleepnet.forward_batch"),
        "sleepnet.infer_ms": total_ms("sleepnet.infer_hypnogram"),
        "sleepnet.backward_ms": ms("sleepnet.backward"),
        "sleepnet.train_ms": total_ms("sleepnet.train"),
        "sleepnet.finetune_ms": total_ms("sleepnet.finetune_transfer"),
        "sleepnet.load_ms": load_ms,
    }
    for key in LAYER_CLASSES:
        fwd, bwd = f"neuralcore.{key}.fwd", f"neuralcore.{key}.bwd"
        m[f"{fwd}_ms"] = ms(fwd)
        m[f"{fwd}_calls"] = calls(fwd)
        m[f"{fwd}_rows_per_call"] = _div(c[f"{fwd}.rows"], tracer.calls[fwd])
        m[f"{bwd}_ms"] = ms(bwd)
        m[f"{bwd}_calls"] = calls(bwd)
    m["neuralcore.sigmoid_ms"] = ms("neuralcore.sigmoid")
    m["neuralcore.adam.step_ms"] = ms("neuralcore.adam.step")
    macs = c["neuralcore.conv1d.fwd.macs"]
    m["neuralcore.conv1d.fwd_mmacs"] = macs / 1e6 / n_ops
    m["neuralcore.conv1d.fwd_gmacs_per_s"] = _div(macs, tracer.self_ns["neuralcore.conv1d.fwd"]
                                                  * factor)
    scanned = c["events.minutes"] / n_ops
    m.update({
        "events.predict_calls": calls("events.predict_events"),
        "events.minutes_scanned": scanned,
        "events.scan_ratio": _div(scanned, final_minutes),
        "events.smooth_ms": ms("events.smooth_probs"),
        "events.suppress_ms": ms("events.suppress_short_runs"),
        "events.detect_ms": ms("events.detect_sleep_time") + ms("events.detect_wake_time"),
        "stream.feed_calls": calls("stream.feed_line"),
        "stream.class_frames": c["stream.class_frames"] / n_ops,
        "stream.err_frames": c["stream.err_frames"] / n_ops,
        "stream.feed_self_us": _div(tracer.self_ns["stream.feed_line"] * factor / 1e3,
                                    tracer.calls["stream.feed_line"]),
        "stream.finalize_ms": total_ms("stream.finalize"),
        "evalkit.score_ms": ms("evalkit.confusion") + ms("evalkit.match_events"),
    })
    return m


def growth_profile(streamed, hours):
    """Median class-frame latency (ms) per 4-hour block of the record, from
    (per-line seconds, StreamResult) pairs."""
    lat = np.concatenate([[]] + [line_s[r.class_lines] for line_s, r in streamed])
    minute = np.concatenate([[]] + [r.class_minute for _, r in streamed])
    out = {}
    for start_h in range(0, int(hours), GROWTH_BLOCK_H):
        sel = (minute >= start_h * 60) & (minute < (start_h + GROWTH_BLOCK_H) * 60)
        out[f"stream.class_ms_p50.h{start_h:02d}"] = (
            float(np.median(lat[sel])) * 1e3 if sel.any() else 0.0)
    return out


# --- micro-timings -----------------------------------------------------------

def _micro_layers(rng):
    """Fresh layers shaped like head 0 of the default model (kernel 3)."""
    cfg = sleepnet.ModelConfig()
    head = cfg.heads[0]
    conv_len = cfg.window_epochs - head.kernel_width + 1
    pooled = (conv_len - head.pool_width) // head.pool_width + 1
    return {
        "conv1d": (neuralcore.Conv1d("micro.conv", cfg.input_features, head.n_filters,
                                     head.kernel_width, rng=rng),
                   (cfg.input_features, cfg.window_epochs)),
        "batchnorm1d": (neuralcore.BatchNorm1d("micro.bn", head.n_filters),
                        (head.n_filters, conv_len)),
        "maxpool1d": (neuralcore.MaxPool1d("micro.pool", head.pool_width),
                      (head.n_filters, conv_len)),
        "dense": (neuralcore.Dense("micro.fc1", head.n_filters * pooled, head.fc_width,
                                   rng=rng), (head.n_filters * pooled,)),
    }


def micro_timings(seed, cal, reps_b1=400, reps_big=25):
    """Forward (infer mode) and backward (after a train-mode forward) of each
    layer type through its public methods, at batch 1 and at one night's
    window count; the median of `reps` calls, in reference time."""
    rng = np.random.default_rng(seed)
    clock = time.perf_counter
    out = {}

    def timed(fn, reps, before=None):
        starts, times = [], []
        for _ in range(reps):
            cal.tick()
            if before is not None:
                before()
            t0 = clock()
            fn()
            times.append(clock() - t0)
            starts.append(t0)
        cal.sample()
        return float(np.median(cal.scale(np.array(starts), np.array(times))))

    for key, (layer, shape) in _micro_layers(rng).items():
        for batch, reps, suffix, scale in ((1, reps_b1, "us_b1", 1e6),
                                           (NIGHT_WINDOWS, reps_big, f"ms_b{NIGHT_WINDOWS}", 1e3)):
            x = rng.standard_normal((batch,) + shape).astype(np.float32)
            y = layer.forward(x, train=True)
            dy = rng.standard_normal(y.shape).astype(np.float32)
            out[f"neuralcore.{key}.fwd_{suffix}"] = timed(
                lambda: layer.forward(x, train=False), reps) * scale
            out[f"neuralcore.{key}.bwd_{suffix}"] = timed(
                lambda: layer.backward(dy), reps, lambda: layer.forward(x, train=True)) * scale
            layer.zero_grad()
    return out
