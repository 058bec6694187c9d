"""somnoflow benchmark: batch nights, a streamed 24 h day, and training.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_nights --seed 0 --seconds 10 --trace 0

One process, one thread, closed loops: the next input is fed only when the
previous call returns. Every run makes interleaved rounds of the three
operations on the workload's inputs, for --seconds and at least one round,
so every result carries every end-to-end metric:

  batch   epoch-CSV text -> ingest -> hypnogram -> events -> scores
  stream  every line through SleepStream.feed_line, then finalize
  train   train a fresh seeded model, then fine-tune its trunk

  batch_nights    16 8 h nights scored, 8 of them streamed, 4 trainings
  stream_day      one 24 h record (16 h awake first) scored 6 times and
                  streamed once, 4 trainings
  train_finetune  8 nights scored and streamed, 6 trainings

Times are in reference seconds (see calibrate.py); raw wall times are kept
in the record.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs the workload's own operation untraced and then traced (each
for half of --seconds) and prints the per-layer metrics, the tracing
overhead and the unattributed remainder; spans go to perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The full record, with provenance and output digests, goes to perfbench/out/.
"""

import os

# single-threaded BLAS/OpenMP: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("batch_nights", "stream_day", "train_finetune")
DEFAULT_SEED = 0
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "batch.nights_per_s": "1/s",
    "batch.night_ms_p50": "ms",
    "stream.epochs_per_s": "1/s",
    "stream.class_ms_p50": "ms",
    "stream.class_ms_p99": "ms",
    "train.windows_per_s": "1/s",
    "finetune.windows_per_s": "1/s",
    "quality.minute_accuracy": "%",
    "quality.event_hit_rate": "%",
    "peak_rss_mb": "MB",
}


def import_program():
    """Put the checkout's own source first on the path and import it."""
    src = ROOT / "src"
    if not (src / "somnoflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no somnoflow source under {src}")
    sys.path.insert(0, str(src))
    import somnoflow
    if Path(somnoflow.__file__).resolve().parent != (src / "somnoflow").resolve():
        raise SystemExit(f"perfbench: imported somnoflow from {somnoflow.__file__}, not {src}")


def per_layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if ".class_ms_p50." in name or last.endswith("_ms") or "_ms_b" in last:
        return "ms"
    if last.endswith(("_us", "_us_b1")):
        return "us"
    for suffix, unit in (("_pct", "%"), ("mmacs", "Mmac"), ("gmacs_per_s", "Gmac/s"),
                         ("ratio", "ratio"), ("_min", "min"), ("_h", "h")):
        if last.endswith(suffix):
            return unit
    return "count"


# --- provenance --------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# --- running operations --------------------------------------------------------

KIND = {"batch_nights": "batch", "stream_day": "stream", "train_finetune": "train"}


class Run:
    """Runs operations, checks each, and keeps timings of the ones that pass.

    The first result for an input is checked in full and its digest kept;
    every later repeat of that input must reproduce the digest. A failed
    operation is counted and left out of every timing. Raw durations are
    kept with their start times; `e2e` converts them to reference seconds
    with the run's calibrator.
    """

    def __init__(self, wl, setup, workload, digests, cal, tracer=None):
        self.wl = wl
        self.model = setup.model
        self.plan = setup.inputs.round(workload)
        self.train_set = setup.inputs.train
        self.digests = digests
        self.cal = cal
        self.tracer = tracer
        self.attempted = 0
        self.errors = []
        # kind -> input name -> [(start, raw seconds, result)]
        self.results = {"batch": {}, "stream": {}, "train": {}}

    def _op(self, kind, name, fn, check):
        self.attempted += 1
        key = f"{kind}.{name}"
        tracer, cal = self.tracer, self.cal
        cal.tick()
        if tracer is not None:
            tracer.op_id = self.attempted
            tracer.enabled = True
        spent = cal.spent
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is a failed one
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        finally:
            # calibration samples taken inside the operation are not its time
            seconds = time.perf_counter() - t0 - (cal.spent - spent)
            if tracer is not None:
                tracer.enabled = False
            cal.tick()
        try:
            if key not in self.digests:
                check(result)
                self.digests[key] = result.digest()
            elif result.digest() != self.digests[key]:
                raise ValueError("output digest differs from an earlier repeat")
        except Exception as exc:  # a failed check is a failed operation
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        self.results[kind].setdefault(name, []).append((t0, seconds, result))

    def _run_kind(self, kind):
        wl, model = self.wl, self.model
        plan, tick = self.plan, self.cal.tick
        if kind == "batch":
            for rec in plan.batch:
                self._op(kind, rec.name, lambda: wl.run_batch(model, rec), wl.check_batch)
        elif kind == "stream":
            for rec in plan.stream:
                self._op(kind, rec.name, lambda: wl.run_stream(model, rec, tick),
                         lambda r: wl.check_stream(model, rec, r))
        else:
            for _ in range(plan.train_repeats):
                self._op(kind, "finetune", lambda: wl.run_train(self.train_set, tick),
                         lambda r: None)

    def rounds(self, kinds, seconds):
        """Rounds over every input of each kind, at least one, until
        `seconds` have passed. Each input's time is the median over its
        repeats."""
        t0 = time.perf_counter()
        while True:
            for kind in kinds:
                gc.collect()
                self._run_kind(kind)
            if time.perf_counter() - t0 >= seconds:
                break
        self.cal.sample()

    def op_seconds(self, kind, raw=False):
        """Duration of every operation of `kind`, in reference seconds (raw
        wall seconds with `raw`)."""
        return [dt if raw else float(self.cal.scale(t0, dt))
                for runs in self.results[kind].values() for t0, dt, _ in runs]

    def e2e(self, raw=False):
        """End-to-end metrics of the operations this run made, in reference
        time (or raw wall time)."""
        scale = (lambda t0, dt: dt) if raw else self.cal.scale
        wl = self.wl
        m = {}
        batch, stream, train = (self.results[k] for k in ("batch", "stream", "train"))
        if batch:
            per_input = [np.median([scale(t0, dt) for t0, dt, _ in runs])
                         for runs in batch.values()]
            m["batch.nights_per_s"] = len(per_input) / sum(per_input)
            m["batch.night_ms_p50"] = float(np.median(per_input)) * 1e3
            m.update(wl.quality([runs[0][2] for runs in batch.values()]))
        if stream:
            busy, lines, class_ms = 0.0, 0, []
            for runs in stream.values():
                per_line = np.median([scale(r.line_start, r.line_seconds)
                                      for _, _, r in runs], axis=0)
                busy += per_line.sum() + np.median(
                    [scale(r.finalize_start, r.finalize_seconds) for _, _, r in runs])
                lines += len(per_line)
                class_ms.append(per_line[runs[0][2].class_lines] * 1e3)
            class_ms = np.concatenate(class_ms)
            m["stream.epochs_per_s"] = lines / busy
            m["stream.class_ms_p50"] = float(np.median(class_ms))
            m["stream.class_ms_p99"] = float(np.percentile(class_ms, 99))
        if train:
            runs = train["finetune"]
            ts = self.train_set
            m["train.windows_per_s"] = len(ts.train) * wl.TRAIN_EPOCHS / np.median(
                [scale(r.train_start, r.train_seconds) for _, _, r in runs])
            m["finetune.windows_per_s"] = len(ts.cohort) * wl.FINETUNE_EPOCHS / np.median(
                [scale(r.finetune_start, r.finetune_seconds) for _, _, r in runs])
        return {k: float(v) for k, v in m.items()}

    def samples(self):
        out = {}
        for kind, res in self.results.items():
            out[f"{kind}_inputs"] = len(res)
            out[f"{kind}_ops"] = sum(len(runs) for runs in res.values())
        out["class_frames"] = sum(len(runs[0][2].class_lines)
                                  for runs in self.results["stream"].values())
        return out


# --- the run -------------------------------------------------------------------

def run_setups(wl, cal, seed, model_path):
    """Set up SETUP_REPEATS times; every repeat must build the same model and
    inputs. Returns the last set-up and the median set-up time in reference
    seconds."""
    setups, seconds = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        cal.sample()
        setup, steps = wl.setup(seed, str(model_path), cal.sample)
        cal.sample()
        setups.append(setup)
        seconds.append(sum(float(cal.scale(t0, dt)) for t0, dt in steps))
    keys = {(s.digest, wl.inputs_digest(s.inputs)) for s in setups}
    if len(keys) != 1:
        raise RuntimeError(f"set-up is not deterministic: {sorted(keys)}")
    return setups[-1], statistics.median(seconds)


def output_digests(digests, shared_digest):
    """Per-input output digests plus one SHA-256 over all of them."""
    h = hashlib.sha256(shared_digest.encode())
    for key in sorted(digests):
        h.update(f"{key}={digests[key]}".encode())
    return {"output": h.hexdigest(), "shared_model": shared_digest, **dict(sorted(digests.items()))}


def timed_run(wl, cal, setup, setup_s, workload, seconds):
    """Interleaved rounds of all three operations on the workload's inputs
    for `seconds`, and at least one round."""
    run = Run(wl, setup, workload, {}, cal)
    run.rounds(("batch", "stream", "train"), seconds)
    metrics = run.e2e()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [run], metrics, {"samples": run.samples(), "raw_e2e": run.e2e(raw=True)}


def traced_run(wl, cal, layers, spantrace, setup, workload, seconds, seed, spans_path):
    """The workload's own operation untraced, then traced, each for
    seconds / 2. Per-layer metrics come from the traced pass; both passes
    share digests, so a traced output that differs from the untraced fails."""
    kind = KIND[workload]
    digests = {}
    plain = Run(wl, setup, workload, digests, cal)
    plain.rounds((kind,), seconds / 2)

    tracer = spantrace.Tracer()
    layers.install(tracer)
    try:
        tracer.enabled = True
        wl.sleepnet.load_model(setup.model_path)
        tracer.enabled = False
        load_ns = tracer.total_ns["sleepnet.load_model"]
        covered_before = tracer.top_ns
        traced = Run(wl, setup, workload, digests, cal, tracer)
        traced.rounds((kind,), seconds / 2)
    finally:
        tracer.unpatch()
    tracer.dump(spans_path)

    # span times are raw; scale them by the machine speed over the traced pass
    starts = [t0 + dt / 2 for runs in traced.results[kind].values() for t0, dt, _ in runs]
    factor = float(np.median(cal.factor(starts))) if starts else 1.0
    plain_s, traced_s = plain.op_seconds(kind), traced.op_seconds(kind)
    n_ops = max(len(traced_s), 1)
    first = [runs[0][2] for runs in traced.results[kind].values()]
    final_minutes = 0
    if first and kind == "batch":
        final_minutes = statistics.mean(len(r.probs) for r in first)
    elif first and kind == "stream":
        final_minutes = statistics.mean(len(r.class_probs) for r in first)
    m = layers.span_metrics(tracer, n_ops, final_minutes, load_ns * factor / 1e6, factor)

    rec = plain.plan.stream[0]
    streamed = [r for runs in traced.results["stream"].values() for _, _, r in runs]
    lag = [(r.onset_emit_ts - r.events.sleep_onset) / 60 for r in streamed
           if r.onset_emit_ts is not None]
    m["stream.onset_emit_lag_min"] = statistics.mean(lag) if lag else 0.0
    m["stream.true_onset_h"] = (dict(rec.transitions)["sleep_onset"] - rec.start) / 3600
    plain_streamed = [(cal.scale(r.line_start, r.line_seconds), r)
                      for runs in plain.results["stream"].values() for _, _, r in runs]
    m.update(layers.growth_profile(plain_streamed, wl.DAY_HOURS))
    m.update(layers.micro_timings(seed, cal))

    wall_ns = sum(traced.op_seconds(kind, raw=True)) * 1e9
    covered_ns = tracer.top_ns - covered_before
    plain_ms = statistics.median(plain_s) * 1e3 if plain_s else 0.0
    traced_ms = statistics.median(traced_s) * 1e3 if traced_s else 0.0
    m["trace.untraced_op_ms"] = plain_ms
    m["trace.traced_op_ms"] = traced_ms
    m["trace.overhead_pct"] = 100.0 * (traced_ms / plain_ms - 1.0) if plain_ms else 0.0
    m["trace.attributed_pct"] = 100.0 * covered_ns / wall_ns if wall_ns else 0.0
    m["trace.unattributed_ms"] = (wall_ns - covered_ns) * factor / 1e6 / n_ops

    e2e_plain, e2e_traced = plain.e2e(), traced.e2e()
    extra = {
        "samples": {"untraced": plain.samples(), "traced": traced.samples()},
        "e2e_untraced": e2e_plain,
        "e2e_traced": e2e_traced,
        "tracing_overhead": {k: e2e_traced[k] - e2e_plain[k]
                             for k in e2e_plain if k in e2e_traced},
        "self_ms_per_op": {name: ns * factor / 1e6 / n_ops for name, ns in
                           sorted(tracer.self_ns.items(), key=lambda kv: -kv[1])},
        "spans": {"count": tracer.span_count, "file": str(spans_path.relative_to(ROOT)),
                  "speed_factor": factor},
    }
    return [plain, traced], m, extra


def check_declared(metrics, section):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {e["name"]: e["unit"] for e in json.load(fh)[section]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json {section}: "
                         f"missing {missing}, undeclared {extra}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="seconds of rounds to run, at least one round (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics (default 0)")
    args = parser.parse_args(argv)

    import_program()
    import calibrate
    import layers
    import spantrace
    import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    model_path = OUT_DIR / f"shared-model-{os.getpid()}.slpn"
    try:
        cal = calibrate.Calibrator()
        setup, setup_s = run_setups(wl, cal, args.seed, model_path)
        gc.collect()
        gc.freeze()
        if args.trace:
            runs, values, extra = traced_run(wl, cal, layers, spantrace, setup, args.workload,
                                             args.seconds, args.seed,
                                             OUT_DIR / f"{stem}-spans.npz")
            metrics = {k: (float(v), per_layer_unit(k)) for k, v in values.items()}
            check_declared(metrics, "per_layer")
        else:
            runs, values, extra = timed_run(wl, cal, setup, setup_s, args.workload,
                                            args.seconds)
            metrics = {k: (float(values.get(k, 0.0)), E2E_UNITS[k]) for k in E2E_UNITS}
            check_declared(metrics, "end_to_end")
    finally:
        model_path.unlink(missing_ok=True)

    digests = {}
    for run in runs:
        digests.update(run.digests)
    attempted = sum(r.attempted for r in runs)
    errors = [e for r in runs for e in r.errors]
    correct = not errors and all(np.isfinite(v) for v, _ in metrics.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "setup_s_median_of": SETUP_REPEATS,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digests": output_digests(digests, setup.digest),
        "calibration": cal.summary(),
        **extra,
    }
    record_path = OUT_DIR / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"record: {record_path.relative_to(ROOT)}  "
          f"output digest: {record['digests']['output'][:16]}")
    for err in errors[:5]:
        print(f"FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
