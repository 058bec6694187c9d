"""Command-line entry point wiring all modules together.

Subcommands: synth, train, infer, events, eval, finetune, serve, plotdata.
Option precedence: command-line flags > config file (key=value lines) >
SOMNOFLOW_SEED environment variable (seed only) > built-in defaults.
Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import socket
import sys

import numpy as np

from . import datapipe, evalkit, events as events_mod, sleepnet, stream as stream_mod
from .datapipe import SynthConfig, build_training_set, ingest_epochs
from .events import EventRuleConfig, Hypnogram, predict_events
from .sleepnet import (ModelConfig, TrainingHyper, build_model, finetune_transfer,
                       infer_hypnogram, load_model, save_model, train)

# single source of truth for defaults, shared by parser construction and docs
DEFAULTS = {
    "seed": 0,
    "hours": 8.0,
    "mean_sleep_min": 240.0,
    "mean_wake_min": 60.0,
    "transition_blur_min": 2.0,
    "lr": 1e-3,
    "batch_size": 32,
    "epochs": 20,
    "aux_weight": 0.25,
    "val_frac": 0.2,
    "context_hours": 1.0,
    "threshold": 0.5,
    "median_width": 5,
    "min_run": 3,
    "sleep_confirm": 45,
    "awake_break": 10,
    "wake_confirm": 15,
    "reentry_run": 10,
    "tolerance": 15.0,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _env_seed():
    raw = os.environ.get("SOMNOFLOW_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SOMNOFLOW_SEED must be an integer, got {raw!r}")


def _explicit_options(parser, argv):
    """The dests argv sets, as argparse reads them: `--key=value` and an
    abbreviated `--ke value` count as `--key value` does. Re-parses argv
    with every default suppressed, so `parser`'s defaults are gone after."""
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            else:
                action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _cast(action, raw):
    """A config-file string as the command line would give it: a flag's
    true/false word, -v's count, or `action.type` applied to it, or to each
    of its whitespace-separated words for an option that takes a list."""
    if action.nargs == 0:
        if not isinstance(action.const, bool):  # -v/--verbose
            return int(raw)
        word = raw.lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"expected true or false, got {raw!r}")
        return word in ("1", "true", "yes")
    cast = action.type or str
    return [cast(word) for word in raw.split()] if action.nargs in ("*", "+") else cast(raw)


def _merge(args, parser, argv):
    """Apply config-file values and the env seed for options the command line
    did not set. A key that names no option of any subcommand is an error; one
    of another subcommand is ignored, so one file can serve several."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    env_seed = _env_seed()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {a.dest for p in subparsers.choices.values() for a in p._actions}
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    explicit = _explicit_options(parser, argv)
    for key, raw in file_values.items():
        if key not in known:
            raise ValueError(f"config file {args.config}: unknown key {key!r}")
        if not hasattr(args, key) or key == "config" or key in explicit:
            continue
        try:
            setattr(args, key, _cast(actions[key], raw))
        except ValueError as exc:
            raise ValueError(f"config file {args.config}: {key} = {raw!r}: {exc}") from exc
    if env_seed is not None and hasattr(args, "seed") and "seed" not in explicit \
            and "seed" not in file_values:
        args.seed = env_seed
    return args


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("-v", "--verbose", action="count", default=0)


def _add_rules(p):
    p.add_argument("--threshold", type=float, default=DEFAULTS["threshold"])
    p.add_argument("--median-width", type=int, default=DEFAULTS["median_width"])
    p.add_argument("--min-run", type=int, default=DEFAULTS["min_run"])
    p.add_argument("--sleep-confirm", type=int, default=DEFAULTS["sleep_confirm"])
    p.add_argument("--awake-break", type=int, default=DEFAULTS["awake_break"])
    p.add_argument("--wake-confirm", type=int, default=DEFAULTS["wake_confirm"])
    p.add_argument("--reentry-run", type=int, default=DEFAULTS["reentry_run"])


def _rule_config(args):
    return EventRuleConfig(
        threshold=args.threshold, median_width=args.median_width,
        min_run=args.min_run, sleep_confirm=args.sleep_confirm,
        awake_break=args.awake_break, wake_confirm=args.wake_confirm,
        reentry_run=args.reentry_run)


def build_parser():
    parser = _Parser(prog="somnoflow",
                     description="Sleep/wake classification and event prediction "
                                 "from per-epoch vitals")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a labeled synthetic night")
    _add_common(p)
    p.add_argument("--hours", type=float, default=DEFAULTS["hours"])
    p.add_argument("--mean-sleep-min", type=float, default=DEFAULTS["mean_sleep_min"])
    p.add_argument("--mean-wake-min", type=float, default=DEFAULTS["mean_wake_min"])
    p.add_argument("--transition-blur-min", type=float, default=DEFAULTS["transition_blur_min"])
    p.add_argument("--single-sleep-period", action="store_true",
                   help="one wake-sleep-wake night instead of alternating bouts")
    p.add_argument("--out", required=True, help="epoch CSV output path")
    p.add_argument("--truth-out", help="transition sidecar output path")

    p = sub.add_parser("train", help="train a model on labeled epoch CSVs")
    _add_common(p)
    p.add_argument("--data", nargs="+", required=True, help="labeled epoch CSV file(s)")
    p.add_argument("--model", required=True, help="model output path")
    p.add_argument("--lr", type=float, default=DEFAULTS["lr"])
    p.add_argument("--batch-size", type=int, default=DEFAULTS["batch_size"])
    p.add_argument("--epochs", type=int, default=DEFAULTS["epochs"])
    p.add_argument("--aux-weight", type=float, default=DEFAULTS["aux_weight"])
    p.add_argument("--val-frac", type=float, default=DEFAULTS["val_frac"])
    p.add_argument("--context-hours", type=float, default=DEFAULTS["context_hours"],
                   help="keep windows within this many hours of a transition; 0 keeps all")
    p.add_argument("--single-head", action="store_true",
                   help="kernel-3 single-head ablation architecture")

    p = sub.add_parser("infer", help="per-minute sleep probabilities for a series")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="epoch CSV")
    p.add_argument("--out", help="hypnogram CSV output (default stdout)")

    p = sub.add_parser("events", help="sleep-onset/wake-up from a hypnogram CSV")
    _add_common(p)
    _add_rules(p)
    p.add_argument("--hypnogram", required=True, help="CSV from `infer`")
    p.add_argument("--out", help="events CSV output (default stdout)")
    p.add_argument("--trace-out", help="write the rule-decision trace here")

    p = sub.add_parser("eval", help="score a model against labeled data")
    _add_common(p)
    _add_rules(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", nargs="+", required=True, help="labeled epoch CSV file(s)")
    p.add_argument("--truth-events", nargs="*", default=[],
                   help="transition sidecars matching --data order")
    p.add_argument("--tolerance", type=float, default=DEFAULTS["tolerance"],
                   help="event matching relaxation, minutes")
    p.add_argument("--csv", help="also write per-run metric rows to this CSV")

    p = sub.add_parser("finetune", help="transfer-learn the trunk on a cohort")
    _add_common(p)
    p.add_argument("--model", required=True, help="base model path")
    p.add_argument("--data", nargs="+", required=True, help="labeled cohort CSV file(s)")
    p.add_argument("--out", required=True, help="fine-tuned model output path")
    p.add_argument("--lr", type=float, default=DEFAULTS["lr"])
    p.add_argument("--batch-size", type=int, default=DEFAULTS["batch_size"])
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--unfreeze-intermediate", action="store_true",
                   help="also train the heads' FC stacks")

    p = sub.add_parser("serve", help="stream epochs from stdin or a TCP socket")
    _add_common(p)
    _add_rules(p)
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int, help="listen on TCP port instead of stdin")

    p = sub.add_parser("plotdata", help="tidy per-minute CSV for plotting")
    _add_common(p)
    _add_rules(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="epoch CSV")
    p.add_argument("--out", required=True)

    return parser


# --- subcommand bodies ------------------------------------------------------

def _cmd_synth(args):
    cfg = SynthConfig(seed=args.seed, hours=args.hours,
                      mean_sleep_min=args.mean_sleep_min,
                      mean_wake_min=args.mean_wake_min,
                      transition_blur_min=args.transition_blur_min,
                      single_sleep_period=args.single_sleep_period)
    series = datapipe.synth_generate(cfg)
    datapipe.write_epochs(series, args.out)
    if args.truth_out:
        datapipe.write_transitions(series.transitions, args.truth_out)
    print(f"wrote {len(series)} epochs to {args.out}"
          + (f", {len(series.transitions)} transitions to {args.truth_out}"
             if args.truth_out else ""))
    return 0


def _load_series_list(paths):
    return [ingest_epochs(p, subject_id=os.path.basename(p)) for p in paths]


def _cmd_train(args):
    series_list = _load_series_list(args.data)
    windows = build_training_set(series_list, context_hours=args.context_hours,
                                 seed=args.seed)
    stats = datapipe.fit_normalizer(windows)
    normed = [datapipe.apply_normalizer(w, stats) for w in windows]
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(len(normed))
    n_val = int(len(normed) * args.val_frac)
    val = [normed[i] for i in perm[:n_val]]
    tr = [normed[i] for i in perm[n_val:]]

    if args.single_head:
        config = ModelConfig(heads=[sleepnet.HeadConfig(kernel_width=3)], seed=args.seed,
                             aux_loss_weight=args.aux_weight)
    else:
        config = ModelConfig(seed=args.seed, aux_loss_weight=args.aux_weight)
    model = build_model(config)
    model.norm_stats = stats
    hyper = TrainingHyper(lr=args.lr, batch_size=args.batch_size,
                          n_epochs=args.epochs, seed=args.seed)
    model, report = train(model, tr, val, hyper)
    save_model(model, args.model)
    last_val = f"{report.val_accuracy[-1] * 100:.2f}%" if report.val_accuracy else "n/a"
    print(f"trained on {len(tr)} windows ({n_val} validation) in "
          f"{report.wall_time:.1f}s over {len(report.train_loss)} epochs")
    print(f"final train accuracy {report.train_accuracy[-1] * 100:.2f}%, "
          f"validation accuracy {last_val}")
    print(f"model digest {report.digest[:16]} written to {args.model}")
    return 0


def _write_hypnogram(hyp, dest):
    w = csv.writer(dest, lineterminator="\n")
    w.writerow(["timestamp", "probability"])
    for i, p in enumerate(hyp.probs):
        w.writerow([hyp.start + i * 60, f"{p:.6f}"])


def _read_hypnogram(path):
    with open(path, newline="") as fh:
        lines = datapipe.record_lines(fh.read())
    header = lines[0].split(",") if lines else None
    if header is None or [h.strip() for h in header[:2]] != ["timestamp", "probability"]:
        raise ValueError(f"bad hypnogram header {datapipe.clipped_repr(header)}")
    start, probs = None, []
    for row_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        try:
            ts, p = int(row[0]), float(row[1])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"hypnogram row {row_no}: unparseable values: "
                             f"{datapipe.clipped_repr(row)}") from exc
        if abs(ts) >= datapipe.TIMESTAMP_LIMIT:
            raise ValueError(f"hypnogram row {row_no}: timestamp "
                             f"{datapipe.clipped_repr(ts)} out of range")
        start = ts if start is None else start
        if ts != start + 60 * len(probs):
            raise ValueError(f"hypnogram row {row_no}: timestamp {ts}, expected "
                             f"{start + 60 * len(probs)}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"hypnogram row {row_no}: probability {p} outside [0,1]")
        probs.append(p)
    if not probs:
        raise ValueError("empty hypnogram file")
    return Hypnogram(start=start, probs=np.array(probs))


def _cmd_infer(args):
    model = load_model(args.model)
    series = ingest_epochs(args.data)
    hyp = infer_hypnogram(model, series)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _write_hypnogram(hyp, fh)
        print(f"wrote {len(hyp)} minutes to {args.out}")
    else:
        _write_hypnogram(hyp, sys.stdout)
    return 0


def _cmd_events(args):
    hyp = _read_hypnogram(args.hypnogram)
    ev = predict_events(hyp, _rule_config(args))
    trace_ref = args.trace_out or ""
    if args.out:
        events_mod.write_events(ev, args.out, trace_ref)
        print(f"wrote events to {args.out}")
    else:
        events_mod.write_events(ev, sys.stdout, trace_ref)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(events_mod.format_trace(ev.trace) + "\n")
    return 0


def _minute_truth(series, hyp):
    """Per-minute truth states aligned with the hypnogram (labels of the
    minute's two epochs; second epoch wins on disagreement)."""
    offset = (hyp.start - int(series.timestamps[0])) // datapipe.EPOCH_SECONDS
    states = np.maximum(series.labels[offset + 1::2][:len(hyp)], 0)
    return events_mod.BinaryHypnogram(start=hyp.start, states=states)


def _cmd_eval(args):
    if args.truth_events and len(args.truth_events) != len(args.data):
        raise ValueError("--truth-events must match --data in length")
    model = load_model(args.model)
    rules = _rule_config(args)
    reports = []
    event_counts = {k: evalkit.ConfusionCounts() for k in datapipe.EVENT_KINDS}
    for i, path in enumerate(args.data):
        series = ingest_epochs(path, subject_id=os.path.basename(path))
        hyp = infer_hypnogram(model, series)
        pred_bin = events_mod.binarize(hyp, rules.threshold)
        truth_bin = _minute_truth(series, hyp)
        counts = evalkit.confusion(pred_bin, truth_bin)
        report = evalkit.MetricReport.from_counts(counts, run_id=os.path.basename(path))
        reports.append(report)
        print(report.format())
        if args.truth_events:
            truth = datapipe.read_transitions(args.truth_events[i])
            ev = predict_events(hyp, rules)
            match = evalkit.match_events(ev, truth, tolerance_min=args.tolerance)
            for kind, c in match.per_kind.items():
                event_counts[kind] = event_counts[kind] + c
    print("-- state classification aggregate --")
    print(evalkit.format_summary(evalkit.aggregate_runs(reports)))
    if args.truth_events:
        print(f"-- event timing (tolerance {args.tolerance:g} min) --")
        for kind, c in event_counts.items():
            total = c.tp + c.fp + c.fn
            rate = f"{100.0 * c.tp / (c.tp + c.fn):.2f}%" if (c.tp + c.fn) else "n/a"
            print(f"{kind}: TP={c.tp} FP={c.fp} FN={c.fn} hit-rate={rate} ({total} events)")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["run_id", "accuracy", "precision", "specificity", "sensitivity",
                        "tp", "tn", "fp", "fn"])
            for r in reports:
                w.writerow([r.run_id] +
                           ["" if v is None else f"{v:.4f}"
                            for v in (r.accuracy, r.precision, r.specificity, r.sensitivity)] +
                           [r.counts.tp, r.counts.tn, r.counts.fp, r.counts.fn])
    return 0


def _cmd_finetune(args):
    model = load_model(args.model)
    if model.norm_stats is None:
        raise ValueError("base model has no normalization statistics")
    series_list = _load_series_list(args.data)
    windows = build_training_set(series_list, context_hours=0, seed=args.seed)
    normed = [datapipe.apply_normalizer(w, model.norm_stats) for w in windows]
    hyper = TrainingHyper(lr=args.lr, batch_size=args.batch_size,
                          n_epochs=args.epochs, seed=args.seed)
    finetune_transfer(model, normed, hyper,
                      include_intermediate_fc=args.unfreeze_intermediate)
    save_model(model, args.out)
    print(f"fine-tuned on {len(normed)} windows; wrote {args.out}")
    return 0


def _serve_lines(model, rules, lines_in, write):
    stream = stream_mod.SleepStream(model, rules)
    for line in lines_in:
        if not line.strip():
            continue
        for em in stream.feed_line(line):
            write(em.format() + "\n")
    tail, _ = stream.finalize()
    for em in tail:
        write(em.format() + "\n")


def _cmd_serve(args):
    if args.port is not None and not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be in 0-65535, got {args.port}")
    model = load_model(args.model)
    rules = _rule_config(args)
    if args.port is None:
        _serve_lines(model, rules, sys.stdin, sys.stdout.write)
        sys.stdout.flush()
        return 0
    srv = socket.create_server(("127.0.0.1", args.port))
    print(f"listening on 127.0.0.1:{args.port}", file=sys.stderr)
    try:
        while True:
            conn, _ = srv.accept()
            with conn, conn.makefile("rw", newline="\n") as fh:
                _serve_lines(model, rules, fh, fh.write)
                fh.flush()
    except KeyboardInterrupt:
        return 0
    finally:
        srv.close()


def _cmd_plotdata(args):
    model = load_model(args.model)
    series = ingest_epochs(args.data)
    rules = _rule_config(args)
    hyp = infer_hypnogram(model, series)
    ev = predict_events(hyp, rules)
    truth = _minute_truth(series, hyp) if np.any(series.labels >= 0) else None
    evalkit.emit_plotdata(hyp, ev, truth, args.out, threshold=rules.threshold)
    print(f"wrote {len(hyp)} rows to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "events": _cmd_events,
    "eval": _cmd_eval,
    "finetune": _cmd_finetune,
    "serve": _cmd_serve,
    "plotdata": _cmd_plotdata,
}


def run(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        args = _merge(args, parser, argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
