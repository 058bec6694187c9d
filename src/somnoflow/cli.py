"""Command-line entry point wiring all modules together.

Subcommands: synth, train, infer, events, eval, finetune, serve, plotdata.
Option precedence: command-line flags > config file (key=value lines) >
SOMNOFLOW_SEED environment variable (seed only) > built-in defaults.
Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from dataclasses import asdict, fields

import numpy as np

from . import datapipe, evalkit, events as events_mod, sleepnet, stream as stream_mod
from .datapipe import SynthConfig, build_training_set, ingest_epochs
from .events import EventRuleConfig, Hypnogram, predict_events
from .sleepnet import (ModelConfig, TrainingHyper, build_model, finetune_transfer,
                       infer_hypnogram, load_model, save_model, train)


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


def _check_seed(seed, source):
    """seed, unless it is negative, which numpy's generators reject: then a
    ValueError that names where it came from."""
    if seed < 0:
        raise ValueError(f"{source} must be >= 0, got {seed}")
    return seed


def _env_seed():
    raw = os.environ.get("SOMNOFLOW_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"SOMNOFLOW_SEED must be an integer, got {raw!r}")
    return _check_seed(seed, "SOMNOFLOW_SEED")


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
    """Set the env seed, then the config-file values over it, as the
    subcommand's defaults and parse argv again, so that argparse lets every
    flag in argv beat them. A key that names no option of any subcommand is
    an error; one of another subcommand is ignored, so one file can serve
    several. A negative seed is an error naming its source."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    env_seed = _env_seed()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {a.dest for p in subparsers.choices.values() for a in p._actions}
    command = subparsers.choices[args.command]
    actions = {a.dest: a for a in command._actions}
    defaults = {} if env_seed is None else {"seed": env_seed}
    for key, raw in file_values.items():
        if key not in known:
            raise ValueError(f"config file {args.config}: unknown key {key!r}")
        if not hasattr(args, key) or key == "config":
            continue
        # each -v adds one to the default: a count in argv replaces the file's
        if isinstance(actions[key], argparse._CountAction) and getattr(args, key):
            continue
        try:
            defaults[key] = _cast(actions[key], raw)
        except ValueError as exc:
            raise ValueError(f"config file {args.config}: {key} = {raw!r}: {exc}") from exc
        if key == "seed":
            _check_seed(defaults[key], f"config file {args.config}: seed")
    command.set_defaults(**defaults)
    args = parser.parse_args(argv)
    # the env and file seeds are checked, so a negative one came from argv
    _check_seed(args.seed, "--seed")
    return args


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-v", "--verbose", action="count", default=0)


def _add_defaults(p, **defaults):
    """One `--kebab-name` flag per keyword, typed and defaulted by its value."""
    for name, value in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)


def _rule_config(args):
    return EventRuleConfig(**{f.name: getattr(args, f.name) for f in fields(EventRuleConfig)})


# the SynthConfig fields that synth takes as flags
_SYNTH_FLAGS = ("hours", "mean_sleep_min", "mean_wake_min", "transition_blur_min")


def build_parser():
    synth, hyper, rules = SynthConfig(), TrainingHyper(), asdict(EventRuleConfig())
    parser = _Parser(prog="somnoflow",
                     description="Sleep/wake classification and event prediction "
                                 "from per-epoch vitals")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a labeled synthetic night")
    _add_common(p)
    _add_defaults(p, **{name: getattr(synth, name) for name in _SYNTH_FLAGS})
    p.add_argument("--single-sleep-period", action="store_true",
                   help="one wake-sleep-wake night instead of alternating bouts")
    p.add_argument("--out", required=True, help="epoch CSV output path")
    p.add_argument("--truth-out", help="transition sidecar output path")

    p = sub.add_parser("train", help="train a model on labeled epoch CSVs")
    _add_common(p)
    p.add_argument("--data", nargs="+", required=True, help="labeled epoch CSV file(s)")
    p.add_argument("--model", required=True, help="model output path")
    _add_defaults(p, lr=hyper.lr, batch_size=hyper.batch_size, epochs=hyper.n_epochs,
                  aux_weight=ModelConfig().aux_loss_weight, val_frac=0.2)
    p.add_argument("--context-hours", type=float, default=datapipe.CONTEXT_HOURS,
                   help="keep windows within this many hours of a transition; 0 keeps all")
    p.add_argument("--single-head", action="store_true",
                   help="single-head ablation: one kernel-3 head of 32 filters and fc "
                        "width 32, the four-head default's parameter budget")

    p = sub.add_parser("infer", help="per-minute sleep probabilities for a series")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="epoch CSV")
    p.add_argument("--out", help="hypnogram CSV output (default stdout)")

    p = sub.add_parser("events", help="sleep-onset/wake-up from a hypnogram CSV")
    _add_common(p)
    _add_defaults(p, **rules)
    p.add_argument("--hypnogram", required=True, help="CSV from `infer`")
    p.add_argument("--out", help="events CSV output (default stdout)")
    p.add_argument("--trace-out", help="write the rule-decision trace here")

    p = sub.add_parser("eval", help="score a model against labeled data")
    _add_common(p)
    _add_defaults(p, **rules)
    p.add_argument("--model", required=True)
    p.add_argument("--data", nargs="+", required=True, help="labeled epoch CSV file(s)")
    p.add_argument("--truth-events", nargs="*", default=[],
                   help="transition sidecars matching --data order")
    p.add_argument("--tolerance", type=float, default=evalkit.DEFAULT_TOLERANCE_MIN,
                   help="event matching relaxation, minutes")
    p.add_argument("--csv", help="also write per-run metric rows to this CSV")

    p = sub.add_parser("finetune", help="transfer-learn the trunk on a cohort")
    _add_common(p)
    p.add_argument("--model", required=True, help="base model path")
    p.add_argument("--data", nargs="+", required=True, help="labeled cohort CSV file(s)")
    p.add_argument("--out", required=True, help="fine-tuned model output path")
    _add_defaults(p, lr=hyper.lr, batch_size=hyper.batch_size,
                  epochs=sleepnet.FINETUNE_EPOCHS)
    p.add_argument("--unfreeze-intermediate", action="store_true",
                   help="also train the heads' FC stacks")

    p = sub.add_parser("serve", help="stream epochs from stdin or a TCP socket")
    _add_common(p)
    _add_defaults(p, **rules)
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int, help="listen on TCP port instead of stdin")

    p = sub.add_parser("plotdata", help="tidy per-minute CSV for plotting")
    _add_common(p)
    _add_defaults(p, **rules)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="epoch CSV")
    p.add_argument("--out", required=True)

    return parser


# --- subcommand bodies ------------------------------------------------------

def _cmd_synth(args):
    cfg = SynthConfig(seed=args.seed, single_sleep_period=args.single_sleep_period,
                      **{name: getattr(args, name) for name in _SYNTH_FLAGS})
    series = datapipe.synth_generate(cfg)
    datapipe.write_epochs(series, args.out)
    if args.truth_out:
        datapipe.write_transitions(series.transitions, args.truth_out)
    print(f"wrote {len(series)} epochs to {args.out}"
          + (f", {len(series.transitions)} transitions to {args.truth_out}"
             if args.truth_out else ""))
    return 0


def _cmd_train(args):
    if not 0 <= args.val_frac < 1:
        raise ValueError(f"--val-frac must be in [0, 1), got {args.val_frac}")
    series_list = [ingest_epochs(path) for path in args.data]
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
        head = sleepnet.HeadConfig(kernel_width=3, n_filters=32, fc_width=32)
        config = ModelConfig(heads=[head], seed=args.seed, aux_loss_weight=args.aux_weight)
    else:
        config = ModelConfig(seed=args.seed, aux_loss_weight=args.aux_weight)
    model = build_model(config)
    model.norm_stats = stats
    hyper = TrainingHyper(lr=args.lr, batch_size=args.batch_size,
                          n_epochs=args.epochs, seed=args.seed)
    model, report = train(model, tr, val, hyper)
    save_model(model, args.model)
    val_acc = "n/a" if report.val_accuracy is None else f"{report.val_accuracy * 100:.2f}%"
    print(f"trained on {len(tr)} windows ({n_val} validation) in "
          f"{report.wall_time:.1f}s over {args.epochs} epochs")
    print(f"kept epoch {report.best_epoch} of {args.epochs}: train accuracy "
          f"{report.train_accuracy * 100:.2f}%, validation accuracy {val_acc}")
    print(f"model digest {report.digest[:16]} written to {args.model}")
    return 0


def _read_hypnogram(path):
    start, probs = None, []
    for row_no, row in datapipe.read_rows(path, ("timestamp", "probability"), "hypnogram"):
        try:
            ts, p = int(row[0]), float(row[1])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"hypnogram row {row_no}: unparseable values: "
                             f"{datapipe.clipped_repr(row)}") from exc
        error = datapipe.timestamp_error(ts)
        if error is not None:
            raise ValueError(f"hypnogram row {row_no}: {error}")
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
    datapipe.write_rows(args.out or sys.stdout, ["timestamp", "probability"],
                        [(hyp.start + i * 60, f"{p:.6f}") for i, p in enumerate(hyp.probs)])
    if args.out:
        print(f"wrote {len(hyp)} minutes to {args.out}")
    return 0


def _cmd_events(args):
    hyp = _read_hypnogram(args.hypnogram)
    ev = predict_events(hyp, _rule_config(args))
    events_mod.write_events(ev, args.out or sys.stdout, args.trace_out or "")
    if args.out:
        print(f"wrote events to {args.out}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(events_mod.format_trace(ev.trace) + "\n")
    return 0


def _minute_truth(series, hyp, path):
    """Per-minute truth states aligned with the hypnogram: the label of each
    minute's second epoch. A minute whose second epoch has no label is a
    ValueError naming `path` and the minute's timestamp."""
    offset = (hyp.start - int(series.timestamps[0])) // datapipe.EPOCH_SECONDS
    states = series.labels[offset + 1::2][:len(hyp)]
    unlabeled = np.flatnonzero(states < 0)
    if unlabeled.size:
        raise ValueError(f"{path}: no label for the minute at timestamp "
                         f"{hyp.start + 60 * int(unlabeled[0])}")
    return events_mod.BinaryHypnogram(start=hyp.start, states=states)


def _cmd_eval(args):
    if args.truth_events and len(args.truth_events) != len(args.data):
        raise ValueError("--truth-events must match --data in length")
    model = load_model(args.model)
    rules = _rule_config(args)
    reports = []
    event_counts = {k: evalkit.ConfusionCounts() for k in datapipe.EVENT_KINDS}
    for i, path in enumerate(args.data):
        series = ingest_epochs(path)
        hyp = infer_hypnogram(model, series)
        pred_bin = events_mod.binarize(hyp, rules.threshold)
        truth_bin = _minute_truth(series, hyp, path)
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
        datapipe.write_rows(args.csv, ["run_id", "accuracy", "precision", "specificity",
                                       "sensitivity", "tp", "tn", "fp", "fn"],
                            [[r.run_id]
                             + ["" if v is None else f"{v:.4f}"
                                for v in (r.accuracy, r.precision, r.specificity, r.sensitivity)]
                             + [r.counts.tp, r.counts.tn, r.counts.fp, r.counts.fn]
                             for r in reports])
    return 0


def _cmd_finetune(args):
    model = load_model(args.model)
    if model.norm_stats is None:
        raise ValueError("base model has no normalization statistics")
    series_list = [ingest_epochs(path) for path in args.data]
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
    """Feed each line to one stream and write its frames, all of a line's
    in one write(text) call as soon as the line is answered. A line that is
    empty once its line ending is removed is skipped, as the file readers
    skip a blank line; any other line gets frames or an `err,` frame."""
    stream = stream_mod.SleepStream(model, rules)
    for line in lines_in:
        if not line.rstrip("\r\n"):
            continue
        frames = stream.feed_line(line)
        if frames:
            write("".join(em.format() + "\n" for em in frames))
    tail, _ = stream.finalize()
    if tail:
        write("".join(em.format() + "\n" for em in tail))


def _connection_lines(recv):
    """The lines of the bytes that recv(n) returns until it returns none,
    each yielded as soon as a \\n or a \\r ends it, so a client that ends
    its lines with \\r waits for no further byte. A \\r\\n ends a line and
    a blank one, which `_serve_lines` skips as the file readers skip it.
    A byte that is not UTF-8 decodes to a lone surrogate, so its line gets
    an `err,` frame and the server goes on. `serve` reads stdin and each
    `--port` connection through it. Only each new chunk is split, and a
    line's pieces are joined once, when it ends, so a line costs time
    linear in its length however many chunks it spans."""
    pieces = []  # the unended line, in the chunks it came in
    while chunk := recv(1 << 16):
        # \r -> \n maps byte for byte, so each chunk can be mapped alone
        *ended, rest = chunk.replace(b"\r", b"\n").split(b"\n")
        for piece in ended:
            pieces.append(piece)
            yield b"".join(pieces).decode(errors="surrogateescape")
            pieces = []
        pieces.append(rest)
    if line := b"".join(pieces):
        yield line.decode(errors="surrogateescape")


def _cmd_serve(args):
    if args.port is not None and not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be in 0-65535, got {args.port}")
    model = load_model(args.model)
    rules = _rule_config(args)
    if args.port is None:
        def write(frames):
            # stdout is block-buffered on a pipe: a client waiting for this
            # line's frames would otherwise get none until 8 KB or the end
            sys.stdout.write(frames)
            sys.stdout.flush()
        _serve_lines(model, rules, _connection_lines(sys.stdin.buffer.read1), write)
        return 0
    srv = socket.create_server(("127.0.0.1", args.port))
    # the bound port: with --port 0 the system picks it
    print(f"listening on 127.0.0.1:{srv.getsockname()[1]}", file=sys.stderr)
    try:
        while True:
            conn, _ = srv.accept()
            with conn:
                try:
                    _serve_lines(model, rules, _connection_lines(conn.recv),
                                 lambda frames: conn.sendall(frames.encode()))
                except ConnectionError as exc:
                    # a client that hangs up or resets ends its own connection
                    print(f"connection ended: {exc}", file=sys.stderr)
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
    truth = _minute_truth(series, hyp, args.data) if np.any(series.labels >= 0) else None
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
    command = "somnoflow"
    try:
        args = parser.parse_args(argv)
        command = args.command
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
    except MemoryError as exc:
        # sizes are not bounded before allocating: a request too large for
        # this machine, such as synth --hours 1e7, ends here
        print(f"error: {command}: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
