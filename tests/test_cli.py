import inspect
import io
import math
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import HUGE_FIELD, assert_clipped, corrupt_header
from test_datapipe import _fuzz_text
import somnoflow
from somnoflow import datapipe, evalkit, sleepnet, stream
from somnoflow.cli import (_connection_lines, _merge, _rule_config, _serve_connection,
                           _serve_lines, build_parser, run)
from somnoflow.datapipe import (CSV_COLUMNS, IngestError, SynthConfig, build_training_set,
                                ingest_epochs, record_lines)
from somnoflow.events import EventRuleConfig
from somnoflow.sleepnet import ModelConfig, TrainingHyper

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SOMNOFLOW_SEED", raising=False)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic nights plus a model trained through the CLI itself."""
    d = tmp_path_factory.mktemp("cli")
    for s in range(3):
        assert run(["synth", "--seed", str(s), "--hours", "6", "--out",
                    str(d / f"night{s}.csv"),
                    "--truth-out", str(d / f"truth{s}.csv"),
                    "--single-sleep-period"]) == 0
    assert run(["train", "--data", str(d / "night0.csv"), str(d / "night1.csv"),
                "--model", str(d / "model.slpn"), "--epochs", "4",
                "--seed", "0"]) == 0
    return d


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert run([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["synth"]) == 1

    def test_missing_input_file(self, capsys, tmp_path):
        assert run(["infer", "--model", str(tmp_path / "absent.slpn"),
                    "--data", str(tmp_path / "absent.csv")]) == 2

    def test_invalid_option_value(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["synth", "--hours", "0.1", "--out", str(out)]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert run(["train", "--help"]) == 0
        assert "--epochs" in capsys.readouterr().out


class TestSynth:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--seed", "3", "--hours", "2", "--out", str(a)]) == 0
        assert run(["synth", "--seed", "3", "--hours", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--seed", "3", "--hours", "2", "--out", str(a)])
        run(["synth", "--seed", "4", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_truth_sidecar(self, tmp_path, capsys):
        run(["synth", "--seed", "1", "--hours", "4", "--out", str(tmp_path / "n.csv"),
             "--truth-out", str(tmp_path / "t.csv")])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "kind,timestamp"
        assert len(lines) > 1

    def test_env_seed_applies(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SOMNOFLOW_SEED", "11")
        run(["synth", "--hours", "2", "--out", str(a)])
        monkeypatch.delenv("SOMNOFLOW_SEED")
        run(["synth", "--seed", "11", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env_seed(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SOMNOFLOW_SEED", "11")
        run(["synth", "--seed", "5", "--hours", "2", "--out", str(a)])
        monkeypatch.delenv("SOMNOFLOW_SEED")
        run(["synth", "--seed", "5", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOMNOFLOW_SEED", "notanint")
        assert run(["synth", "--hours", "2", "--out", str(tmp_path / "x.csv")]) == 1


class TestConfigFile:
    def test_config_value_used(self, tmp_path, capsys):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("seed = 9\nhours = 2\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--config", str(cfg), "--out", str(a)]) == 0
        run(["synth", "--seed", "9", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("seed = 9\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--config", str(cfg), "--seed", "2", "--hours", "2",
             "--out", str(a)])
        run(["synth", "--seed", "2", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", [["--hours=2"], ["--hou", "2"]])
    def test_equals_and_abbreviated_flags_beat_config(self, tmp_path, capsys, flag):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("hours = 3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--config", str(cfg), *flag, "--out", str(a)]) == 0
        assert run(["synth", "--hours", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_abbreviated_seed_flag_beats_env_seed(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SOMNOFLOW_SEED", "11")
        run(["synth", "--see=5", "--hours", "2", "--out", str(a)])
        monkeypatch.delenv("SOMNOFLOW_SEED")
        run(["synth", "--seed", "5", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("line, key, want", [
        ("port = 9", "port", 9),
        ("truth_events = a.json  b.json", "truth_events", ["a.json", "b.json"]),
        ("truth-events = a.json", "truth_events", ["a.json"]),
        ("verbose = 2", "verbose", 2),
        ("single_sleep_period = no", "single_sleep_period", False),
        ("single_sleep_period = Yes", "single_sleep_period", True),
    ])
    def test_config_value_cast_as_the_flag_would_be(self, tmp_path, line, key, want):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text(line + "\n")
        command = {"port": ["serve", "--model", "m.slpn"],
                   "truth_events": ["eval", "--model", "m.slpn", "--data", "n.csv"],
                   "verbose": ["synth", "--out", "n.csv"],
                   "single_sleep_period": ["synth", "--out", "n.csv"]}[key]
        parser = build_parser()
        argv = [*command, "--config", str(cfg)]
        args = _merge(parser.parse_args(argv), parser, argv)
        assert getattr(args, key) == want
        assert type(getattr(args, key)) is type(want)

    def test_verbose_flag_replaces_config_count(self, tmp_path):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("verbose = 2\n")
        parser = build_parser()
        argv = ["synth", "--out", "n.csv", "--config", str(cfg), "-v"]
        assert _merge(parser.parse_args(argv), parser, argv).verbose == 1

    @pytest.mark.parametrize("command, line", [
        (["serve", "--model", "absent.slpn"], "port = 80a"),
        (["synth", "--out", "x.csv"], "hours = two"),
        (["synth", "--out", "x.csv"], "single_sleep_period = maybe"),
    ])
    def test_config_value_that_cannot_be_cast_exits_1(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text(line + "\n")
        assert run([*command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and line.split(" = ")[0] in err
        assert "Traceback" not in err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("hourz = 3\n")
        out = tmp_path / "x.csv"
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config file {cfg}: unknown key 'hourz'" in err
        assert not out.exists()

    def test_other_subcommands_config_key_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("hours = 2\nepochs = 3\nport = 9\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["synth", "--hours", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_beats_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "somnoflow.conf"
        cfg.write_text("seed = 9\n")
        monkeypatch.setenv("SOMNOFLOW_SEED", "4")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--config", str(cfg), "--hours", "2", "--out", str(a)])
        monkeypatch.delenv("SOMNOFLOW_SEED")
        run(["synth", "--seed", "9", "--hours", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("this is not key value\n")
        assert run(["synth", "--config", str(cfg), "--hours", "2",
                    "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["synth", "--config", str(tmp_path / "absent.conf"),
                    "--out", str(tmp_path / "x.csv")]) == 2


REQUIRED_FLAGS = {
    "synth": ["--out", "n.csv"],
    "train": ["--data", "n.csv", "--model", "m.slpn"],
    "events": ["--hypnogram", "h.csv"],
    "eval": ["--model", "m.slpn", "--data", "n.csv"],
    "finetune": ["--model", "m.slpn", "--data", "n.csv", "--out", "f.slpn"],
    "serve": ["--model", "m.slpn"],
    "plotdata": ["--model", "m.slpn", "--data", "n.csv", "--out", "p.csv"],
}


def default_args(command):
    return build_parser().parse_args([command, *REQUIRED_FLAGS[command]])


class TestDefaultsComeFromTheLibrary:
    @pytest.mark.parametrize("command", ["events", "eval", "serve", "plotdata"])
    def test_rules(self, command):
        assert _rule_config(default_args(command)) == EventRuleConfig()

    def test_synth(self):
        args = default_args("synth")
        assert SynthConfig(seed=args.seed, hours=args.hours, mean_sleep_min=args.mean_sleep_min,
                           mean_wake_min=args.mean_wake_min,
                           transition_blur_min=args.transition_blur_min,
                           single_sleep_period=args.single_sleep_period) == SynthConfig()

    def test_train(self):
        args = default_args("train")
        assert TrainingHyper(lr=args.lr, batch_size=args.batch_size, n_epochs=args.epochs,
                             seed=args.seed) == TrainingHyper()
        assert args.aux_weight == ModelConfig().aux_loss_weight
        context = inspect.signature(build_training_set).parameters["context_hours"]
        assert args.context_hours == context.default

    def test_tolerance(self):
        assert default_args("eval").tolerance == evalkit.DEFAULT_TOLERANCE_MIN

    def test_finetune(self, monkeypatch):
        class Made(Exception):
            pass

        def make(**kwargs):  # stops finetune_transfer once it has its hyperparameters
            raise Made(TrainingHyper(**kwargs))

        monkeypatch.setattr(sleepnet, "TrainingHyper", make)
        with pytest.raises(Made) as made:
            sleepnet.finetune_transfer(None, [None])
        args = default_args("finetune")
        assert TrainingHyper(lr=args.lr, batch_size=args.batch_size, n_epochs=args.epochs,
                             seed=args.seed) == made.value.args[0]


class TestPipelineChain:
    def test_train_reports_accuracy(self, workdir, tmp_path, capsys):
        # the printed epoch and accuracies are the saved model's, re-scored
        # on the training and validation windows that train split off
        data = [str(workdir / "night0.csv"), str(workdir / "night1.csv")]
        path = tmp_path / "m.slpn"
        assert run(["train", "--data", *data, "--model", str(path), "--epochs", "8",
                    "--lr", "0.03", "--seed", "1", "--val-frac", "0.25"]) == 0
        printed = re.search(r"^kept epoch (\d) of 8: train accuracy (\d+\.\d\d)%, "
                            r"validation accuracy (\d+\.\d\d)%$",
                            capsys.readouterr().out, re.MULTILINE)
        assert printed
        model = sleepnet.load_model(path)
        windows = build_training_set([ingest_epochs(p) for p in data],
                                     context_hours=datapipe.CONTEXT_HOURS, seed=1)
        normed = [datapipe.apply_normalizer(w, model.norm_stats) for w in windows]
        perm = np.random.default_rng(1).permutation(len(normed))
        n_val = int(len(normed) * 0.25)
        tr, val = [normed[i] for i in perm[n_val:]], [normed[i] for i in perm[:n_val]]
        for split, accuracy in ((tr, printed[2]), (val, printed[3])):
            x = np.stack([w.values for w in split])
            y = np.array([w.label for w in split])
            p_final, _ = model.forward_batch(x)
            assert f"{np.mean((p_final >= 0.5) == y) * 100:.2f}" == accuracy
        # the kept epoch's weights: the same run cut there, without validation
        kept = int(printed[1])
        assert kept < 8  # so the last epoch's accuracy would not do
        _, report = sleepnet.train(sleepnet.build_model(ModelConfig(seed=1)), tr, None,
                                   TrainingHyper(lr=0.03, n_epochs=kept, seed=1))
        assert report.digest == model.digest()

    def test_infer_writes_hypnogram(self, workdir, tmp_path, capsys):
        hyp = tmp_path / "hyp.csv"
        assert run(["infer", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"), "--out", str(hyp)]) == 0
        lines = hyp.read_text().splitlines()
        assert lines[0] == "timestamp,probability"
        assert len(lines) > 100

    def test_events_at_most_one_row_per_kind(self, workdir, tmp_path, capsys):
        hyp = tmp_path / "hyp.csv"
        run(["infer", "--model", str(workdir / "model.slpn"),
             "--data", str(workdir / "night2.csv"), "--out", str(hyp)])
        ev = tmp_path / "events.csv"
        trace = tmp_path / "trace.txt"
        assert run(["events", "--hypnogram", str(hyp), "--out", str(ev),
                    "--trace-out", str(trace)]) == 0
        rows = ev.read_text().splitlines()[1:]
        kinds = [r.split(",")[0] for r in rows]
        assert kinds.count("sleep_onset") <= 1
        assert kinds.count("wake_time") <= 1
        assert trace.exists()

    def test_events_clips_huge_hypnogram_row(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.csv"
        hyp.write_text(f"timestamp,probability\n{HUGE_FIELD},0.5\n")
        assert run(["events", "--hypnogram", str(hyp)]) == 1
        assert_clipped(capsys.readouterr().err, "hypnogram row 2: unparseable values: ['111")
        hyp.write_text(f"timestamp,probability\n60,{HUGE_FIELD}\n")
        assert run(["events", "--hypnogram", str(hyp)]) == 1
        err = capsys.readouterr().err
        assert "hypnogram row 2: probability inf outside [0,1]" in err
        assert len(err) < 100

    def test_events_clips_out_of_range_timestamp(self, tmp_path, capsys):
        # int() reads up to 4,300 digits, so the row parses and the range
        # check rejects it
        hyp = tmp_path / "hyp.csv"
        hyp.write_text(f"timestamp,probability\n{'1' * 4000},0.5\n")
        assert run(["events", "--hypnogram", str(hyp)]) == 1
        err = capsys.readouterr().err
        assert_clipped(err, "hypnogram row 2: timestamp 111")
        assert "out of range" in err

    @pytest.mark.parametrize("rows, message", [
        (["60,0.1", "120,nan", "180,0.2"], "row 3: probability nan outside [0,1]"),
        (["60,0.1", "180,0.2", "120,0.3"], "row 3: timestamp 180, expected 120"),
    ], ids=["nan-probability", "rows-out-of-order"])
    def test_events_rejects_bad_hypnogram_row(self, tmp_path, capsys, rows, message):
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("timestamp,probability\n" + "\n".join(rows) + "\n")
        assert run(["events", "--hypnogram", str(hyp)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_eval_prints_metrics(self, workdir, tmp_path, capsys):
        csv_out = tmp_path / "metrics.csv"
        assert run(["eval", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"),
                    "--truth-events", str(workdir / "truth2.csv"),
                    "--csv", str(csv_out)]) == 0
        out = capsys.readouterr().out
        for word in ("accuracy", "precision", "specificity", "sensitivity",
                     "sleep_onset", "wake_time", "hit-rate"):
            assert word in out
        assert csv_out.read_text().startswith("run_id,accuracy")

    def test_finetune_writes_model(self, workdir, tmp_path, capsys):
        out = tmp_path / "tuned.slpn"
        assert run(["finetune", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"),
                    "--out", str(out), "--epochs", "1"]) == 0
        from somnoflow.sleepnet import load_model
        base = load_model(workdir / "model.slpn")
        tuned = load_model(out)
        base_heads = {n: a for n, a in base.named_tensors() if not n.startswith("trunk.")}
        for n, a in tuned.named_tensors():
            if not n.startswith("trunk."):
                import numpy as np
                np.testing.assert_array_equal(a, base_heads[n])

    def test_train_zero_epochs_rejected(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.slpn"
        assert run(["train", "--data", str(workdir / "night0.csv"), "--model", str(out),
                    "--epochs", "0"]) == 1
        err = capsys.readouterr().err
        assert "n_epochs" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-0.5", "1", "1.5", "nan"])
    def test_train_rejects_val_frac_outside_unit_interval(self, workdir, tmp_path, capsys,
                                                          value):
        out = tmp_path / "m.slpn"
        assert run(["train", "--data", str(workdir / "night0.csv"), "--model", str(out),
                    "--val-frac", value]) == 1
        err = capsys.readouterr().err
        assert f"error: --val-frac must be in [0, 1), got {float(value)}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [("--epochs", "-3", "n_epochs"),
                                                    ("--lr", "-1", "lr"),
                                                    ("--lr", "nan", "lr")])
    def test_finetune_rejects_bad_hyperparameter(self, workdir, tmp_path, capsys,
                                                 flag, value, field):
        out = tmp_path / "tuned.slpn"
        assert run(["finetune", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"), "--out", str(out),
                    flag, value]) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_plotdata(self, workdir, tmp_path, capsys):
        out = tmp_path / "plot.csv"
        assert run(["plotdata", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "minute,timestamp,probability,binarized,truth,event"
        assert len(lines) > 100


    def test_plotdata_without_labels_leaves_truth_empty(self, workdir, tmp_path, capsys):
        lines = (workdir / "night2.csv").read_text().splitlines()
        data = tmp_path / "unlabeled.csv"
        data.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        out = tmp_path / "plot.csv"
        assert run(["plotdata", "--model", str(workdir / "model.slpn"),
                    "--data", str(data), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(row[4] == "" for row in rows)

    @pytest.mark.parametrize("command, cut, minute", [
        ("eval", "label-column", 840),
        ("eval", "one-label", 3000),
        ("plotdata", "one-label", 3000),
    ])
    def test_scored_minute_without_label_exits_1(self, workdir, tmp_path, capsys,
                                                 command, cut, minute):
        # the first scored minute starts at 840 s; epoch 101 (3030 s) is the
        # second epoch, whose label is the truth, of the minute at 3000 s
        lines = (workdir / "night2.csv").read_text().splitlines()
        if cut == "label-column":
            lines = [line.rsplit(",", 1)[0] for line in lines]
        else:
            lines[102] = lines[102].rsplit(",", 1)[0] + ","
        data = tmp_path / "cut.csv"
        data.write_text("".join(line + "\n" for line in lines))
        argv = [command, "--model", str(workdir / "model.slpn"), "--data", str(data)]
        out = tmp_path / "plot.csv"
        assert run(argv + (["--out", str(out)] if command == "plotdata" else [])) == 1
        err = capsys.readouterr().err
        assert f"error: {data}: no label for the minute at timestamp {minute}\n" in err
        assert not out.exists()

    def test_infer_rejects_model_header_without_manifest(self, workdir, tmp_path, capsys):
        model = tmp_path / "bad.slpn"
        model.write_bytes((workdir / "model.slpn").read_bytes())
        corrupt_header(model, "missing-manifest")
        assert run(["infer", "--model", str(model), "--data",
                    str(workdir / "night2.csv")]) == 1
        assert "model header lacks manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["sleep_onset", "sleep_onset,inf"])
    def test_eval_rejects_truth_row_without_timestamp(self, workdir, tmp_path, capsys, row):
        truth = tmp_path / "truth.csv"
        truth.write_text(f"kind,timestamp\n{row}\n")
        assert run(["eval", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"),
                    "--truth-events", str(truth)]) == 1
        err = capsys.readouterr().err
        assert "row 2: no finite timestamp" in err
        assert "Traceback" not in err

    def test_eval_rejects_truth_row_of_unknown_kind(self, workdir, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("kind,timestamp\nsleep_onset ,600\n")
        assert run(["eval", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"),
                    "--truth-events", str(truth)]) == 1
        err = capsys.readouterr().err
        assert "row 2: event kind not one of sleep_onset, wake_time: ['sleep_onset ', '600']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "-5", "inf"])
    def test_eval_rejects_tolerance_not_finite_and_non_negative(self, workdir, tmp_path,
                                                                capsys, value):
        csv_out = tmp_path / "metrics.csv"
        assert run(["eval", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"),
                    "--truth-events", str(workdir / "truth2.csv"),
                    "--tolerance", value, "--csv", str(csv_out)]) == 1
        err = capsys.readouterr().err
        assert f"error: tolerance must be finite and >= 0 minutes, got {float(value)}\n" in err
        assert not csv_out.exists()

    @pytest.mark.parametrize("value", ["6\x000", "1" * 200_000, "1e19",
                                       "10000000000000000000", '"600"'],
                             ids=["nul-byte", "200kb-field", "1e19", "int-beyond-int64",
                                  "quoted"])
    @pytest.mark.parametrize("command", ["infer", "eval", "events"])
    def test_hostile_timestamp_field_exits_1(self, workdir, tmp_path, capsys, command, value):
        path = tmp_path / "hostile.csv"
        model = str(workdir / "model.slpn")
        if command == "infer":
            lines = (workdir / "night2.csv").read_text().splitlines()
            lines[1] = value + lines[1][lines[1].index(","):]
            path.write_text("\n".join(lines) + "\n")
            argv = ["infer", "--model", model, "--data", str(path)]
        elif command == "eval":
            path.write_text(f"kind,timestamp\nsleep_onset,{value}\n")
            argv = ["eval", "--model", model, "--data", str(workdir / "night2.csv"),
                    "--truth-events", str(path)]
        else:
            path.write_text(f"timestamp,probability\n{value},0.5\n")
            argv = ["events", "--hypnogram", str(path)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "row 2:" in err
        assert "Traceback" not in err

    def test_infer_rejects_vital_overflowing_float32(self, workdir, tmp_path, capsys):
        lines = (workdir / "night2.csv").read_text().splitlines()
        fields = lines[51].split(",")
        fields[1] = "1e40"  # hr: finite, but its z-score overflows float32
        lines[51] = ",".join(fields)
        data = tmp_path / "night.csv"
        data.write_text("\n".join(lines) + "\n")
        assert run(["infer", "--model", str(workdir / "model.slpn"),
                    "--data", str(data)]) == 1
        assert "not finite" in capsys.readouterr().err

    def test_infer_rejects_short_record_overflowing_float32(self, workdir, tmp_path, capsys):
        # 10 epochs fill no window, but the record is checked as a long one is
        lines = (workdir / "night2.csv").read_text().splitlines()[:11]
        fields = lines[5].split(",")
        fields[1] = "1e308"
        lines[5] = ",".join(fields)
        data = tmp_path / "short.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "hyp.csv"
        assert run(["infer", "--model", str(workdir / "model.slpn"),
                    "--data", str(data), "--out", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


class TestServe:
    @pytest.mark.parametrize("port", ["99999", "-1", "65536"])
    def test_port_out_of_range_exits_1(self, workdir, capsys, monkeypatch, port):
        def no_socket(*args, **kwargs):
            raise AssertionError("serve bound a socket")
        monkeypatch.setattr("socket.create_server", no_socket)
        assert run(["serve", "--model", str(workdir / "model.slpn"), "--port", port]) == 1
        err = capsys.readouterr().err
        assert f"--port must be in 0-65535, got {port}" in err
        assert "Traceback" not in err

    def test_stdin_round(self, workdir, capsys, monkeypatch):
        data = (workdir / "night2.csv").read_text().splitlines()
        # header is not a valid epoch record: expect an err frame, then classes
        payload = "\n".join(data[:81]) + "\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
        assert run(["serve", "--model", str(workdir / "model.slpn")]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("err,")
        classes = [l for l in out_lines if l.startswith("class,")]
        assert len(classes) == 26  # epochs 30..80 of 80 fed, every 2nd
        for line in classes:
            p = float(line.split(",")[2])
            assert 0.0 <= p <= 1.0

    def test_whitespace_line_gets_err_frame(self, workdir, capsys, monkeypatch):
        # a blank line is skipped, as ingest skips it; a whitespace-only line
        # is a record that ingest rejects, so the stream answers it
        payload = "0,60,14,0.9,0.1\n\n \t\r\n\r\n30,60,14,0.9,0.1\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
        assert run(["serve", "--model", str(workdir / "model.slpn")]) == 0
        assert capsys.readouterr().out == "err,malformed line: ''\n"

    def test_stdin_pipe_answers_each_line_at_once(self, workdir):
        # a client piping records into `somnoflow serve` reads each frame
        # while its stdin is still open: stdout is block-buffered on a pipe
        # unless PYTHONUNBUFFERED is set, so the child runs without it
        model = sleepnet.load_model(workdir / "model.slpn")
        text = (workdir / "night2.csv").read_text()
        implied = [em.format() + "\n" for em in
                   stream.batch_emissions(model, ingest_epochs(io.StringIO(text)))[0]]
        records = record_lines(text)[1:]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(somnoflow.__file__).resolve().parents[1])]
            + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
        proc = subprocess.Popen(
            [sys.executable, "-m", "somnoflow.cli", "serve", "--model",
             str(workdir / "model.slpn")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            bufsize=0, env=env)

        def next_frame(timeout=30):
            got, deadline = b"", time.monotonic() + timeout
            while not got.endswith(b"\n"):
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(0.0, deadline - time.monotonic()))
                assert ready, f"no frame within {timeout} s; got {got!r}"
                chunk = os.read(proc.stdout.fileno(), 1)
                assert chunk, "serve closed its stdout"
                got += chunk
            return got.decode()

        try:
            # 30 epochs fill the first window
            proc.stdin.write("".join(r + "\n" for r in records[:30]).encode())
            assert next_frame() == implied[0]
            # the second window ends on a record ended by a lone \r, and no
            # byte follows it
            proc.stdin.write((records[30] + "\n" + records[31] + "\r").encode())
            assert next_frame() == implied[1]
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()

    def test_lone_cr_ends_a_line_on_the_wire(self, workdir):
        # a connection wrapped as serve --port wraps one; lines end with a
        # lone \r, a \r\n split across two sends, or \n
        model = sleepnet.load_model(workdir / "model.slpn")
        text = (workdir / "night2.csv").read_text()
        series = ingest_epochs(io.StringIO(text))
        implied = [em.format() + "\n" for em in stream.batch_emissions(model, series)[0]]
        records = record_lines(text)[1:]
        server, client = socket.socketpair()

        def serve():  # as _cmd_serve serves an accepted connection
            with server:
                _serve_connection(model, EventRuleConfig(), server)

        thread = threading.Thread(target=serve)
        thread.start()
        got = b""
        try:
            client.settimeout(30)
            # 30 epochs fill the first window: its frame must come before
            # any byte after the last \r is sent
            client.sendall("".join(r + "\r" for r in records[:30]).encode())
            while not got.endswith(b"\n"):
                chunk = client.recv(1 << 16)
                assert chunk, "the server closed the connection"
                got += chunk
            assert got.decode() == implied[0]
            client.sendall(("\r".join(records[30:400]) + "\r").encode())
            client.sendall(("\n" + "\r\n".join(records[400:]) + "\n").encode())
            client.shutdown(socket.SHUT_WR)
            while chunk := client.recv(1 << 16):
                got += chunk
        finally:
            client.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        frames = got.decode().splitlines(keepends=True)
        # the stream sends the onset when it is final, before later classes
        events = [f for f in implied if f.startswith("event,")]
        assert len(events) == 2
        assert [f for f in frames if f not in events] == implied[:-2]
        assert sorted(frames) == sorted(implied)

    def test_line_reader_splits_as_the_whole_text_splits(self):
        # random byte texts read in random chunks give the lines of the
        # whole text split at each \n and \r, less an empty last one
        rng = np.random.default_rng(5)
        alphabet = np.frombuffer(b"ab \r\n\xff\xc3\xa9", np.uint8)
        for _ in range(500):
            data = rng.choice(alphabet, rng.integers(0, 60)).tobytes()
            cuts = iter(rng.integers(1, 9, size=61))
            source = io.BytesIO(data)
            lines = list(_connection_lines(lambda n: source.read(next(cuts))))
            *want, last = data.replace(b"\r", b"\n").split(b"\n")
            want += [last] * bool(last)
            assert lines == [w.decode(errors="surrogateescape") for w in want]

    def test_line_reader_time_is_linear_in_line_length(self):
        # one 16 MB line against one of 2 MB, read 64 KB at a time: about 8
        # times as long when a line costs linear time, about 50 when every
        # chunk re-split the whole unended line
        def seconds(mb):
            data = b"x" * (mb << 20) + b"\n"
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                lines = list(_connection_lines(io.BytesIO(data).read))
                best = min(best, time.perf_counter() - t0)
            assert [len(line) for line in lines] == [mb << 20]
            return best

        assert seconds(16) / seconds(2) < 20

    def test_non_utf8_byte_gets_err_frame_on_the_wire(self, workdir):
        # a byte that is not UTF-8 gets its line the err frame that serve
        # on stdin sends, and the connection goes on to the lines after it
        model = sleepnet.load_model(workdir / "model.slpn")
        server, client = socket.socketpair()
        raised = []

        def serve():
            with server:
                try:
                    _serve_connection(model, EventRuleConfig(), server)
                except Exception as exc:
                    raised.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        got = b""
        try:
            client.settimeout(30)
            client.sendall(b"0,60,14,0.9,0.1\n\xff\n30,60,14,0.9,0.1\nx\n")
            client.shutdown(socket.SHUT_WR)
            while chunk := client.recv(1 << 16):
                got += chunk
        finally:
            client.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert raised == []
        assert got.decode() == ("err,malformed line: '\\udcff'\n"
                                "err,malformed line: 'x'\n")


def _first_err_row(model, text):
    """The row (the header being row 1) whose line first gets an `err,`
    frame from `_serve_lines` fed the text's lines after the header, one
    per row (`serve` also splits a \\r\\n into a line and a blank one, which
    `_serve_lines` skips), or None when no line gets one."""
    lines = io.StringIO(text, newline=None).readlines()
    current, errs = [None], []

    def numbered():
        for current[0], line in enumerate(lines[1:], start=2):
            yield line

    def write(frame):
        if frame.startswith("err,"):
            errs.append(current[0])

    _serve_lines(model, EventRuleConfig(), numbered(), write)
    return errs[0] if errs else None


def _ingest_err_row(text):
    """The row that ingest_epochs names in its error, or None when it
    accepts the text or rejects it without naming a row (no data rows)."""
    try:
        ingest_epochs(io.StringIO(text))
    except IngestError as exc:
        named = re.match(r"row (\d+): ", str(exc))
        return int(named.group(1)) if named else None
    return None


def _parity_case(text):
    """Whether a fuzzed text is one that files and the wire must judge
    alike: an unlabeled header (the wire carries no label) and no finite
    vital large enough to overflow float32 once z-scored (the file check
    comes later, in infer_hypnogram)."""
    lines = record_lines(text)
    if not lines or [h.strip() for h in lines[0].split(",")] != list(CSV_COLUMNS):
        return False
    for line in lines[1:]:
        for field in line.split(",")[1:5]:
            try:
                value = abs(float(field))
            except ValueError:
                continue
            if math.isfinite(value) and value > 1e30:
                return False
    return True


class TestFileAndWireParity:
    def test_fuzzed_texts_fail_on_the_same_row(self, small_trained):
        rng = np.random.default_rng(20241020)
        cases = mismatches = whitespace_first = accepted = 0
        while cases < 3000:
            pieces = _fuzz_text(rng).split("\n")
            for i in range(len(pieces) - 1, 0, -1):  # whitespace-only lines after the header
                if rng.random() < 0.1:
                    pieces.insert(i, str(rng.choice([" ", "\t", "   ", " \t"])))
            text = "\n".join(pieces)
            if not _parity_case(text):
                continue
            cases += 1
            want = _ingest_err_row(text)
            mismatches += _first_err_row(small_trained[0], text) != want
            if want is None:
                accepted += 1
            elif not record_lines(text)[want - 1].strip():
                whitespace_first += 1
        assert mismatches == 0
        assert 300 < accepted < 2700 and whitespace_first > 100
