import io
import sys

import pytest

from conftest import corrupt_header
from somnoflow.cli import run

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


class TestPipelineChain:
    def test_train_reports_accuracy(self, workdir, capsys):
        # re-check the training output text via a fresh tiny run? reuse model
        assert (workdir / "model.slpn").exists()

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

    def test_plotdata(self, workdir, tmp_path, capsys):
        out = tmp_path / "plot.csv"
        assert run(["plotdata", "--model", str(workdir / "model.slpn"),
                    "--data", str(workdir / "night2.csv"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "minute,timestamp,probability,binarized,truth,event"
        assert len(lines) > 100


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


class TestServe:
    def test_stdin_round(self, workdir, capsys, monkeypatch):
        data = (workdir / "night2.csv").read_text().splitlines()
        # header is not a valid epoch record: expect an err frame, then classes
        payload = "\n".join(data[:81]) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        assert run(["serve", "--model", str(workdir / "model.slpn")]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("err,")
        classes = [l for l in out_lines if l.startswith("class,")]
        assert len(classes) == 26  # epochs 30..80 of 80 fed, every 2nd
        for line in classes:
            p = float(line.split(",")[2])
            assert 0.0 <= p <= 1.0
