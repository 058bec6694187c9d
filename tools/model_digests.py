"""Print the SHA-256 of the model file that each of six fixed CLI training
runs writes, one `<model file> <sha256>` line per run, and after it a
`<model file> scores <sha256>` line: the hash of the float64 bytes of the
probabilities that `infer_hypnogram` gives with that model on each of the
three nights.

    PYTHONPATH=src python tools/model_digests.py
    PYTHONPATH=src python tools/model_digests.py --write

In a temporary directory it synthesizes three nights (seeds 1-3) and runs
four `train` and two `finetune` commands through `somnoflow.cli.run`. A
change meant to keep training or scoring bit for bit should print the same
lines as its parent: run the script on both checkouts and diff the two
outputs.

--write puts the lines in tests/golden/model_digests.txt instead, after
`# ` lines naming the build that made them: numpy version, BLAS and CPU
model. It also writes three more golden files from the same runs:
- train_transcript.txt, the stdout of the first run, which is the README's
  `train` command, with its wall time and model path masked;
- serve_frames.txt, the bytes that `somnoflow serve --model train.slpn`
  writes for `serve_input` of the record `synth --seed 4 --hours 3
  --single-sleep-period`;
- eval_transcript.txt, the stdout of `somnoflow eval --model train.slpn`
  on the three nights against their truth sidecars (`synth --truth-out`),
  whose event counts check how predictions are matched to truths.
Bits are defined per build, so tests/test_golden.py compares the files with
a fresh run only on the build that model_digests.txt names. A change that
moves the bits on purpose rewrites the files and lists each old and new
line.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from somnoflow.cli import run
from somnoflow.datapipe import ingest_epochs, record_lines
from somnoflow.sleepnet import infer_hypnogram, load_model

NIGHT_SEEDS = (1, 2, 3)
SERVE_ARGS = ("--seed", "4", "--hours", "3", "--single-sleep-period")
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN = GOLDEN_DIR / "model_digests.txt"
TRANSCRIPT = GOLDEN_DIR / "train_transcript.txt"
SERVE_FRAMES = GOLDEN_DIR / "serve_frames.txt"
EVAL_TRANSCRIPT = GOLDEN_DIR / "eval_transcript.txt"


def commands(d):
    """(model file, argv) of each run, in run order, with every file in
    directory d: the nights are night1.csv to night3.csv, and the
    fine-tunes start from the first run's train.slpn."""
    nights = [str(d / f"night{seed}.csv") for seed in NIGHT_SEEDS]

    def train(name, *flags, data=nights):
        return name, ["train", "--data", *data, "--model", str(d / name), *flags]

    def finetune(name, *flags):
        return name, ["finetune", "--model", str(d / "train.slpn"), "--data", *nights,
                      "--out", str(d / name), *flags]

    return [
        train("train.slpn", "--seed", "2", "--lr", "0.003"),
        train("single_head.slpn", "--single-head", "--aux-weight", "0", "--epochs", "8"),
        train("no_validation.slpn", "--val-frac", "0", "--epochs", "5"),
        train("two_nights.slpn", "--seed", "7", "--epochs", "12", "--batch-size", "16",
              data=nights[:2]),
        finetune("finetune.slpn"),
        finetune("finetune_fc.slpn", "--unfreeze-intermediate"),
    ]


def _run(argv, stdin=b""):
    """The stdout of cli.run(argv) with the bytes stdin on its stdin; shown,
    and the script ended, if the run fails."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        sys.stderr.write(out.getvalue())
        sys.exit(f"somnoflow {' '.join(argv)} exited {code}")
    return out.getvalue()


def masked(transcript):
    """The lines of a `train` report with the parts that vary from run to
    run masked: the wall time as `in <t>s` and the model path as
    `written to <model>`."""
    text = re.sub(r" in [0-9.]+s ", " in <t>s ", transcript)
    return re.sub(r" written to .*", " written to <model>", text).splitlines()


def serve_input(csv_text):
    """The bytes a client sends `serve` for a record's CSV text: every line,
    the header first, which the stream answers as a malformed line. The
    lines end with \\n, \\r and \\r\\n in turn, and after data rows 50, 100,
    150, 200 and 250 comes one hostile line each: a truncated record, the
    next record 30 s late (a gap of one epoch), the next record with a NaN
    heart rate, a byte that is not UTF-8, and a blank line. Each hostile line
    gets an `err,` frame, or none when blank, and the stream goes on."""
    lines = [line.encode() for line in record_lines(csv_text)]
    out = []
    for i, line in enumerate(lines):
        out.append(line + (b"\n", b"\r", b"\r\n")[i % 3])
        if i + 1 < len(lines) and i in (50, 100, 150, 200, 250):
            ts, hr, *rest = lines[i + 1].split(b",")
            out.append({50: b",".join([ts, hr]),
                        100: b",".join([str(int(ts) + 30).encode(), hr, *rest]),
                        150: b",".join([ts, b"nan", *rest]),
                        200: ts + b",\xff",
                        250: b""}[i] + b"\n")
    return b"".join(out)


def build_lines():
    """`# ` lines naming this build: numpy version, BLAS name and version,
    CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return [f"# numpy {np.__version__}", f"# blas {blas}", f"# cpu {cpu}"]


def golden_outputs():
    """(digest lines, masked train transcript lines, serve frame bytes, eval
    transcript) of the runs: the two digest lines of each run in run order,
    the first run's stdout, what `serve` writes with its model, and what
    `eval` prints for it on the nights and their truth sidecars. The
    caller's SOMNOFLOW_SEED must be unset: the seeds are the commands'
    own."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for seed in NIGHT_SEEDS:
            _run(["synth", "--seed", str(seed), "--out", str(d / f"night{seed}.csv"),
                  "--truth-out", str(d / f"truth{seed}.csv")])
        nights = [ingest_epochs(str(d / f"night{seed}.csv")) for seed in NIGHT_SEEDS]
        transcripts = []
        for name, argv in commands(d):
            transcripts.append(_run(argv))
            lines.append(f"{name} {hashlib.sha256((d / name).read_bytes()).hexdigest()}")
            model, scores = load_model(d / name), hashlib.sha256()
            for night in nights:
                scores.update(infer_hypnogram(model, night).probs.astype("<f8").tobytes())
            lines.append(f"{name} scores {scores.hexdigest()}")
        _run(["synth", *SERVE_ARGS, "--out", str(d / "serve.csv")])
        frames = _run(["serve", "--model", str(d / "train.slpn")],
                      serve_input((d / "serve.csv").read_text()))
        evals = _run(["eval", "--model", str(d / "train.slpn"),
                      "--data", *[str(d / f"night{seed}.csv") for seed in NIGHT_SEEDS],
                      "--truth-events", *[str(d / f"truth{seed}.csv") for seed in NIGHT_SEEDS]])
    return lines, masked(transcripts[0]), frames.encode(), evals


def main():
    os.environ.pop("SOMNOFLOW_SEED", None)
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit("usage: model_digests.py [--write]")
    lines, transcript, frames, evals = golden_outputs()
    if sys.argv[1:] == ["--write"]:
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN.write_text("\n".join(build_lines() + lines) + "\n")
        TRANSCRIPT.write_text("\n".join(transcript) + "\n")
        SERVE_FRAMES.write_bytes(frames)
        EVAL_TRANSCRIPT.write_text(evals)
        print(f"wrote {GOLDEN}, {TRANSCRIPT.name}, {SERVE_FRAMES.name} "
              f"and {EVAL_TRANSCRIPT.name}")
    else:
        print("\n".join(lines))


if __name__ == "__main__":
    main()
