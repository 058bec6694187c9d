"""Print the SHA-256 of the model file that each of six fixed CLI training
runs writes, one `<model file> <sha256>` line per run, and after it a
`<model file> scores <sha256>` line: the hash of the float64 bytes of the
probabilities that `infer_hypnogram` gives with that model on each of the
three nights.

    PYTHONPATH=src python tools/model_digests.py

In a temporary directory it synthesizes three nights (seeds 1-3) and runs
four `train` and two `finetune` commands through `somnoflow.cli.run`. A
change meant to keep training or scoring bit for bit should print the same
lines as its parent: run the script on both checkouts and diff the two
outputs.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from somnoflow.cli import run
from somnoflow.datapipe import ingest_epochs
from somnoflow.sleepnet import infer_hypnogram, load_model

NIGHT_SEEDS = (1, 2, 3)


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


def _run(argv):
    """cli.run(argv) with its report held back, since it holds wall times;
    shown, and the script ended, if the run fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    if code != 0:
        sys.stderr.write(out.getvalue())
        sys.exit(f"somnoflow {' '.join(argv)} exited {code}")


def main():
    os.environ.pop("SOMNOFLOW_SEED", None)  # the seeds are the commands' own
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for seed in NIGHT_SEEDS:
            _run(["synth", "--seed", str(seed), "--out", str(d / f"night{seed}.csv")])
        nights = [ingest_epochs(str(d / f"night{seed}.csv")) for seed in NIGHT_SEEDS]
        for name, argv in commands(d):
            _run(argv)
            print(name, hashlib.sha256((d / name).read_bytes()).hexdigest(), flush=True)
            model, scores = load_model(d / name), hashlib.sha256()
            for night in nights:
                scores.update(infer_hypnogram(model, night).probs.astype("<f8").tobytes())
            print(name, "scores", scores.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
