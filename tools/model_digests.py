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
model. Bits are defined per build, so tests/test_golden.py compares the
file with a fresh run on that build only. A change that moves the bits on
purpose rewrites the file and lists each old and new line.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from somnoflow.cli import run
from somnoflow.datapipe import ingest_epochs
from somnoflow.sleepnet import infer_hypnogram, load_model

NIGHT_SEEDS = (1, 2, 3)
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "model_digests.txt"


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


def digest_lines():
    """The two lines of each run, in run order. The caller's SOMNOFLOW_SEED
    must be unset: the seeds are the commands' own."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for seed in NIGHT_SEEDS:
            _run(["synth", "--seed", str(seed), "--out", str(d / f"night{seed}.csv")])
        nights = [ingest_epochs(str(d / f"night{seed}.csv")) for seed in NIGHT_SEEDS]
        for name, argv in commands(d):
            _run(argv)
            out.append(f"{name} {hashlib.sha256((d / name).read_bytes()).hexdigest()}")
            model, scores = load_model(d / name), hashlib.sha256()
            for night in nights:
                scores.update(infer_hypnogram(model, night).probs.astype("<f8").tobytes())
            out.append(f"{name} scores {scores.hexdigest()}")
    return out


def main():
    os.environ.pop("SOMNOFLOW_SEED", None)
    lines = digest_lines()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("\n".join(build_lines() + lines) + "\n")
        print(f"wrote {GOLDEN}")
    elif sys.argv[1:]:
        sys.exit("usage: model_digests.py [--write]")
    else:
        print("\n".join(lines))


if __name__ == "__main__":
    main()
