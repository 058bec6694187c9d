"""Golden outputs, byte for byte, from `tools/model_digests.py`'s runs: the
model files and scores of its six CLI runs against
tests/golden/model_digests.txt, the README's `train` transcript against
train_transcript.txt, the frames `serve` writes for a hostile record
against serve_frames.txt, and what `eval` prints for the trained model on
the nights and their truth events against eval_transcript.txt.

Bits are defined per build (README "Determinism"), so the comparisons with
a fresh run take place only on the build that model_digests.txt names and
skip elsewhere. The README's quoted transcript is text, and is compared on
every build. A change that moves the bits on purpose rewrites the files
with `PYTHONPATH=src python tools/model_digests.py --write`.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "model_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("model_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


@pytest.fixture(scope="module")
def fresh(tool):
    """golden_outputs() of this checkout, on the recorded build only."""
    recorded = tool.GOLDEN.read_text().splitlines()
    build = [line for line in recorded if line.startswith("# ")]
    if build != tool.build_lines():
        pytest.skip(f"golden outputs were made on {build}; this build is {tool.build_lines()}")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SOMNOFLOW_SEED", raising=False)
        return tool.golden_outputs()


def test_model_digests_match_golden_file(tool, fresh):
    recorded = tool.GOLDEN.read_text().splitlines()
    assert fresh[0] == [line for line in recorded if not line.startswith("# ")]


def test_train_transcript_matches_golden_file(tool, fresh):
    assert fresh[1] == tool.TRANSCRIPT.read_text().splitlines()


def test_serve_frames_match_golden_file(tool, fresh):
    assert fresh[2] == tool.SERVE_FRAMES.read_bytes()


def test_eval_transcript_matches_golden_file(tool, fresh):
    assert fresh[3] == tool.EVAL_TRANSCRIPT.read_text()


def test_serve_frames_hold_every_frame_kind(tool):
    # the record's frames include both events, and each hostile line but
    # the blank one gets its err frame: the header and the truncated
    # record, the gap, the NaN vital and the non-UTF-8 byte
    frames = tool.SERVE_FRAMES.read_text().splitlines()
    assert [f.split(",")[1] for f in frames if f.startswith("event,")] == \
        ["sleep_onset", "wake_time"]
    errs = [f for f in frames if f.startswith("err,")]
    assert len(errs) == 5
    assert any("out-of-order" in f for f in errs)
    assert any("invalid feature values" in f for f in errs)
    assert any("\\udcff" in f for f in errs)


def test_readme_train_transcript_matches_golden_file(tool):
    # the README quotes the first run's command and its stdout
    readme = (ROOT / "README.md").read_text()
    argv = tool.commands(Path())[0][1]
    argv[argv.index("--model") + 1] = "model.slpn"
    assert f"somnoflow {' '.join(argv)}\n" in readme
    quoted = re.findall(r"\n```\n(trained on .*?)```", readme, re.S)
    assert len(quoted) == 1
    assert tool.masked(quoted[0]) == tool.TRANSCRIPT.read_text().splitlines()
