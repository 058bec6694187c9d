"""Golden outputs: the model files and scores of `tools/model_digests.py`'s
six CLI runs, against tests/golden/model_digests.txt, byte for byte.

Bits are defined per build (README "Determinism"), so the comparison runs
only on the build that the file names and skips elsewhere. A change that
moves the bits on purpose rewrites the file with
`PYTHONPATH=src python tools/model_digests.py --write`.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "model_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("model_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_model_digests_match_golden_file(monkeypatch):
    tool = load_tool()
    recorded = tool.GOLDEN.read_text().splitlines()
    build = [line for line in recorded if line.startswith("# ")]
    if build != tool.build_lines():
        pytest.skip(f"golden digests were made on {build}; this build is {tool.build_lines()}")
    monkeypatch.delenv("SOMNOFLOW_SEED", raising=False)
    assert tool.digest_lines() == recorded[len(build):]
