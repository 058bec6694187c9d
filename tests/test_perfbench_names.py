"""The benchmark's traced run wraps somnoflow names where their callers look
them up (`perfbench/layers.py`). Installing and removing those wrappers here
makes a rename or deletion of a traced name fail the tests, not only a
`--trace 1` benchmark run."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_install_and_unpatch():
    layers, spantrace = load("layers"), load("spantrace")
    tracer = spantrace.Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
