import json
import struct

import pytest

import somnoflow as sf


def make_training_windows(n_subjects=3, hours=8.0, first_seed=0, limit=None,
                          balance_seed=0):
    series = [sf.synth_generate(sf.SynthConfig(seed=first_seed + s, hours=hours,
                                               subject_id=f"subject{s}"))
              for s in range(n_subjects)]
    windows = sf.build_training_set(series, context_hours=1, seed=balance_seed)
    if limit:
        windows = windows[:limit]
    return windows


def train_small_model(windows, model_seed=3, n_epochs=6, train_seed=0, config=None):
    stats = sf.fit_normalizer(windows)
    normed = [sf.apply_normalizer(w, stats) for w in windows]
    if config is None:
        config = sf.ModelConfig(seed=model_seed)
    model = sf.build_model(config)
    model.norm_stats = stats
    model, report = sf.train(model, normed, None,
                             sf.TrainingHyper(n_epochs=n_epochs, seed=train_seed))
    return model, report, normed


def corrupt_header(path, case):
    """Rewrite the JSON header of a saved model (magic, version, length and
    payload stay valid): drop one key (`missing-<key>`), empty the tensor
    manifest, give a value the wrong type (an empty config, a manifest entry
    without its offset, a JSON array of frozen flags), or make the header
    invalid JSON, invalid UTF-8 or a JSON array."""
    blob = path.read_bytes()
    n = struct.unpack("<Q", blob[5:13])[0]
    header = json.loads(blob[13:13 + n])
    if case.startswith("missing-"):
        del header[case[len("missing-"):]]
        raw = json.dumps(header).encode()
    elif case == "empty-manifest":
        raw = json.dumps({**header, "manifest": []}).encode()
    elif case == "empty-config":
        raw = json.dumps({**header, "config": {}}).encode()
    elif case == "manifest-entry-without-offset":
        del header["manifest"][0]["offset"]
        raw = json.dumps(header).encode()
    elif case == "frozen-array":
        raw = json.dumps({**header, "frozen": []}).encode()
    else:
        raw = {"not-json": b"{not json", "not-utf8": b'{"\xff": 1}',
               "not-object": b"[]"}[case]
    path.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + blob[13 + n:])


@pytest.fixture(scope="session")
def small_trained():
    """A quickly trained model shared by inference-side tests."""
    windows = make_training_windows(n_subjects=6, limit=2000)
    model, report, normed = train_small_model(windows, n_epochs=12)
    return model, report, normed
