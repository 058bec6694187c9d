import json
import struct

import numpy as np
import pytest

import somnoflow as sf
from somnoflow.sleepnet import TILE


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
    without its offset, a JSON array of frozen flags, a string or a number
    as a frozen flag), give head 0 a pool width of 3, or make the header
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
    elif case in ("frozen-string", "frozen-number"):
        header["frozen"]["head0.conv"] = "no" if case == "frozen-string" else 0
        raw = json.dumps(header).encode()
    elif case == "pool-width-3":
        header["config"]["heads"][0]["pool_width"] = 3
        raw = json.dumps(header).encode()
    else:
        raw = {"not-json": b"{not json", "not-utf8": b'{"\xff": 1}',
               "not-object": b"[]"}[case]
    path.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + blob[13 + n:])


def tiled_probs(model, z):
    """Final probabilities of a record's windows from its z-scored (5, T)
    epochs, by the tiled definition, position by position: conv position j
    of a head is column j mod TILE of the (5k, TILE) product of the kernel
    with tile j // TILE's im2col columns, read from epochs zero-padded past
    the record's end. batchnorm, relu and maxpool act per position, window w
    reads the pooled positions from w * 2 / pool_width on, and fc1, fc2 and
    the trunk run per window."""
    n_windows = (z.shape[1] - model.config.window_epochs) // 2 + 1
    logits = []
    for head in model.heads:
        k, pool = head.conv.kernel_width, head.pool.pool_width
        n_pos = z.shape[1] - k + 1
        padded = np.pad(z, ((0, 0), (0, TILE + k)))
        weights = head.conv.params["w"].reshape(head.conv.out_channels, -1)
        conv = np.empty((head.conv.out_channels, n_pos), dtype=np.float32)
        products = {}
        for j in range(n_pos):
            t = j // TILE
            if t not in products:
                # column l holds epochs t*TILE + l .. t*TILE + l + k - 1 of each feature
                cols = padded[:, t * TILE + np.arange(k)[:, None] + np.arange(TILE)]
                products[t] = weights @ cols.reshape(-1, TILE)
            conv[:, j] = products[t][:, j % TILE]
        conv += head.conv.params["b"][:, None]
        pooled = head.pool.forward(head.relu1.forward(head.bn.forward(conv[None])))[0]
        shift = 2 // pool
        windows = np.stack([pooled[:, w * shift:w * shift + head.pooled_len]
                            for w in range(n_windows)])
        logits.append(head.classify(windows, train=False))
    return model.fuse(logits)[0].astype(np.float64)


@pytest.fixture(scope="session")
def small_trained():
    """A quickly trained model shared by inference-side tests."""
    windows = make_training_windows(n_subjects=6, limit=2000)
    model, report, normed = train_small_model(windows, n_epochs=12)
    return model, report, normed
