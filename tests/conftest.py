import json
import struct

import numpy as np
import pytest

import somnoflow as sf
from somnoflow import events, sleepnet, stream
from somnoflow.datapipe import ECHO_LIMIT
from somnoflow.events import (BinaryHypnogram, Hypnogram, binarize, detect_sleep_time,
                              smooth_probs, suppress_short_runs)
from somnoflow.sleepnet import TILE

# a field of 200,000 digits, which float() reads as inf
HUGE_FIELD = "1" * 200_000


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


def assert_clipped(message, name):
    """message names the row or line (name) and repeats at most ECHO_LIMIT
    characters of a row holding HUGE_FIELD, saying how many it cut."""
    assert name in message
    assert "more characters)" in message
    assert len(message) < ECHO_LIMIT + 100


def corrupt_header(path, case):
    """Rewrite the JSON header of a saved model (magic, version, length and
    payload stay valid): drop one key (`missing-<key>`), empty the tensor
    manifest, give a value the wrong type (an empty config, a manifest entry
    without its offset, a JSON array of frozen flags, a string or a number
    as a frozen flag), give head 0 a pool width of 3 or 0, or make the header
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
    elif case.startswith("pool-width-"):
        header["config"]["heads"][0]["pool_width"] = int(case[len("pool-width-"):])
        raw = json.dumps(header).encode()
    else:
        raw = {"not-json": b"{not json", "not-utf8": b'{"\xff": 1}',
               "not-object": b"[]"}[case]
    path.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + blob[13 + n:])


def resign_header(path, mutate):
    """Rewrite a saved model's header as mutate(header) leaves it, with its
    digest recomputed over the payload and in the canonical JSON, so that
    only a check of the values, or of the whole file against what
    save_model writes, can reject it."""
    blob = path.read_bytes()
    n = struct.unpack("<Q", blob[5:13])[0]
    header, payload = json.loads(blob[13:13 + n]), blob[13 + n:]
    mutate(header)
    header["digest"] = sleepnet._file_digest(header, payload)
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + payload)


def _swap_bn_offsets(header):
    entries = {m["name"]: m for m in header["manifest"]}
    beta, gamma = entries["head0.bn.beta"], entries["head0.bn.gamma"]
    beta["offset"], gamma["offset"] = gamma["offset"], beta["offset"]


# header edits, for resign_header, of files that save_model never writes
HOSTILE_HEADERS = {
    "extra-manifest-entry": lambda h: h["manifest"].append(dict(h["manifest"][0])),
    "extra-frozen-key": lambda h: h["frozen"].update({"trunk.relu0": False}),
    "missing-frozen-key": lambda h: h["frozen"].pop("head0.conv"),
    "string-format-version": lambda h: h.update(format_version="x"),
    "extra-header-key": lambda h: h.update(comment=""),
    "integer-norm-stat": lambda h: h["norm_stats"].update(
        std=[1, *h["norm_stats"]["std"][1:]]),
    "extra-norm-stats-key": lambda h: h["norm_stats"].update(var=h["norm_stats"]["std"]),
    "swapped-bn-offsets": _swap_bn_offsets,
    "n-filters-1e12": lambda h: [head.update(n_filters=10**12)
                                 for head in h["config"]["heads"]],
    "mixed-fc-width": lambda h: h["config"]["heads"][0].update(fc_width=17),
    "float64-dtype": lambda h: h["config"].update(dtype="float64"),
    "window-epochs-1e12": lambda h: h["config"].update(window_epochs=10**12),
    # True equals 1, so on a model of pool width 1 (`pool_width_one`) every
    # shape still holds
    "pool-width-true": lambda h: h["config"]["heads"][0].update(pool_width=True),
    "four-norm-stats": lambda h: h.update(norm_stats={k: v[:4] for k, v in
                                                      h["norm_stats"].items()}),
    # json writes the float inf as Infinity, and reads it back
    "aux-weight-inf": lambda h: h["config"].update(aux_loss_weight=float("inf")),
}


def pool_width_one(model):
    """A model of model's config with every head's pool width 1, freshly
    initialised, with model's normalization statistics."""
    config = sf.ModelConfig.from_dict(model.config.to_dict())
    for head in config.heads:
        head.pool_width = 1
    out = sf.build_model(config)
    out.norm_stats = model.norm_stats
    return out


def tiled_probs(model, z):
    """(final probabilities, (windows, heads) logits) of a record's windows
    from its z-scored (5, T) epochs, by the tiled definition, head by head
    and unpadded: conv position j of a head is column j mod TILE of the
    (5k, TILE) product of the kernel with tile j // TILE's im2col columns,
    read from epochs zero-padded past the record's end. batchnorm, relu and maxpool act per
    position. fc1 of window w is column w mod TILE of the
    (fc, F * pooled_len) product of fc1's weights with tile w // TILE's
    columns: column l holds the pooled positions from (w // TILE * TILE + l)
    * 2 / pool_width on, by channel then tap, read from the pooled sequence
    zero-padded past its end. relu and fc2, a (1, fc) product, act on that
    tile's product, and the trunk runs per window."""
    n_windows = (z.shape[1] - model.config.window_epochs) // 2 + 1
    n_tiles = -(-n_windows // TILE)
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
        pooled = np.pad(pooled, ((0, 0), (0, n_tiles * TILE * shift + head.pooled_len)))
        taps = np.arange(head.pooled_len)[:, None]
        logit = np.empty((n_windows, 1), dtype=np.float32)
        products = {}
        for w in range(n_windows):
            t = w // TILE
            if t not in products:
                # column l holds window t*TILE + l's pooled positions
                cols = pooled[:, (t * TILE + np.arange(TILE)) * shift + taps]
                h = head.fc1.params["w"] @ cols.reshape(-1, TILE) + head.fc1.params["b"][:, None]
                products[t] = (head.fc2.params["w"] @ head.relu2.forward(h)
                               + head.fc2.params["b"][:, None])
            logit[w] = products[t][:, w % TILE]
        logits.append(logit)
    return model.fuse(logits)[0].astype(np.float64), np.concatenate(logits, axis=1)


def final_state_onset(probs, cfg, start=0):
    """The literal final-state onset rule of a growing record: after minute
    n arrives (n >= median_width), smooth and binarize the n minutes, keep
    the settled ones (all but the last median_width // 2), suppress short
    runs there, and drop the last run unless it is the only run, holds
    min_run minutes or the run before it flipped; then run detect_sleep_time
    on what is left. Returns the first n with an onset and that onset's
    timestamp, or None."""
    half = cfg.median_width // 2
    for n in range(cfg.median_width, len(probs) + 1):
        h = Hypnogram(start, np.asarray(probs[:n], dtype=np.float64))
        settled = binarize(smooth_probs(h, cfg.median_width), cfg.threshold).states[:n - half]
        final = suppress_short_runs(BinaryHypnogram(start, settled), cfg.min_run).states
        last = len(settled) - 1
        while last > 0 and settled[last - 1] == settled[last]:
            last -= 1
        if last > 0 and len(settled) - last < cfg.min_run and final[last - 1] == settled[last - 1]:
            final = final[:last]
        onset = detect_sleep_time(BinaryHypnogram(start, final), cfg)
        if onset is not None:
            return n, start + onset * 60
    return None


@pytest.fixture()
def rule_runs(monkeypatch):
    """Lengths of the hypnograms passed to predict_events, through the events
    module (where OnsetWatch would find it) or the stream module."""
    runs, predict = [], events.predict_events

    def counted(h, cfg=None):
        runs.append(len(h))
        return predict(h, cfg)
    monkeypatch.setattr(events, "predict_events", counted)
    monkeypatch.setattr(stream, "predict_events", counted)
    return runs


@pytest.fixture(scope="session")
def small_trained():
    """A quickly trained model shared by inference-side tests."""
    windows = make_training_windows(n_subjects=6, limit=2000)
    model, report, normed = train_small_model(windows, n_epochs=12)
    return model, report, normed
