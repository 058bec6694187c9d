"""Four-head 1D-CNN sleep/wake classifier: build, train, fine-tune, persist.

Each head convolves the 5x30 feature window at its own temporal resolution
(kernel widths 3/5/7/11 by default), then batchnorm -> relu -> maxpool ->
dropout -> a small FC stack ending in a scalar sigmoid: the head's own sleep
probability. The four head probabilities are concatenated and fused by a
shallow FC trunk into the final probability. Training minimizes BCE on the
final output plus a weighted BCE on every head output (deep supervision).

Transfer learning freezes everything except the trunk (optionally also the
heads' FC stacks) and retrains on a cohort's windows.

Training runs windows through `SleepNetModel.forward_batch`. Inference runs
a record through `RecordScorer`, which computes each head's conv, batchnorm,
relu and maxpool once per position of the record, in tiles, and only the FC
layers per window.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass, field, asdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datapipe import EPOCHS_PER_MINUTE, NormStats, make_windows, zscore
from .datapipe import apply_normalizer  # noqa: F401  perfbench/layers.py traces it by this name
from .events import Hypnogram
from .neuralcore import (Adam, BatchNorm1d, ConfigError, Conv1d, Dense, Dropout,
                         MaxPool1d, ReLU, ShapeError, bce_loss, sigmoid)

MODEL_MAGIC = b"SLPN"
MODEL_FORMAT_VERSION = 1
# windows per forward call in _epoch_loss: layers keep their forward caches
# (batchnorm xhat, pool argmax, relu masks), so a whole training set as one
# batch would hold several MB more at peak
INFER_CHUNK = 64
# conv positions per tile in RecordScorer; even, so that no pool pair
# straddles two tiles
TILE = 32
# windows per FC call in RecordScorer: fc1 keeps its input, the windows'
# overlapping pooled slices, about 14 times the record's pooled sequence, so
# one call per 24 h record held 5 MB; 128 also ran faster than 64 or 466
FC_CHUNK = 128
HEADER_KEYS = ("format_version", "config", "frozen", "norm_stats", "manifest", "digest")


class ModelFormatError(ValueError):
    """Model file is not a valid somnoflow model."""


class VersionMismatchError(ModelFormatError):
    pass


class DigestMismatchError(ModelFormatError):
    pass


class TruncatedFileError(ModelFormatError):
    pass


@dataclass
class HeadConfig:
    kernel_width: int = 3
    n_filters: int = 16
    pool_width: int = 2
    dropout_rate: float = 0.3
    fc_width: int = 16


def default_heads():
    return [HeadConfig(kernel_width=k) for k in (3, 5, 7, 11)]


@dataclass
class ModelConfig:
    input_features: int = 5
    window_epochs: int = 30
    heads: list = field(default_factory=default_heads)
    trunk_widths: list = field(default_factory=lambda: [8, 1])
    aux_loss_weight: float = 0.25
    seed: int = 0
    dtype: str = "float32"

    def validate(self):
        if len(self.heads) < 1:
            raise ConfigError("at least one head is required")
        for h in self.heads:
            if h.kernel_width > self.window_epochs:
                raise ConfigError(f"kernel width {h.kernel_width} exceeds "
                                  f"window of {self.window_epochs} epochs")
            if EPOCHS_PER_MINUTE % h.pool_width:
                # scoring takes window t's pooled features as a slice of the
                # record's pooled sequence, which needs whole pool strides
                # per 1-minute shift
                raise ConfigError(f"pool width {h.pool_width} does not divide the "
                                  f"{EPOCHS_PER_MINUTE}-epoch window shift")
        if self.aux_loss_weight < 0:
            raise ConfigError("aux_loss_weight must be >= 0")
        if not self.trunk_widths or self.trunk_widths[-1] != 1:
            raise ConfigError("trunk must end in a single output unit")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["heads"] = [HeadConfig(**h) for h in d["heads"]]
        return cls(**d)


@dataclass
class TrainingHyper:
    lr: float = 1e-3
    batch_size: int = 32
    n_epochs: int = 20
    aux_loss_weight: float | None = None  # None -> model config value
    early_stop_patience: int = 0          # 0 disables early stopping
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.aux_loss_weight is not None and self.aux_loss_weight < 0:
            raise ConfigError("aux_loss_weight must be >= 0")


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    wall_time: float = 0.0
    digest: str = ""


class _Head:
    """One resolution branch: conv -> bn -> relu -> pool -> dropout -> FC -> logit."""

    def __init__(self, index, cfg, model_cfg, rng, dropout_rng, dtype):
        name = f"head{index}"
        self.conv = Conv1d(f"{name}.conv", model_cfg.input_features, cfg.n_filters,
                           cfg.kernel_width, rng=rng, dtype=dtype)
        self.bn = BatchNorm1d(f"{name}.bn", cfg.n_filters, dtype=dtype)
        self.relu1 = ReLU(f"{name}.relu1", dtype=dtype)
        self.pool = MaxPool1d(f"{name}.pool", cfg.pool_width, dtype=dtype)
        self.dropout = Dropout(f"{name}.dropout", cfg.dropout_rate, dropout_rng, dtype=dtype)
        conv_len = model_cfg.window_epochs - cfg.kernel_width + 1
        self.pooled_len = (conv_len - cfg.pool_width) // cfg.pool_width + 1
        self.flat_size = cfg.n_filters * self.pooled_len
        self.fc1 = Dense(f"{name}.fc1", self.flat_size, cfg.fc_width, rng=rng, dtype=dtype)
        self.relu2 = ReLU(f"{name}.relu2", dtype=dtype)
        self.fc2 = Dense(f"{name}.fc2", cfg.fc_width, 1, rng=rng, dtype=dtype)
        self._pre_flat_shape = None

    def param_layers(self):
        return [self.conv, self.bn, self.fc1, self.fc2]

    def features(self, x, train):
        """The per-position layers: conv -> bn -> relu -> pool."""
        z = self.conv.forward(x, train)
        z = self.bn.forward(z, train)
        z = self.relu1.forward(z, train)
        return self.pool.forward(z, train)

    def classify(self, z, train):
        """The per-window layers: (N, F, pooled_len) C-contiguous pooled
        features -> dropout -> fc1 -> relu -> fc2 -> (N, 1) logit."""
        z = self.dropout.forward(z, train)
        self._pre_flat_shape = z.shape
        h = self.fc1.forward(z.reshape(z.shape[0], -1), train)
        h = self.relu2.forward(h, train)
        return self.fc2.forward(h, train)

    def forward(self, x, train):
        return self.classify(self.features(x, train), train)

    def backward(self, dlogit):
        dh = self.fc2.backward(dlogit)
        dh = self.relu2.backward(dh)
        dflat = self.fc1.backward(dh)
        dz = dflat.reshape(self._pre_flat_shape)
        dz = self.dropout.backward(dz)
        dz = self.pool.backward(dz)
        dz = self.relu1.backward(dz)
        dz = self.bn.backward(dz)
        return self.conv.backward(dz)


class SleepNetModel:
    """Built via build_model(); holds all heads, the trunk, and NormStats."""

    def __init__(self, config):
        config.validate()
        self.config = config
        dtype = np.dtype(config.dtype)
        rng = np.random.default_rng(config.seed)
        self.dropout_rng = np.random.default_rng(config.seed + 1)
        self.heads = [_Head(i, hc, config, rng, self.dropout_rng, dtype)
                      for i, hc in enumerate(config.heads)]
        self.trunk = []
        in_width = len(config.heads)
        for i, width in enumerate(config.trunk_widths):
            self.trunk.append(Dense(f"trunk.fc{i}", in_width, width, rng=rng, dtype=dtype))
            if i < len(config.trunk_widths) - 1:
                self.trunk.append(ReLU(f"trunk.relu{i}", dtype=dtype))
            in_width = width
        self.norm_stats = None
        self._cache = None

    # --- structure ----------------------------------------------------------

    def param_layers(self):
        out = []
        for h in self.heads:
            out.extend(h.param_layers())
        out.extend([l for l in self.trunk if l.params])
        return out

    def named_tensors(self):
        """(name, array) pairs in canonical order: params then layer state."""
        out = []
        for layer in self.param_layers():
            for pname in sorted(layer.params):
                out.append((f"{layer.name}.{pname}", layer.params[pname]))
            for sname in sorted(layer.state_tensors()):
                out.append((f"{layer.name}.{sname}", layer.state_tensors()[sname]))
        return out

    def param_count(self):
        return sum(p.size for layer in self.param_layers() for p in layer.params.values())

    def zero_grad(self):
        for layer in self.param_layers():
            layer.zero_grad()

    def snapshot(self):
        return [(name, arr.copy()) for name, arr in self.named_tensors()]

    def restore(self, snap):
        for (name, arr), (sname, sarr) in zip(self.named_tensors(), snap):
            assert name == sname
            arr[...] = sarr

    def digest(self):
        h = hashlib.sha256()
        for name, arr in self.named_tensors():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        return h.hexdigest()

    # --- forward / backward -------------------------------------------------

    def forward_batch(self, x, train=False):
        """x: (N, 5, 30) normalized. Returns (p_final (N,), p_heads (N, H))."""
        x = np.asarray(x, dtype=self.heads[0].conv.dtype)
        if x.ndim != 3 or x.shape[1] != self.config.input_features \
                or x.shape[2] != self.config.window_epochs:
            raise ShapeError(f"expected (N, {self.config.input_features}, "
                             f"{self.config.window_epochs}) input, got {x.shape}")
        logits = [h.forward(x, train) for h in self.heads]   # each (N,1)
        p_final, p_heads = self.fuse(logits, train)
        self._cache = (p_heads, p_final)
        return p_final, p_heads

    def fuse(self, logits, train=False):
        """The trunk over the heads' (N, 1) logits: (p_final (N,), p_heads (N, H))."""
        p_heads = sigmoid(np.concatenate(logits, axis=1))
        t = p_heads
        for layer in self.trunk:
            t = layer.forward(t, train)
        return sigmoid(t[:, 0]), p_heads

    def backward(self, dLdp_final, dLdp_heads, skip_heads=False):
        p_heads, p_final = self._cache
        d_logit = (dLdp_final * p_final * (1.0 - p_final))[:, None]
        dt = d_logit
        for layer in reversed(self.trunk):
            dt = layer.backward(dt)
        dp_heads = dt + dLdp_heads
        if skip_heads:
            return
        d_head_logits = dp_heads * p_heads * (1.0 - p_heads)
        for i, head in enumerate(self.heads):
            head.backward(d_head_logits[:, i:i + 1])

    def set_transfer_freeze(self, include_intermediate_fc=False):
        """Freeze all head parameters; leave the trunk trainable. With
        include_intermediate_fc the heads' FC stacks stay trainable too."""
        for head in self.heads:
            for layer in head.param_layers():
                layer.frozen = True
            if include_intermediate_fc:
                head.fc1.frozen = False
                head.fc2.frozen = False
        for layer in self.trunk:
            layer.frozen = False


def build_model(config=None):
    if config is None:
        config = ModelConfig()
    return SleepNetModel(config)


def forward(model, window, mode="infer"):
    """Classify one FeatureWindow. Returns (p_final, p_heads)."""
    vals = window.values if hasattr(window, "values") else np.asarray(window)
    if hasattr(window, "normalized") and not window.normalized:
        raise ValueError("window must be normalized before inference")
    if vals.shape != (model.config.input_features, model.config.window_epochs):
        raise ShapeError(f"expected ({model.config.input_features}, "
                         f"{model.config.window_epochs}) window, got {vals.shape}")
    p_final, p_heads = model.forward_batch(vals[None], train=(mode == "train"))
    return float(p_final[0]), p_heads[0]


def _prepare_xy(windows, model):
    for w in windows:
        if not w.normalized:
            raise ValueError("training windows must be normalized")
        if w.label is None:
            raise ValueError("training windows must be labeled")
    x = np.stack([w.values for w in windows]).astype(model.heads[0].conv.dtype)
    y = np.array([w.label for w in windows], dtype=np.float64)
    return x, y


def _epoch_loss(model, x, y, aux_weight):
    # INFER_CHUNK windows per forward: at 256, the forward temporaries (1.1 MB
    # of im2col columns for the width-11 head) were mapped afresh on many
    # calls, and a 2-epoch training run took about 2,000 page faults in here
    losses = []
    correct = 0
    for s in range(0, len(x), INFER_CHUNK):
        xb, yb = x[s:s + INFER_CHUNK], y[s:s + INFER_CHUNK]
        p_final, p_heads = model.forward_batch(xb, train=False)
        loss, _ = bce_loss(p_final, yb)
        total = loss.mean()
        for i in range(p_heads.shape[1]):
            lh, _ = bce_loss(p_heads[:, i], yb)
            total += aux_weight * lh.mean()
        losses.append(float(total) * len(xb))
        correct += int(np.sum((p_final >= 0.5) == yb))
    return sum(losses) / len(x), correct / len(x)


def _fit(model, x, y, hyper, train_mode=True, skip_heads=False,
         x_val=None, y_val=None, report=None):
    aux_weight = (model.config.aux_loss_weight if hyper.aux_loss_weight is None
                  else hyper.aux_loss_weight)
    if skip_heads:
        aux_weight = 0.0
    adam = Adam(lr=hyper.lr)
    rng = np.random.default_rng(hyper.seed)
    layers = model.param_layers()
    best = None
    best_loss = np.inf
    since_best = 0
    n = len(x)
    for _ in range(hyper.n_epochs):
        perm = rng.permutation(n)
        for s in range(0, n, hyper.batch_size):
            idx = perm[s:s + hyper.batch_size]
            xb, yb = x[idx], y[idx]
            p_final, p_heads = model.forward_batch(xb, train=train_mode)
            _, g_final = bce_loss(p_final, yb)
            dLdp_final = g_final / len(xb)
            dLdp_heads = np.zeros_like(p_heads)
            if aux_weight > 0:
                for i in range(p_heads.shape[1]):
                    _, gh = bce_loss(p_heads[:, i], yb)
                    dLdp_heads[:, i] = aux_weight * gh / len(xb)
            model.backward(dLdp_final, dLdp_heads, skip_heads=skip_heads)
            adam.step(layers)
            model.zero_grad()
        if report is not None:
            tr_loss, tr_acc = _epoch_loss(model, x, y, aux_weight)
            report.train_loss.append(tr_loss)
            report.train_accuracy.append(tr_acc)
        if x_val is not None:
            v_loss, v_acc = _epoch_loss(model, x_val, y_val, aux_weight)
            if report is not None:
                report.val_loss.append(v_loss)
                report.val_accuracy.append(v_acc)
            if v_loss < best_loss:
                best_loss = v_loss
                best = model.snapshot()
                since_best = 0
            else:
                since_best += 1
                if hyper.early_stop_patience and since_best >= hyper.early_stop_patience:
                    break
    if best is not None:
        model.restore(best)


def train(model, train_windows, val_windows=None, hyper=None):
    """Mini-batch Adam on BCE(final) + aux_weight * sum BCE(head).

    Keeps the best-validation-loss parameters when a validation set is given.
    Raises on a single-class training set.
    """
    if hyper is None:
        hyper = TrainingHyper()
    x, y = _prepare_xy(train_windows, model)
    if len(np.unique(y)) < 2:
        raise ValueError("training set contains a single class only")
    x_val = y_val = None
    if val_windows:
        x_val, y_val = _prepare_xy(val_windows, model)
    report = TrainReport()
    t0 = time.perf_counter()
    _fit(model, x, y, hyper, train_mode=True, x_val=x_val, y_val=y_val, report=report)
    report.wall_time = time.perf_counter() - t0
    report.digest = model.digest()
    return model, report


def finetune_transfer(model, cohort_windows, hyper=None, include_intermediate_fc=False):
    """Retrain the post-concatenation trunk on a cohort; heads stay frozen.

    Heads run in inference mode (running batchnorm stats, no dropout) so every
    frozen tensor, running statistics included, is bit-identical afterwards.
    """
    if not cohort_windows:
        raise ValueError("cohort set is empty")
    if hyper is None:
        hyper = TrainingHyper(n_epochs=5)
    model.set_transfer_freeze(include_intermediate_fc)
    x, y = _prepare_xy(cohort_windows, model)
    skip = not include_intermediate_fc
    _fit(model, x, y, hyper, train_mode=False, skip_heads=skip)
    return model


# --- persistence ------------------------------------------------------------

def save_model(model, path):
    """Container: magic `SLPN`, version byte, 8-byte LE header length, JSON
    header (config, frozen flags, NormStats, tensor manifest, payload digest),
    then raw little-endian float32 tensors in manifest order."""
    tensors = model.named_tensors()
    payload = bytearray()
    manifest = []
    for name, arr in tensors:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload.extend(raw)
    payload = bytes(payload)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "frozen": {l.name: l.frozen for l in model.param_layers()},
        "norm_stats": model.norm_stats.to_dict() if model.norm_stats else None,
        "manifest": manifest,
        "digest": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(bytes([MODEL_FORMAT_VERSION]))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def load_model(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13:
        raise TruncatedFileError(f"file of {len(blob)} bytes is too short for a model header")
    if blob[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic bytes {blob[:4]!r}; expected {MODEL_MAGIC!r}")
    version = blob[4]
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatchError(
            f"unsupported model format version {version}; this build reads "
            f"version {MODEL_FORMAT_VERSION}")
    header_len = struct.unpack("<Q", blob[5:13])[0]
    if len(blob) < 13 + header_len:
        raise TruncatedFileError("file ends inside the header")
    try:
        header = json.loads(blob[13:13 + header_len].decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ModelFormatError(f"model header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ModelFormatError("model header is not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise ModelFormatError(f"model header lacks {', '.join(missing)}")
    try:
        return _model_from_header(header, blob[13 + header_len:])
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a header value of the wrong type, e.g. `"frozen": []` or a config
        # without `heads`
        raise ModelFormatError(f"model header has a malformed value: {exc!r}") from exc


def _model_from_header(header, payload):
    expected = max((m["offset"] + 4 * int(np.prod(m["shape"] or [1])))
                   for m in header["manifest"]) if header["manifest"] else 0
    if len(payload) < expected:
        raise TruncatedFileError(
            f"payload of {len(payload)} bytes, manifest requires {expected}")
    actual_digest = hashlib.sha256(payload).hexdigest()
    if actual_digest != header["digest"]:
        raise DigestMismatchError(
            f"payload digest {actual_digest[:12]}... does not match header "
            f"{header['digest'][:12]}...")

    model = SleepNetModel(ModelConfig.from_dict(header["config"]))
    by_name = {m["name"]: m for m in header["manifest"]}
    for name, arr in model.named_tensors():
        if name not in by_name:
            raise ModelFormatError(f"model header manifest lacks tensor {name}")
        m = by_name[name]
        count = int(np.prod(m["shape"])) if m["shape"] else 1
        raw = np.frombuffer(payload, dtype="<f4", count=count, offset=m["offset"])
        arr[...] = raw.reshape(m["shape"]).astype(arr.dtype)
    for layer in model.param_layers():
        frozen = header["frozen"].get(layer.name, False)
        if not isinstance(frozen, bool):
            raise ModelFormatError(f"model header has a frozen flag {frozen!r} for "
                                   f"{layer.name}; expected true or false")
        layer.frozen = frozen
    if header["norm_stats"] is not None:
        model.norm_stats = NormStats.from_dict(header["norm_stats"])
    return model


class _Columns:
    """Columns [base, base + width) of a (rows, n) sequence that grows at
    the end and is forgotten at the front. Columns not yet written are 0."""

    def __init__(self, rows, dtype):
        self.base = 0
        self.keep = 0   # columns before this one may be dropped
        self.data = np.zeros((rows, 0), dtype=dtype)

    def view(self, start, stop):
        """Columns [start, stop), zeros past the written ones; a view."""
        if stop - self.base > self.data.shape[1]:
            grown = np.zeros((self.data.shape[0], 2 * (stop - self.keep)), self.data.dtype)
            kept = self.data[:, self.keep - self.base:]
            grown[:, :kept.shape[1]] = kept
            self.base, self.data = self.keep, grown
        return self.data[:, start - self.base:stop - self.base]

    def write(self, start, values):
        self.view(start, start + values.shape[1])[...] = values


def _blocks(seq, width, step, count):
    """(rows, count, width) view of column blocks [j*step, j*step + width)
    of a (rows, n) array."""
    if count == 1:  # the stream's case, without sliding_window_view's fixed cost
        return seq[:, None, :width]
    return sliding_window_view(seq, width, axis=1)[:, ::step]


class RecordScorer:
    """Final sleep probability of each 1-minute window of one record, from
    its z-scored (5, n) epochs pushed in pieces of any size: the one
    inference path. `infer_hypnogram` pushes a night at once and the stream
    one record at a time; every split of a record gives the same bits
    (`tests/test_sleepnet.py::TestRecordScorer`).

    A head computes its conv positions in tiles of TILE columns aligned to
    the record's first epoch: tile t holds positions [t*TILE, (t+1)*TILE),
    read from epochs [t*TILE, t*TILE + TILE + k - 1), zero-padded past the
    newest epoch. Conv1d runs each tile as one fixed-shape matmul, and a
    column of such a product does not depend on the other columns, so a
    position comes out the same whether its tile ran on the whole night or
    on the epochs so far. batchnorm, relu and maxpool act per position.
    The 2-epoch window shift is a whole number of pool strides, so window
    w's pooled features are a slice of the record's pooled sequence; only
    fc1 -> fc2 (on C-contiguous copies of those slices, FC_CHUNK windows per
    call) and the trunk run per window. A push recomputes the tile that
    holds a head's newest positions, and the columns keep what later windows
    still need: pooled features from their first window on and z-scored
    epochs from the start of their open tile.
    """

    def __init__(self, model):
        self.model = model
        self.n_epochs = 0
        self.n_windows = 0
        dtype = model.heads[0].conv.dtype
        self._z = _Columns(model.config.input_features, dtype)
        self._pooled = [_Columns(h.conv.out_channels, dtype) for h in model.heads]
        self._done = [0] * len(model.heads)  # conv positions computed, per head

    def push(self, z):
        """Append z-scored (5, n) epochs; returns the (m,) float64 final
        probabilities of the m windows they complete."""
        self._z.write(self.n_epochs, z)
        self.n_epochs += z.shape[1]
        first = self.n_windows
        stop = (self.n_epochs - self.model.config.window_epochs) // EPOCHS_PER_MINUTE + 1
        if stop <= first:
            return np.empty(0)
        logits = [self._head_logits(i, head, first, stop)
                  for i, head in enumerate(self.model.heads)]
        self.n_windows = stop
        self._z.keep = min(done // TILE * TILE for done in self._done)
        return self.model.fuse(logits)[0].astype(np.float64)

    def _head_logits(self, i, head, first, stop):
        k, pool = head.conv.kernel_width, head.pool.pool_width
        positions = self.n_epochs - k + 1
        start = self._done[i] // TILE * TILE
        n_tiles = -(-(positions - start) // TILE)
        x = self._z.view(start, start + n_tiles * TILE + k - 1)
        tiles = _blocks(x, TILE + k - 1, TILE, n_tiles)            # (5, n_tiles, .)
        y = head.features(tiles.transpose(1, 0, 2), train=False)  # (n_tiles, F, .)
        pooled = self._pooled[i]
        pooled.write(start // pool, y.transpose(1, 0, 2).reshape(y.shape[1], -1))
        self._done[i] = positions
        shift = EPOCHS_PER_MINUTE // pool
        seq = pooled.view(first * shift, (stop - 1) * shift + head.pooled_len)
        windows = _blocks(seq, head.pooled_len, shift, stop - first).transpose(1, 0, 2)
        pooled.keep = min(stop * shift, positions // TILE * TILE // pool)
        return np.concatenate([head.classify(np.ascontiguousarray(windows[s:s + FC_CHUNK]),
                                             train=False)
                               for s in range(0, len(windows), FC_CHUNK)])


def infer_hypnogram(model, series):
    """Run the model over a series and return the per-minute Hypnogram.

    Windows of the model's width are cut on a 1-minute stride. The first
    prediction lands on the final minute of the first full window, i.e. 14
    minutes after the series start. Raises ValueError when a z-scored value
    is not finite, i.e. a finite vital lies so far from the training mean
    that it overflows float32.
    """
    if model.norm_stats is None:
        raise ValueError("model has no normalization statistics; train or load first")
    window_epochs = model.config.window_epochs
    if len(series) < window_epochs:
        make_windows(series, window_epochs)  # warns, returns []
        return Hypnogram(start=int(series.timestamps[0]), probs=np.empty(0))
    with np.errstate(over="ignore"):  # reported by the check below
        z = zscore(series.feature_matrix(), model.norm_stats)
    if not np.isfinite(z).all():
        raise ValueError("z-scored features are not finite: a vital is non-finite "
                         "or too far from the training mean for float32")
    return Hypnogram(start=int(series.timestamps[window_epochs - EPOCHS_PER_MINUTE]),
                     probs=RecordScorer(model).push(z))
