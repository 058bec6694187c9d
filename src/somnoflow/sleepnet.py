"""Four-head 1D-CNN sleep/wake classifier: build, train, fine-tune, persist.

Each head convolves the 5x30 feature window at its own temporal resolution
(kernel widths 3/5/7/11 by default), then batchnorm -> relu -> maxpool ->
dropout -> a small FC stack ending in a scalar sigmoid: the head's own sleep
probability. The four head probabilities are concatenated and fused by a
shallow FC trunk into the final probability. Training minimizes BCE on the
final output plus a weighted BCE on every head output (deep supervision).

Transfer learning freezes everything except the trunk (optionally also the
heads' FC stacks) and retrains on a cohort's windows. The frozen part runs
once per call, over the whole cohort; each step runs only the trainable
layers above it, and backward stops at the lowest trainable layer.

`train` and `finetune_transfer` share one mini-batch loop, `_fit`, and
differ in the forward they give it: a training step runs windows through
`SleepNetModel.forward_batch`, which calls the layers, each keeping what
its backward reads. A frozen layer's backward takes no gradient, and Adam
steps only the others. The eval passes over windows, which backward never
follows, run the heads through `SleepNetModel.eval_heads` instead: the
per-epoch and final scoring in `train`, one pass each, and the frozen part
of `finetune_transfer`. Inference runs a record
through `RecordScorer`, which stacks the heads' weights once and runs the
network as convolutions over the record: conv, batchnorm, relu and maxpool
for all heads in one pass per tile of positions, then fc1 and fc2, a
window's slice of the pooled sequence being im2col columns, as one batched
product per tile of windows, and the trunk per window. Both call the
`neuralcore` functions that the layers' forward methods are built on, so
they write nothing to a head's layers.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .datapipe import EPOCHS_PER_MINUTE, NormStats, make_windows, zscore
from .datapipe import apply_normalizer  # noqa: F401  perfbench/layers.py traces it by this name
from .events import Hypnogram
from .neuralcore import (Adam, BatchNorm1d, ConfigError, Conv1d, Dense, Dropout,
                         MaxPool1d, ReLU, ShapeError, batchnorm, bce_grad, bce_loss,
                         bn_inv_std, conv1d, dense, im2col, maxpool1d, relu, sigmoid)

MODEL_MAGIC = b"SLPN"
MODEL_FORMAT_VERSION = 2
# conv positions per tile in RecordScorer; even, so that no pool pair
# straddles two tiles
TILE = 32
# windows per eval-mode pass of the heads, a multiple of TILE: eval_heads'
# chunk, and RecordScorer's fc pass, whose conv pass covers the epochs that
# fc pass reads. A pass's temporaries stay small: 128 windows' fc1 input,
# the windows' overlapping pooled slices, is about 460 KB for the default
# model, and the width-11 head's im2col columns in eval_heads about 563 KB
PASS_WINDOWS = 128
FINETUNE_EPOCHS = 5  # finetune_transfer's epochs when it is given no TrainingHyper
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
        sizes = {"input_features": self.input_features, "window_epochs": self.window_epochs}
        for i, h in enumerate(self.heads):
            for name in ("kernel_width", "n_filters", "pool_width", "fc_width"):
                sizes[f"heads[{i}].{name}"] = getattr(h, name)
        for i, width in enumerate(self.trunk_widths):
            sizes[f"trunk_widths[{i}]"] = width
        for name, size in sizes.items():
            if not isinstance(size, int) or isinstance(size, bool):
                raise ConfigError(f"{name} must be an int, got {size!r}")
            if size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
        # heads differ only in the resolution they read a window at, their
        # kernel width; RecordScorer stacks them as one
        for name in ("n_filters", "pool_width", "fc_width"):
            values = [getattr(h, name) for h in self.heads]
            if len(set(values)) > 1:
                raise ConfigError(f"heads differ in {name} {values}; they may differ "
                                  f"in kernel width only")
        pool, k_max = self.heads[0].pool_width, max(h.kernel_width for h in self.heads)
        if self.window_epochs - k_max + 1 < pool:
            raise ConfigError(f"kernel width {k_max} and pool width {pool} leave no "
                              f"pooled position in a window of {self.window_epochs} epochs")
        if EPOCHS_PER_MINUTE % pool:
            # scoring takes window t's pooled features as a slice of the
            # record's pooled sequence, which needs whole pool strides per
            # 1-minute shift
            raise ConfigError(f"pool width {pool} does not divide the "
                              f"{EPOCHS_PER_MINUTE}-epoch window shift")
        if not 0 <= self.aux_loss_weight < float("inf"):  # rejects NaN as well
            raise ConfigError(f"aux_loss_weight must be finite and >= 0, "
                              f"got {self.aux_loss_weight}")
        if not self.trunk_widths or self.trunk_widths[-1] != 1:
            raise ConfigError("trunk must end in a single output unit")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")

    def n_values(self):
        """The number of float32 values in a model file of this config, the
        sizes of SleepNetModel.named_tensors counted without building it."""
        n, width = 0, len(self.heads)
        for h in self.heads:
            pooled_len = (self.window_epochs - h.kernel_width + 1) // h.pool_width
            # conv w and b; bn gamma, beta, running mean and var
            n += h.n_filters * (self.input_features * h.kernel_width + 5)
            n += (h.n_filters * pooled_len + 2) * h.fc_width + 1  # fc1 w, b; fc2 w, b
        for w in self.trunk_widths:
            n += (width + 1) * w
            width = w
        return n

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
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.n_epochs < 0:
            raise ConfigError(f"n_epochs must be >= 0, got {self.n_epochs}")
        if not 0.0 < self.lr < float("inf"):  # rejects NaN as well
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class TrainReport:
    """What `train` says of the model it returns: the epoch it kept
    (1-based), that model's accuracy on the training windows and on the
    validation windows (None without them), the seconds `train` took and
    the model's digest."""
    best_epoch: int
    train_accuracy: float
    val_accuracy: float | None
    wall_time: float
    digest: str


class _Head:
    """One resolution branch: conv -> bn -> relu -> pool -> dropout -> FC -> logit."""

    def __init__(self, index, cfg, model_cfg, rng, dropout_rng, dtype):
        name = f"head{index}"
        self.conv = Conv1d(f"{name}.conv", model_cfg.input_features, cfg.n_filters,
                           cfg.kernel_width, rng=rng, dtype=dtype)
        self.bn = BatchNorm1d(f"{name}.bn", cfg.n_filters, dtype=dtype)
        self.relu1 = ReLU(f"{name}.relu1")
        self.pool = MaxPool1d(f"{name}.pool", cfg.pool_width)
        self.dropout = Dropout(f"{name}.dropout", cfg.dropout_rate, dropout_rng)
        conv_len = model_cfg.window_epochs - cfg.kernel_width + 1
        self.pooled_len = (conv_len - cfg.pool_width) // cfg.pool_width + 1
        self.flat_size = cfg.n_filters * self.pooled_len
        self.fc1 = Dense(f"{name}.fc1", self.flat_size, cfg.fc_width, rng=rng, dtype=dtype)
        self.relu2 = ReLU(f"{name}.relu2")
        self.fc2 = Dense(f"{name}.fc2", cfg.fc_width, 1, rng=rng, dtype=dtype)

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
        h = self.fc1.forward(z.reshape(z.shape[0], -1), train)
        h = self.relu2.forward(h, train)
        return self.fc2.forward(h, train)

    def forward(self, x, train):
        return self.classify(self.features(x, train), train)

    def backward(self, dlogit):
        """Backward from the (N, 1) logit down to the lowest trainable layer:
        a head whose layers are all frozen gets none, and one with frozen conv
        and bn stops at fc1."""
        if all(layer.frozen for layer in self.param_layers()):
            return
        dh = self.fc2.backward(dlogit)
        dh = self.relu2.backward(dh)
        dflat = self.fc1.backward(dh)
        if self.conv.frozen and self.bn.frozen:
            return
        dz = dflat.reshape(len(dflat), self.conv.out_channels, self.pooled_len)
        dz = self.dropout.backward(dz)
        dz = self.pool.backward(dz)
        dz = self.relu1.backward(dz)
        dz = self.bn.backward(dz)
        self.conv.backward(dz)


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
                self.trunk.append(ReLU(f"trunk.relu{i}"))
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
        x = self.check_input(x)
        return self.fuse([h.forward(x, train) for h in self.heads])

    def eval_heads(self, x, features=False):
        """The heads in eval mode over windows x (N, 5, 30), PASS_WINDOWS at
        a time: the (N, H) head probabilities, or with features each head's
        (N, F, pooled_len) pooled features. Bit for bit forward_batch's
        p_heads and `_Head.features` in eval mode, through the `neuralcore`
        functions that the layers call, as RecordScorer runs them, with
        batchnorm's float ops done in place on the chunk: nothing is cached
        and nothing on the model is written. Each head's conv
        bias and batchnorm mean, inverse std, gamma and beta are passed as
        C-contiguous (channels, conv length) planes, as in RecordScorer,
        built here from the current tensors, which train, restore and
        load_model write in place."""
        x = self.check_input(x)
        out = []
        for h in self.heads:
            conv_len = self.config.window_epochs - h.conv.kernel_width + 1
            b, mean, inv_std, gamma, beta = (np.repeat(v[:, None], conv_len, axis=1) for v in (
                h.conv.params["b"], h.bn.running_mean, bn_inv_std(h.bn.running_var),
                h.bn.params["gamma"], h.bn.params["beta"]))
            chunks = []
            for s in range(0, len(x), PASS_WINDOWS):
                y = conv1d(im2col(x[s:s + PASS_WINDOWS], h.conv.kernel_width),
                           h.conv.params["w"], b)
                # batchnorm's products and sum, in place: gamma * xhat is
                # xhat * gamma, as IEEE multiplication commutes
                y -= mean
                y *= inv_std
                y *= gamma
                y += beta
                z = maxpool1d(relu(y, out=y)[1], h.pool.pool_width)
                if not features:
                    z = dense(z.reshape(len(z), -1), h.fc1.params["w"], h.fc1.params["b"])
                    z = dense(relu(z, out=z)[1], h.fc2.params["w"], h.fc2.params["b"])
                chunks.append(z)
            out.append(np.concatenate(chunks))
        return out if features else sigmoid(np.concatenate(out, axis=1))

    def check_input(self, x):
        """x as the heads' dtype; ShapeError unless it is (N, 5, 30)."""
        x = np.asarray(x, dtype=self.heads[0].conv.dtype)
        if x.ndim != 3 or x.shape[1] != self.config.input_features \
                or x.shape[2] != self.config.window_epochs:
            raise ShapeError(f"expected (N, {self.config.input_features}, "
                             f"{self.config.window_epochs}) input, got {x.shape}")
        return x

    def fuse(self, logits):
        """The trunk over the heads' (N, 1) logits: (p_final (N,), p_heads (N, H))."""
        p_heads = sigmoid(np.concatenate(logits, axis=1))
        return self.trunk_forward(p_heads), p_heads

    def trunk_forward(self, p_heads):
        """The trunk over the heads' (N, H) probabilities: p_final (N,)."""
        t = p_heads
        for layer in self.trunk:
            t = layer.forward(t)
        p_final = sigmoid(t[:, 0])
        self._cache = (p_heads, p_final)
        return p_final

    def backward(self, dLdp_final, dLdp_heads):
        """Backward from the losses' gradients wrt the last forward's p_final
        and p_heads, through the trunk and into each head as far down as it
        has a trainable layer (`_Head.backward`; a head with every layer
        frozen takes none). It stops after the trunk when dLdp_heads is
        None, which `_fit` passes when no head layer trains, as fine-tuning
        freezes them."""
        p_heads, p_final = self._cache
        dt = (dLdp_final * p_final * (1.0 - p_final))[:, None]
        for layer in reversed(self.trunk):
            dt = layer.backward(dt)
        if dLdp_heads is None:
            return
        dp_heads = dt + dLdp_heads
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


def _prepare_xy(windows, model):
    for w in windows:
        if not w.normalized:
            raise ValueError("training windows must be normalized")
        if w.label is None:
            raise ValueError("training windows must be labeled")
    x = np.stack([w.values for w in windows]).astype(model.heads[0].conv.dtype, copy=False)
    # a NaN or inf would make every loss NaN: a validation set's would keep
    # the last epoch unannounced, a training set's fail Adam's gradient check
    finite = np.isfinite(x.reshape(len(x), -1)).all(axis=1)
    if not finite.all():
        raise ValueError(f"training window {np.argmin(finite)} holds a NaN or inf")
    y = np.array([w.label for w in windows], dtype=np.float64)
    return x, y


def _objective(p_final, p_heads, y, aux_weight):
    """The training objective BCE(final) + aux_weight * sum BCE(head), each
    BCE averaged over the batch."""
    n = len(y)
    total = bce_loss(p_final, y).sum() / n
    if aux_weight == 0:  # the head terms add no loss
        return float(total)
    loss = bce_loss(p_heads, y[:, None])
    for i in range(p_heads.shape[1]):
        total += aux_weight * (loss[:, i].sum() / n)
    return float(total)


def _objective_grads(p_final, p_heads, y, aux_weight, into_heads=True):
    """The training objective's (dL/dp_final, dL/dp_heads), without the loss
    that a step does not read; dL/dp_heads is None unless into_heads, for a
    backward that stops after the trunk."""
    n = len(y)
    grad = bce_grad(p_final, y) / n
    if not into_heads:
        return grad, None
    if aux_weight == 0:  # 0 * grad would be -0.0 where grad < 0
        return grad, np.zeros_like(p_heads)
    return grad, aux_weight * bce_grad(p_heads, y[:, None]) / n


def _epoch_loss(model, x, y, aux_weight):
    """(objective, accuracy) of the model in eval mode on windows x, in one
    pass over all of them."""
    p_heads = model.eval_heads(x)
    p_final = model.trunk_forward(p_heads)
    return (_objective(p_final, p_heads, y, aux_weight),
            int(np.sum((p_final >= 0.5) == y)) / len(x))


def _fit(model, forward, y, hyper):
    """Mini-batch Adam on the objective, with the config's aux_loss_weight,
    over the len(y) examples, shuffled each epoch by a generator seeded
    with hyper.seed: per mini-batch of
    indices idx, forward(idx) -> (p_final, p_heads), backward, one Adam
    step. Yields each epoch's number, from 1, after its steps."""
    adam = Adam(model.param_layers(), lr=hyper.lr)
    # once per fit, what each step would redo: the labels in the heads'
    # dtype, as bce_grad casts them, and, since the frozen set is fixed for
    # the Adam's life, whether backward goes past the trunk
    y = y.astype(model.heads[0].conv.dtype)
    into_heads = not all(layer.frozen for head in model.heads for layer in head.param_layers())
    aux_weight = model.config.aux_loss_weight
    rng = np.random.default_rng(hyper.seed)
    for epoch in range(1, hyper.n_epochs + 1):
        perm = rng.permutation(len(y))
        for s in range(0, len(y), hyper.batch_size):
            idx = perm[s:s + hyper.batch_size]
            p_final, p_heads = forward(idx)
            model.backward(*_objective_grads(p_final, p_heads, y[idx], aux_weight, into_heads))
            adam.step()
        yield epoch


def train(model, train_windows, val_windows=None, hyper=None):
    """Mini-batch Adam on BCE(final) + aux_weight * sum BCE(head).

    With validation windows, scores them after every epoch and keeps the
    epoch of the lowest validation loss; without them, or when no
    validation loss is finite, keeps the last epoch. Scores the training
    windows once, with the kept parameters, for the report.
    Raises on a single-class training set and on fewer than one epoch.
    """
    if hyper is None:
        hyper = TrainingHyper()
    if hyper.n_epochs < 1:
        raise ConfigError(f"training needs n_epochs >= 1, got {hyper.n_epochs}")
    x, y = _prepare_xy(train_windows, model)
    if len(np.unique(y)) < 2:
        raise ValueError("training set contains a single class only")
    x_val = y_val = None
    if val_windows:
        x_val, y_val = _prepare_xy(val_windows, model)
    t0 = time.perf_counter()
    aux_weight = model.config.aux_loss_weight
    best, best_loss, best_epoch, val_accuracy = None, np.inf, hyper.n_epochs, None
    for epoch in _fit(model, lambda idx: model.forward_batch(x[idx], train=True), y, hyper):
        if x_val is not None:
            v_loss, v_acc = _epoch_loss(model, x_val, y_val, aux_weight)
            if v_loss < best_loss:
                best, best_loss, best_epoch = model.snapshot(), v_loss, epoch
            if epoch == best_epoch:
                val_accuracy = v_acc
    if best is not None:
        model.restore(best)
    _, train_accuracy = _epoch_loss(model, x, y, aux_weight)
    return model, TrainReport(best_epoch, train_accuracy, val_accuracy,
                              time.perf_counter() - t0, model.digest())


def finetune_transfer(model, cohort_windows, hyper=None, include_intermediate_fc=False):
    """Retrain the post-concatenation trunk on a cohort; heads stay frozen.

    Heads run in inference mode (running batchnorm stats, no dropout) so every
    frozen tensor, running statistics included, is bit-identical afterwards.
    A window's output does not depend on its batch, so the frozen part runs
    once per call, not once per epoch, as `SleepNetModel.eval_heads`: it
    gives the heads' probabilities, or with include_intermediate_fc each
    head's pooled features, and writes nothing to a layer. Each step then
    runs the trainable layers above them on its mini-batch, backward stops
    at the lowest of them, and Adam updates only those layers. The
    objective is training's, with the config's aux_loss_weight; with every
    head layer frozen its head terms reach no trainable layer, so `_fit`
    takes no gradient for them. Raises before changing the model on windows
    that are empty, unlabeled, not normalized or not finite, or of the
    wrong shape.
    """
    if not cohort_windows:
        raise ValueError("cohort set is empty")
    if hyper is None:
        hyper = TrainingHyper(n_epochs=FINETUNE_EPOCHS)
    x, y = _prepare_xy(cohort_windows, model)
    # before the freeze, so that windows of the wrong shape leave the model as it was
    frozen = model.eval_heads(x, features=include_intermediate_fc)
    model.set_transfer_freeze(include_intermediate_fc)
    if include_intermediate_fc:
        def forward(idx):
            return model.fuse([h.classify(z[idx], train=False)
                               for h, z in zip(model.heads, frozen)])
    else:
        def forward(idx):
            p_heads = frozen[idx]
            return model.trunk_forward(p_heads), p_heads
    for _ in _fit(model, forward, y, hyper):
        pass
    return model


# --- persistence ------------------------------------------------------------

def save_model(model, path):
    """Write `_encode(model)` to path; a model `_encode` refuses leaves no
    file."""
    blob = _encode(model)
    with open(path, "wb") as fh:
        fh.write(blob)


def _encode(model):
    """The bytes of a model file. Container: magic `SLPN`, version byte,
    8-byte LE header length, JSON header (config, frozen flags, NormStats,
    tensor manifest, digest), then raw little-endian float32 tensors in
    manifest order. The digest covers the rest of the header and the
    payload (`_file_digest`). load_model accepts a file only if it is these
    bytes for the model it describes. Raises ValueError for a model that is
    not float32, whose tensors the file would round."""
    if model.config.dtype != "float32":
        raise ValueError(f"a model file holds float32 tensors; this model is "
                         f"{model.config.dtype}")
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
    }
    header["digest"] = _file_digest(header, payload)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return (MODEL_MAGIC + bytes([MODEL_FORMAT_VERSION])
            + struct.pack("<Q", len(header_bytes)) + header_bytes + payload)


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
        model = _model_from_header(header, blob[13 + header_len:])
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        # a header value of the wrong type, e.g. `"frozen": []`, a config
        # without `heads` or a NaN kernel width (OverflowError in rng.uniform)
        raise ModelFormatError(f"model header has a malformed value: {exc!r}") from exc
    # the one rule, which covers what the digest cannot: the manifest, the
    # flags, the payload's length, each digit of the header
    if _encode(model) != blob:
        raise ModelFormatError("model file is not what save_model writes for the "
                               "model its header describes")
    return model


def _file_digest(header, payload):
    """SHA-256 of the header's canonical JSON without its digest, then the
    payload: a changed config value fails it as a changed weight does."""
    rest = {key: value for key, value in header.items() if key != "digest"}
    h = hashlib.sha256(json.dumps(rest, sort_keys=True).encode())
    h.update(payload)
    return h.hexdigest()


def _model_from_header(header, payload):
    config = ModelConfig.from_dict(header["config"])
    config.validate()
    if config.dtype != "float32":
        raise ModelFormatError(f"model header config dtype {config.dtype!r}; a model file "
                               f"holds float32 only")
    n_values = config.n_values()
    # before SleepNetModel allocates: a config of 10^12 filters is refused
    # here rather than by a MemoryError
    if len(payload) < 4 * n_values:
        raise TruncatedFileError(
            f"model payload of {len(payload)} bytes; its config needs {4 * n_values}")
    model = SleepNetModel(config)
    tensors = model.named_tensors()
    flat = np.frombuffer(payload, dtype="<f4", count=n_values)
    parts = np.split(flat, np.cumsum([arr.size for _, arr in tensors])[:-1])
    for (_, arr), part in zip(tensors, parts):
        arr[...] = part.reshape(arr.shape)
    for layer in model.param_layers():
        # a flag that is not a bool makes the file differ from _encode's
        layer.frozen = header["frozen"].get(layer.name) is True
    if header["norm_stats"] is not None:
        stats = NormStats.from_dict(header["norm_stats"])
        # a NaN, infinite, zero or negative value here would pass every
        # vitals check and then corrupt or mirror a normalized feature
        shape = (config.input_features,)
        if not (stats.mean.shape == stats.std.shape == shape
                and np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()
                and (stats.std > 0).all()):
            raise ModelFormatError(f"model header norm_stats need {shape[0]} finite means "
                                   f"and {shape[0]} finite stds > 0")
        model.norm_stats = stats
    # last, so that a malformed header gets its own error
    actual_digest = _file_digest(header, payload)
    if actual_digest != header["digest"]:
        raise DigestMismatchError(
            f"file digest {actual_digest[:12]}... does not match header "
            f"{str(header['digest'])[:12]}...")
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

    def buffer(self, start, stop):
        """(data, byte offset of column start in it), columns [start, stop)
        made to exist: what np.ndarray needs to view them. An np.ndarray
        view costs a seventh of as_strided, and raises if it would reach
        past data."""
        self.view(start, stop)
        return self.data, (start - self.base) * self.data.itemsize


class RecordScorer:
    """Final sleep probability of each 1-minute window of one record, from
    its z-scored (5, n) epochs pushed in pieces of any size: the one
    inference path. `infer_hypnogram` pushes a night at once and the stream
    one record at a time; every split of a record gives the same bits
    (`tests/test_sleepnet.py::TestRecordScorer`).

    The scorer stacks the heads' conv, batchnorm and FC tensors into copies
    when it is built and reads the trunk's weights in place; the model must
    not change while a scorer is live. It calls the `neuralcore` functions,
    never a layer's forward, so it writes nothing to the model. It passes
    them its per-channel tensors (conv bias, batchnorm mean, inverse std,
    gamma and beta, and fc1's bias) as C-contiguous planes, each vector
    repeated along a tile's TILE positions, so that each elementwise op on
    a pass is one flat loop rather than one of TILE elements per channel;
    an element meets the same operands either way, and gets the same bits.

    The network runs as convolutions over the record, in tiles aligned to
    its start. Each tile is one fixed-shape matmul, and a column of such a
    product does not depend on the other columns, so a position or window
    comes out the same whether its tile ran on the whole night or on the
    epochs so far, zero-padded past them.

    - conv, batchnorm, relu: the heads' conv kernels, each zero-padded after
      its last tap to the widest kernel width K, form one (rows, 5, K)
      kernel, so head h's position j is stacked position j with zero
      weights on epochs j + k_h .. j + K - 1. Tile t holds positions
      [t*TILE, (t+1)*TILE), read from epochs [t*TILE, t*TILE + TILE + K - 1);
      a pass runs the EPOCHS_PER_MINUTE * PASS_WINDOWS // TILE tiles whose
      positions one fc pass reads. batchnorm and relu act per channel and
      position on the stack.
    - maxpool: one call pools the stack's rows into the pooled sequence.
    - fc1 -> relu -> fc2: window w of a head reads pooled positions
      [w*shift, w*shift + pooled_len), shift being the pool strides per
      2-epoch window shift, flattened in (channel, tap) order: im2col order.
      So fc1 is a convolution of the head's pooled rows at stride shift with
      kernel fc1.w reshaped to (fc_width, n_filters, pooled_len), and fc2 a
      1-tap one. They run in tiles of TILE windows, PASS_WINDOWS windows
      per pass: one (fc, n_filters * pooled_len) @ (n_filters * pooled_len,
      TILE) product per head and tile, and a (1, fc) @ (fc, TILE) one, all
      heads in one batched matmul. A head's zero-weight taps are trailing
      zero terms of each sum, which a BLAS product adds without changing it.
    - the trunk runs per window on the (m, heads) logits.

    A push recomputes the conv tiles from the first one that holds a
    position not yet final for the widest kernel to the one that holds the
    narrowest kernel's newest position, and the fc tiles from the one that
    holds its first new window. The columns keep what later pushes still
    need: pooled features from the first window of the open fc tile on, and
    z-scored epochs from the start of the widest kernel's open conv tile.
    """

    def __init__(self, model):
        heads = model.heads
        self.window_epochs = model.config.window_epochs
        self.n_epochs = 0
        self.n_windows = 0
        self._done = 0  # stacked positions final for every head
        widths = [h.conv.kernel_width for h in heads]
        self._k_max, self._k_min = max(widths), min(widths)
        dtype = heads[0].conv.dtype
        self._epochs = _Columns(model.config.input_features, dtype)
        # every head has the same filter count, pool width and fc width
        # (ModelConfig.validate)
        f = heads[0].conv.out_channels
        fc = heads[0].fc1.params["w"].shape[0]
        self._pool = heads[0].pool.pool_width
        self._shift = EPOCHS_PER_MINUTE // self._pool  # pooled positions per window shift
        self._pooled_len = max(h.pooled_len for h in heads)  # the narrowest kernel's
        self._pooled = _Columns(len(heads) * f, dtype)
        # the stack's tensors, head after head; conv and fc1 weights are
        # written into zeros, which pad each head's taps to the longest
        self._w = np.zeros((len(heads) * f, model.config.input_features, self._k_max), dtype)
        b, mean, var, gamma, beta = np.empty((5, len(heads) * f), dtype)
        w1 = np.zeros((len(heads), fc, f, self._pooled_len), dtype)
        for i, h in enumerate(heads):
            rows = slice(i * f, (i + 1) * f)
            self._w[rows, :, :h.conv.kernel_width] = h.conv.params["w"]
            b[rows] = h.conv.params["b"]
            mean[rows] = h.bn.running_mean
            var[rows] = h.bn.running_var
            gamma[rows] = h.bn.params["gamma"]
            beta[rows] = h.bn.params["beta"]
            w1[i, :, :, :h.pooled_len] = h.fc1.params["w"].reshape(fc, f, h.pooled_len)
        self._w1 = w1.reshape(len(heads), fc, -1)
        self._b1 = np.repeat(np.stack([h.fc1.params["b"][:, None] for h in heads]), TILE, axis=2)
        self._w2 = np.stack([h.fc2.params["w"] for h in heads])
        self._b2 = np.stack([h.fc2.params["b"][:, None] for h in heads])
        self._b, self._mean, self._inv_std, self._gamma, self._beta = (
            np.repeat(v[:, None], TILE, axis=1) for v in (b, mean, bn_inv_std(var), gamma, beta))
        self._trunk = [(layer.params["w"], layer.params["b"])
                       for layer in model.trunk if layer.params]

    def push(self, z):
        """Append z-scored (5, n) epochs; returns the (m,) float64 final
        probabilities of the m windows they complete."""
        self._epochs.write(self.n_epochs, z)
        self.n_epochs += z.shape[1]
        first = self.n_windows
        stop = (self.n_epochs - self.window_epochs) // EPOCHS_PER_MINUTE + 1
        if stop <= first:
            return np.empty(0)
        self._pool_tiles()
        logits = np.empty((stop - first, len(self._w1)), self._w.dtype)
        tiles_per_pass = PASS_WINDOWS // TILE
        for tile in range(first // TILE, -(-stop // TILE), tiles_per_pass):
            start, end = max(first, tile * TILE), min(stop, (tile + tiles_per_pass) * TILE)
            out = self._fc_tiles(tile, -(-(end - tile * TILE) // TILE))
            logits[start - first:end - first] = out[start - tile * TILE:end - tile * TILE]
        self.n_windows = stop
        kept = self._done // TILE * TILE
        self._epochs.keep = kept
        self._pooled.keep = min(stop // TILE * TILE * self._shift, kept // self._pool)
        # the model's fuse: sigmoid, then the trunk's dense layers with a relu
        # between each two
        t = sigmoid(logits)
        for i, (w, b) in enumerate(self._trunk):
            t = dense(relu(t, out=t)[1] if i else t, w, b)
        return sigmoid(t[:, 0]).astype(np.float64)

    def _pool_tiles(self):
        """Run conv -> bn -> relu -> maxpool on the tiles from the one that
        holds the first position not final for the widest kernel to the one
        that holds the narrowest kernel's newest position, as many tiles per
        pass as one fc pass reads, and write them to the pooled sequence."""
        start = self._done // TILE * TILE
        stop = self.n_epochs - self._k_min + 1
        tiles_per_pass = EPOCHS_PER_MINUTE * PASS_WINDOWS // TILE
        for first in range(start, stop, tiles_per_pass * TILE):
            n_tiles = min(tiles_per_pass, -(-(stop - first) // TILE))
            data, offset = self._epochs.buffer(first, first + n_tiles * TILE + self._k_max - 1)
            rows, cols = data.strides
            # im2col, copied once: entry (tile, feature, tap, l) is epoch
            # first + tile*TILE + l + tap
            view = np.ndarray((n_tiles, data.shape[0], self._k_max, TILE), data.dtype, data,
                              offset, (TILE * cols, rows, cols, cols))
            y = conv1d(np.ascontiguousarray(view).reshape(n_tiles, -1, TILE),
                       self._w, self._b)                                # (n_tiles, rows, TILE)
            y -= self._mean
            y = batchnorm(y, self._inv_std, self._gamma, self._beta)[1]
            pooled = maxpool1d(relu(y, out=y)[1], self._pool)
            self._pooled.write(first // self._pool,
                               pooled.transpose(1, 0, 2).reshape(pooled.shape[1], -1))
        self._done = self.n_epochs - self._k_max + 1

    def _fc_tiles(self, tile, n_tiles):
        """(n_tiles * TILE, heads) logits on the windows of fc tiles
        [tile, tile + n_tiles): fc1 -> relu -> fc2, one product per head and
        tile."""
        shift, taps = self._shift, self._pooled_len
        data, offset = self._pooled.buffer(tile * TILE * shift,
                                           ((tile + n_tiles) * TILE - 1) * shift + taps)
        rows, cols = data.strides
        # im2col: entry (tile, row, tap, l) is pooled position
        # (tile * TILE + l) * shift + tap of the row, a row being a head's
        # channel
        view = np.ndarray((n_tiles, data.shape[0], taps, TILE), data.dtype, data, offset,
                          (TILE * shift * cols, rows, cols, shift * cols))
        x = np.ascontiguousarray(view).reshape(n_tiles, len(self._w1), -1, TILE)
        h = np.matmul(self._w1, x)
        h += self._b1
        out = np.matmul(self._w2, relu(h, out=h)[1])
        out += self._b2
        return out.transpose(0, 3, 1, 2).reshape(n_tiles * TILE, len(self._w1))


def infer_hypnogram(model, series):
    """Run the model over a series and return the per-minute Hypnogram.

    Windows of the model's width are cut on a 1-minute stride. The first
    prediction lands on the final minute of the first full window, i.e. 14
    minutes after the series start. Raises ValueError when a z-scored value
    is not finite, i.e. a finite vital lies so far from the training mean
    that it overflows float32, whether or not the series fills a window.
    """
    if model.norm_stats is None:
        raise ValueError("model has no normalization statistics; train or load first")
    with np.errstate(over="ignore"):  # reported by the check below
        z = zscore(series.feature_matrix(), model.norm_stats)
    if not np.isfinite(z).all():
        raise ValueError("z-scored features are not finite: a vital is non-finite "
                         "or too far from the training mean for float32")
    window_epochs = model.config.window_epochs
    if len(series) < window_epochs:
        make_windows(series, window_epochs)  # warns, returns []
        return Hypnogram(start=int(series.timestamps[0]), probs=np.empty(0))
    return Hypnogram(start=int(series.timestamps[window_epochs - EPOCHS_PER_MINUTE]),
                     probs=RecordScorer(model).push(z))
