"""Minimal 1D conv/dense neural-network engine with hand-written backprop and Adam.

Layers operate on batched arrays: convolution-path tensors are shaped
(batch, channels, length), dense-path tensors (batch, features). Each layer
owns its parameters and gradient buffers; a forward call caches what the
matching backward call needs. Everything is numpy; no autograd.

A result must not depend on the batch or the neighbours it is computed
with: `sleepnet.RecordScorer` runs a night's conv positions as tiles of a
fixed width in one call, and the stream runs the one tile that holds its
newest positions with the epochs past them zero-padded; the two must agree
bit for bit. Conv1d copies each input (a tile, or a training window) into
C-contiguous im2col columns and runs one stacked matmul, which numpy executes
as one fixed-shape BLAS product per input. So the shape, and with it each
column's summation order, is the same whatever the batch size or input
layout, and a column does not depend on the values in the other columns.
Dense contracts with np.einsum on its default (non-optimized) path, which
accumulates each output element in the same order at any batch size.
MaxPool1d, BatchNorm1d and the activations act per position.
`tests/test_sleepnet.py::TestBatchInvariance` and `TestRecordScorer` check
this contract, also with OpenBLAS on 1 and on 2 threads.

A training step's cost at batch 32 is mostly numpy calls, not arithmetic,
so `Adam(layers, lr)` binds itself to its layers once: their gradients
become views of one buffer, with the moments as flat buffers beside it, and
each `step()` is one flat update. Every op is elementwise, so the result is
bit for bit the per-tensor update.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

BCE_EPS = 1e-7
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid layer or optimizer configuration."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient buffer contains NaN or inf; the message names the layer."""


def sigmoid(x):
    # split by sign to avoid overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss(p, y):
    """Binary cross-entropy and its gradient wrt p.

    p is clamped into [BCE_EPS, 1-BCE_EPS] before the logs, so the loss is
    always finite. Returns (loss, dL/dp), both elementwise.
    """
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(y, dtype=p.dtype)
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    grad = (p - y) / (p * (1.0 - p))
    return loss, grad


class Layer:
    """Base class: parameter/gradient dicts keyed by name, plus a freeze flag."""

    def __init__(self, name):
        self.name = name
        self.params = {}
        self.grads = {}
        self.frozen = False

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def zero_grad(self):
        for g in self.grads.values():
            g[...] = 0

    def state_tensors(self):
        """Tensors to persist beyond params (e.g. batchnorm running stats)."""
        return {}


class Conv1d(Layer):
    """Valid (no padding) 1D convolution, stride 1.

    Weights (out_channels, in_channels, kernel_width); output length L-k+1.
    """

    def __init__(self, name, in_channels, out_channels, kernel_width,
                 rng=None, dtype=np.float32):
        super().__init__(name)
        if kernel_width < 1:
            raise ConfigError(f"{name}: kernel_width must be >= 1, got {kernel_width}")
        self.dtype = np.dtype(dtype)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_width = kernel_width
        fan_in = in_channels * kernel_width
        limit = np.sqrt(6.0 / fan_in)
        if rng is None:
            w = np.zeros((out_channels, in_channels, kernel_width))
        else:
            w = rng.uniform(-limit, limit, (out_channels, in_channels, kernel_width))
        self.params["w"] = w.astype(self.dtype)
        self.params["b"] = np.zeros(out_channels, dtype=self.dtype)
        self.grads["w"] = np.zeros_like(self.params["w"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._x = None

    def forward(self, x, train=False):
        n, c, length = x.shape
        k = self.kernel_width
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        if k > length:
            raise ShapeError(f"{self.name}: kernel width {k} exceeds input length {length}")
        self._x = x
        # a stacked matmul runs one fixed-shape BLAS product per window, so a
        # window's output cannot depend on its batch; one flattened
        # (n*L', c*k) @ (c*k, o) GEMM would round differently as n changes
        y = np.matmul(self.params["w"].reshape(self.out_channels, -1), self._columns())
        y += self.params["b"][None, :, None]
        return y

    def _columns(self):
        """im2col of the cached input: (n, c*k, L-k+1) columns ordered
        (c, j), C-contiguous whatever the layout of x. Rebuilt by backward
        rather than kept, so a forward caches no more than its input."""
        x, k = self._x, self.kernel_width
        n, c, length = x.shape
        lout = length - k + 1
        sn, sc, sl = x.strides
        # column entry (c, j, l) is x[:, c, l + j]; as_strided skips
        # sliding_window_view's checks, most of a batch-1 call's cost
        view = as_strided(x, (n, c, k, lout), (sn, sc, sl, sl), writeable=False)
        return np.ascontiguousarray(view).reshape(n, c * k, lout)

    def backward(self, dy, input_grad=True):
        """Accumulate the weight and bias gradients; return the input's
        gradient, or None with input_grad=False (an input that takes none,
        such as the network's, saves the Wᵀ·dy product and the col2im)."""
        n, _, lout = dy.shape
        c, k = self.in_channels, self.kernel_width
        # dW: one (o, n*L') @ (n*L', c*k) GEMM; gradients need no batch-invariance
        self.grads["w"] += np.tensordot(dy, self._columns(), axes=([0, 2], [0, 2])).reshape(
            self.params["w"].shape)
        self.grads["b"] += dy.sum(axis=(0, 2))
        if not input_grad:
            return None
        # col2im: column entry (c, j, l) was read from x[:, c, l + j]
        dcols = np.matmul(self.params["w"].reshape(self.out_channels, -1).T, dy)
        dcols = dcols.reshape(n, c, k, lout)
        dx = np.zeros((n, c, lout + k - 1), dtype=dy.dtype)
        for j in range(k):
            dx[:, :, j:j + lout] += dcols[:, :, j]
        return dx


class BatchNorm1d(Layer):
    """Per-channel batch normalization over (batch, length).

    Train mode normalizes by batch statistics and blends them into the running
    statistics with momentum BN_MOMENTUM; infer mode uses the running ones.
    """

    def __init__(self, name, channels, dtype=np.float32):
        super().__init__(name)
        self.dtype = np.dtype(dtype)
        self.channels = channels
        self.params["gamma"] = np.ones(channels, dtype=self.dtype)
        self.params["beta"] = np.zeros(channels, dtype=self.dtype)
        self.grads["gamma"] = np.zeros(channels, dtype=self.dtype)
        self.grads["beta"] = np.zeros(channels, dtype=self.dtype)
        self.running_mean = np.zeros(channels, dtype=self.dtype)
        self.running_var = np.ones(channels, dtype=self.dtype)
        self._cache = None

    def state_tensors(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, train=False):
        n, c, length = x.shape
        if c != self.channels:
            raise ShapeError(f"{self.name}: expected {self.channels} channels, got {c}")
        m = n * length
        if train:
            if m < 2:
                raise ShapeError(f"{self.name}: need at least 2 samples per channel in train mode")
            # x.mean and x.var's own steps, with x - mean computed once
            mean = x.sum(axis=(0, 2)) / m
            centered = x - mean[None, :, None]
            var = (centered * centered).sum(axis=(0, 2)) / m
            self.running_mean[...] = ((1.0 - BN_MOMENTUM) * self.running_mean
                                      + BN_MOMENTUM * mean).astype(self.dtype)
            self.running_var[...] = ((1.0 - BN_MOMENTUM) * self.running_var
                                     + BN_MOMENTUM * var).astype(self.dtype)
        else:
            centered = x - self.running_mean[None, :, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = centered * inv_std[None, :, None]
        self._cache = (xhat, inv_std, train, m)
        return self.params["gamma"][None, :, None] * xhat + self.params["beta"][None, :, None]

    def backward(self, dy):
        xhat, inv_std, train, m = self._cache
        self.grads["gamma"] += np.einsum("ncl,ncl->c", dy, xhat)
        self.grads["beta"] += dy.sum(axis=(0, 2))
        dxhat = dy * self.params["gamma"][None, :, None]
        if not train:
            return dxhat * inv_std[None, :, None]
        sum_dxhat = dxhat.sum(axis=(0, 2))
        sum_dxhat_xhat = np.einsum("ncl,ncl->c", dxhat, xhat)
        dx = (dxhat - (sum_dxhat[None, :, None] + xhat * sum_dxhat_xhat[None, :, None]) / m)
        return dx * inv_std[None, :, None]


class MaxPool1d(Layer):
    """1D max pooling; non-overlapping by default (stride = pool_width).

    Trailing remainder shorter than pool_width is dropped. Ties resolve to the
    lowest index (numpy argmax convention). Argmax indices are kept for the
    backward routing.
    """

    def __init__(self, name, pool_width, stride=None):
        super().__init__(name)
        if pool_width < 1:
            raise ConfigError(f"{name}: pool_width must be >= 1, got {pool_width}")
        self.pool_width = pool_width
        self.stride = pool_width if stride is None else stride
        self.argmax = self._in_shape = None

    def forward(self, x, train=False):
        n, c, length = x.shape
        p, s = self.pool_width, self.stride
        if p > length:
            raise ShapeError(f"{self.name}: pool width {p} exceeds input length {length}")
        span = s * ((length - p) // s) + 1  # first to last window start
        out = x[:, :, :span:s].copy()
        bits = out.view(f"u{out.itemsize}")
        arg = np.zeros(out.shape, dtype=np.intp)
        for i in range(1, p):
            xi = x[:, :, i:i + span:s]
            # strictly greater, or the first NaN: argmax's pick
            later = ~(xi <= out) & (out == out)
            # take xi's bits where later: unlike np.maximum this keeps the
            # lowest index on a tie of -0.0 and +0.0, and unlike np.where or a
            # masked copy it does not branch per element
            bits ^= (bits ^ xi.view(bits.dtype)) * later
            np.maximum(arg, later * i, out=arg)
        self.argmax, self._in_shape = arg, x.shape
        return out

    def backward(self, dy):
        s = self.stride
        span = s * (dy.shape[2] - 1) + 1
        dx = np.zeros(self._in_shape, dtype=dy.dtype)
        # route each gradient to its window's argmax, one pool offset at a
        # time. np.where, unlike a multiply by the mask, keeps a NaN or inf
        # gradient away from the other inputs; descending offsets add each
        # input's gradients from overlapping windows in window order
        for i in reversed(range(self.pool_width)):
            dx[:, :, i:i + span:s] += np.where(self.argmax == i, dy, 0)
        return dx


class Dense(Layer):
    """Fully connected layer, weights (out_features, in_features)."""

    def __init__(self, name, in_features, out_features, rng=None, dtype=np.float32):
        super().__init__(name)
        limit = np.sqrt(6.0 / in_features)
        if rng is None:
            w = np.zeros((out_features, in_features))
        else:
            w = rng.uniform(-limit, limit, (out_features, in_features))
        self.params["w"] = w.astype(dtype)
        self.params["b"] = np.zeros(out_features, dtype=dtype)
        self.grads["w"] = np.zeros_like(self.params["w"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._x = None

    def forward(self, x, train=False):
        if x.shape[1] != self.params["w"].shape[1]:
            raise ShapeError(f"{self.name}: expected {self.params['w'].shape[1]} features, "
                             f"got {x.shape[1]}")
        self._x = x
        return np.einsum("oi,ni->no", self.params["w"], x) + self.params["b"][None, :]

    def backward(self, dy):
        self.grads["w"] += np.einsum("no,ni->oi", dy, self._x)
        self.grads["b"] += dy.sum(axis=0)
        return np.einsum("oi,no->ni", self.params["w"], dy)


class ReLU(Layer):
    def __init__(self, name="relu"):
        super().__init__(name)
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units with probability `rate` and
    scales survivors by 1/(1-rate); infer mode is the identity."""

    def __init__(self, name, rate, rng):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"{name}: dropout rate must be in [0,1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        mask = (self.rng.random(x.shape) >= self.rate).astype(x.dtype) / keep
        self._mask = mask
        return x * mask

    def backward(self, dy):
        if self._mask is None:
            return dy
        return dy * self._mask


class Adam:
    """Adam with bias correction over a fixed set of layers, as one flat
    update per step.

    The trainable set is fixed at construction: the parameters of the
    layers that are not frozen then, which must share one dtype. Their
    gradients become views of one flat buffer, which backward accumulates
    into; a gradient already accumulated is kept. Frozen layers are skipped
    entirely: their parameters, gradients and moments stay untouched.
    Freezing or thawing a layer, or rebinding a gradient array, needs a new
    Adam, and only one Adam per layer list should be live at a time, since
    each rebinds the gradients to its own buffer.

    A step checks the gradients with one isfinite, updates the flat moments
    with whole-buffer ops, subtracts each parameter's slice and zeroes the
    gradients in one fill. It is atomic: if any gradient holds NaN or inf,
    it raises NonFiniteGradientError naming the first such layer and
    parameter in list order, and changes no parameter, moment or step count.
    """

    def __init__(self, layers, lr=1e-3):
        self.lr = lr
        self.t = 0
        trainable = [(layer, pname, p) for layer in layers if not layer.frozen
                     for pname, p in layer.params.items()]
        dtypes = {p.dtype for _, _, p in trainable}
        if len(dtypes) > 1:
            raise ConfigError(f"Adam needs one parameter dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else None
        total = sum(p.size for _, _, p in trainable)
        self.m, self.v, self.g, self.upd = (np.zeros(total, dtype=dtype) for _ in range(4))
        self._grads = []  # (layer name, param name, its gradient), named on a non-finite one
        self._params = []  # (parameter, its slice of upd shaped like it)
        start = 0
        for layer, pname, p in trainable:
            sl = slice(start, start + p.size)
            start += p.size
            self.g[sl] = layer.grads[pname].reshape(-1)
            layer.grads[pname] = self.g[sl].reshape(p.shape)
            self._grads.append((layer.name, pname, layer.grads[pname]))
            self._params.append((p, self.upd[sl].reshape(p.shape)))

    def step(self):
        if not np.isfinite(self.g).all():
            for lname, pname, g in self._grads:
                if not np.isfinite(g).all():
                    raise NonFiniteGradientError(
                        f"non-finite gradient in layer '{lname}' parameter '{pname}'")
        # the per-tensor update's float ops, elementwise, in the same order
        self.t += 1
        t = self.t
        m, v, g = self.m, self.v, self.g
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        # out= rounds to the parameters' dtype, as the per-tensor astype did
        np.divide(self.lr * mhat, np.sqrt(vhat) + ADAM_EPS, out=self.upd)
        for p, upd in self._params:
            p -= upd
        g[...] = 0
