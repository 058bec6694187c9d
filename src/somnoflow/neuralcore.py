"""Minimal 1D conv/dense neural-network engine with hand-written backprop and Adam.

Layers operate on batched arrays: convolution-path tensors are shaped
(batch, channels, length), dense-path tensors (batch, features). Each layer
owns its parameters and gradient buffers; a forward call caches what the
matching backward call needs. Everything is numpy; no autograd.

All contractions go through np.einsum with the default (non-optimized) path so
that a given output element is accumulated in the same order regardless of
batch size. That makes single-sample inference bit-identical to batched
inference: `sleepnet.infer_hypnogram` scores a night in batches and the
streaming path one window at a time, and the two must agree bit for bit.
`tests/test_sleepnet.py::TestBatchInvariance` checks this contract.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid layer or optimizer configuration."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient buffer contains NaN or inf; the message names the layer."""


def relu(x):
    return np.maximum(x, 0)


def sigmoid(x):
    # split by sign to avoid overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss(p, y, eps=1e-7):
    """Binary cross-entropy and its gradient wrt p.

    p is clamped into [eps, 1-eps] before the logs, so the loss is always
    finite. Returns (loss, dL/dp), both elementwise.
    """
    p = np.clip(p, eps, 1.0 - eps)
    y = np.asarray(y, dtype=p.dtype)
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    grad = (p - y) / (p * (1.0 - p))
    return loss, grad


class Layer:
    """Base class: parameter/gradient dicts keyed by name, plus a freeze flag."""

    def __init__(self, name, dtype=np.float32):
        self.name = name
        self.dtype = np.dtype(dtype)
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
        super().__init__(name, dtype)
        if kernel_width < 1:
            raise ConfigError(f"{name}: kernel_width must be >= 1, got {kernel_width}")
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
        self._view = None

    def forward(self, x, train=False):
        n, c, length = x.shape
        k = self.kernel_width
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        if k > length:
            raise ShapeError(f"{self.name}: kernel width {k} exceeds input length {length}")
        view = sliding_window_view(x, k, axis=2)  # (n, c, L-k+1, k)
        y = np.einsum("ocj,nclj->nol", self.params["w"], view)
        y += self.params["b"][None, :, None]
        self._view = view
        return y

    def backward(self, dy):
        w = self.params["w"]
        k = self.kernel_width
        self.grads["w"] += np.einsum("nol,nclj->ocj", dy, self._view)
        self.grads["b"] += dy.sum(axis=(0, 2))
        # input gradient = full correlation with the flipped kernel
        dyp = np.pad(dy, ((0, 0), (0, 0), (k - 1, k - 1)))
        dview = sliding_window_view(dyp, k, axis=2)  # (n, o, L, k)
        return np.einsum("ocj,nolj->ncl", w[:, :, ::-1], dview)


class BatchNorm1d(Layer):
    """Per-channel batch normalization over (batch, length).

    Train mode normalizes by batch statistics and blends them into the running
    statistics with `momentum`; infer mode uses the running statistics only.
    """

    def __init__(self, name, channels, momentum=0.1, eps=1e-5, dtype=np.float32):
        super().__init__(name, dtype)
        if not 0.0 < momentum < 1.0:
            raise ConfigError(f"{name}: momentum must be in (0,1), got {momentum}")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
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
        if train:
            if n * length < 2:
                raise ShapeError(f"{self.name}: need at least 2 samples per channel in train mode")
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            self.running_mean[...] = ((1.0 - self.momentum) * self.running_mean
                                      + self.momentum * mean).astype(self.dtype)
            self.running_var[...] = ((1.0 - self.momentum) * self.running_var
                                     + self.momentum * var).astype(self.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
        self._cache = (xhat, inv_std, train, n * length)
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

    def __init__(self, name, pool_width, stride=None, dtype=np.float32):
        super().__init__(name, dtype)
        if pool_width < 1:
            raise ConfigError(f"{name}: pool_width must be >= 1, got {pool_width}")
        self.pool_width = pool_width
        self.stride = pool_width if stride is None else stride
        self._cache = None

    def forward(self, x, train=False):
        n, c, length = x.shape
        p, s = self.pool_width, self.stride
        if p > length:
            raise ShapeError(f"{self.name}: pool width {p} exceeds input length {length}")
        view = sliding_window_view(x, p, axis=2)[:, :, ::s]  # (n, c, Lout, p)
        arg = view.argmax(axis=3)
        out = np.take_along_axis(view, arg[..., None], axis=3)[..., 0]
        self._cache = (arg, x.shape)
        self.argmax = arg
        return out

    def backward(self, dy):
        arg, in_shape = self._cache
        n, c, lout = dy.shape
        dx = np.zeros(in_shape, dtype=dy.dtype)
        # source position of each pooled maximum
        src = arg + np.arange(lout)[None, None, :] * self.stride
        ni = np.arange(n)[:, None, None]
        ci = np.arange(c)[None, :, None]
        np.add.at(dx, (ni, ci, src), dy)
        return dx


class Dense(Layer):
    """Fully connected layer, weights (out_features, in_features)."""

    def __init__(self, name, in_features, out_features, rng=None, dtype=np.float32):
        super().__init__(name, dtype)
        limit = np.sqrt(6.0 / in_features)
        if rng is None:
            w = np.zeros((out_features, in_features))
        else:
            w = rng.uniform(-limit, limit, (out_features, in_features))
        self.params["w"] = w.astype(self.dtype)
        self.params["b"] = np.zeros(out_features, dtype=self.dtype)
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
    def __init__(self, name="relu", dtype=np.float32):
        super().__init__(name, dtype)
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units with probability `rate` and
    scales survivors by 1/(1-rate); infer mode is the identity."""

    def __init__(self, name, rate, rng, dtype=np.float32):
        super().__init__(name, dtype)
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
    """Adam with bias correction. Frozen layers are skipped entirely: their
    parameters, moments and step counters stay untouched. Gradients of updated
    layers are zeroed after each step."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state = {}  # (layer name, param name) -> {"m","v","step"}

    def step(self, layers):
        for layer in layers:
            if layer.frozen or not layer.params:
                continue
            for pname, p in layer.params.items():
                g = layer.grads[pname]
                if not np.all(np.isfinite(g)):
                    raise NonFiniteGradientError(
                        f"non-finite gradient in layer '{layer.name}' parameter '{pname}'")
                key = (layer.name, pname)
                st = self._state.get(key)
                if st is None:
                    st = {"m": np.zeros_like(p), "v": np.zeros_like(p), "step": 0}
                    self._state[key] = st
                st["step"] += 1
                t = st["step"]
                st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * g
                st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * (g * g)
                mhat = st["m"] / (1.0 - self.beta1 ** t)
                vhat = st["v"] / (1.0 - self.beta2 ** t)
                p -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.dtype)
            layer.zero_grad()
