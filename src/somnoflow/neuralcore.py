"""Minimal 1D conv/dense neural-network engine with hand-written backprop and Adam.

Layers operate on batched arrays: convolution-path tensors are shaped
(batch, channels, length), dense-path tensors (batch, features). Each layer
owns its parameters and gradient buffers; every forward call, in train or
eval mode, caches what the matching backward call needs, so backward
recomputes nothing: Conv1d keeps its im2col columns. Everything is numpy;
no autograd. A layer does only what the network needs of it: the network's
convs read its input, so Conv1d's backward accumulates the weight and bias
gradients and returns no input gradient, and MaxPool1d's windows do not
overlap (stride = pool width), so its backward stores each gradient at one
input, in one flat indexed store. A frozen layer's backward takes no
gradient; BatchNorm1d's and Dense's still return the input gradient.

The forward math is written once, as functions on arrays: `im2col`,
`conv1d` (one stacked matmul over im2col columns), `batchnorm`, `relu`,
`maxpool1d` (which also stores the argmax when given an array for it) and
`dense`. Each layer's forward calls its function and caches what backward
needs; `sleepnet.RecordScorer` calls the same functions on its own stacked
weights and caches nothing on a layer. The functions take their
per-channel tensors already shaped to broadcast against the (n, c, L)
activations: a layer passes each (c,) vector as v[:, None], and the scorer
passes C-contiguous (c, L) planes, the vector repeated along L, over which
each elementwise op runs as one flat loop instead of one of length L per
channel. Either way every element meets the same operands in the same
order, so the two give the same bits.

A result must not depend on the batch or the neighbours it is computed
with: `sleepnet.RecordScorer` runs a night's conv positions and windows as
tiles of a fixed width, and the stream runs the tiles that hold its newest
positions and window with the inputs past them zero-padded; the two must
agree bit for bit. Each input (a tile, or a training window) is copied into
C-contiguous im2col columns, by `im2col` or by the scorer straight from its
record buffer, and `conv1d` runs one stacked matmul over them, which numpy
executes as one fixed-shape BLAS product per input. So the shape, and with
it each column's summation order, is the same whatever the batch size or
input layout, and a column does not depend on the values in the other
columns; the scorer runs its fc tiles as such products too. `dense`
contracts with np.einsum on its default (non-optimized) path, which
accumulates each output element in the same order at any batch size for a
C-contiguous input; its order follows the input's layout, so `dense` makes
the input C-contiguous first. Max-pooling, batchnorm and the activations act
per channel and position. `tests/test_sleepnet.py::TestBatchInvariance` and
`TestRecordScorer` check this contract, also with OpenBLAS on 1 and on 2
threads.

A training step's cost at batch 32 is mostly numpy calls, not arithmetic,
so `Adam(layers, lr)` binds itself to its layers once: their parameters and
gradients become views of two flat buffers, with the moments as flat
buffers beside them, and each `step()` is one flat update. Every op is
elementwise, so the result is bit for bit the per-tensor update. For the
same reason the backward passes build no more temporaries than they need:
BatchNorm1d's computes its input gradient in place, and MaxPool1d keeps its
scatter offsets for the last input shape.
"""

from __future__ import annotations

import numpy as np

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
    """1 / (1 + exp(-x)) elementwise, as 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, with e = exp(-|x|): exp never overflows, and no
    mask gathers or scatters the two halves, whose numerators one divide
    shares. -|x| is min(x, -x), which keeps a NaN's sign and payload, as
    exp(x) on the negative half did."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def im2col(x, k):
    """(n, c*k, L-k+1) im2col columns of x (n, c, L), ordered (c, j) and
    C-contiguous whatever the layout of x: column entry (c, j, l) is
    x[:, c, l + j]."""
    x = np.ascontiguousarray(x)  # a copy only of a strided x
    n, c, length = x.shape
    lout = length - k + 1
    sn, sc, sl = x.strides
    # np.ndarray over x's buffer costs a seventh of as_strided, and raises
    # if the view would reach past the buffer
    view = np.ndarray((n, c, k, lout), x.dtype, x, 0, (sn, sc, sl, sl))
    return np.ascontiguousarray(view).reshape(n, c * k, lout)


def conv1d(cols, w, b):
    """Valid convolution with w (o, c, k) of the input whose (n, c*k, L')
    im2col columns are cols, plus b shaped to broadcast against the
    (n, o, L') output: the output."""
    # a stacked matmul runs one fixed-shape BLAS product per input, so an
    # input's output cannot depend on its batch; one flattened
    # (n*L', c*k) @ (c*k, o) GEMM would round differently as n changes
    y = np.matmul(w.reshape(w.shape[0], -1), cols)
    y += b
    return y


def bn_inv_std(var):
    """1 / sqrt(var + BN_EPS): batchnorm's scale, from batch or running variances."""
    return 1.0 / np.sqrt(var + BN_EPS)


def batchnorm(centered, inv_std, gamma, beta):
    """Batchnorm of (n, c, L) activations already centred on their channel
    means, the per-channel tensors shaped to broadcast against them:
    (xhat, gamma * xhat + beta)."""
    xhat = centered * inv_std
    y = gamma * xhat
    y += beta
    return xhat, y


def relu(x, out=None):
    """(mask, x * mask) with mask = x > 0; the product goes to out if given,
    which may be x itself."""
    mask = x > 0
    return mask, np.multiply(x, mask, out=out)


def maxpool1d(x, p, argmax=None):
    """Max over the windows [i*p, (i+1)*p) along the last axis of x (n, c, L),
    the remainder dropped. Ties resolve to the lowest offset, and a NaN
    wins as in np.argmax. Given argmax, an intp array of zeros shaped like
    the output, each window's offset of its max is stored there; inference
    reads no argmax and passes none."""
    stop = x.shape[2] // p * p
    out = x[:, :, :stop:p].copy()
    bits = out.view(f"u{out.itemsize}")
    for i in range(1, p):
        xi = x[:, :, i:stop:p]
        # strictly greater, or the first NaN: argmax's pick
        later = ~(xi <= out) & (out == out)
        # take xi's bits where later: unlike np.maximum this keeps the
        # lowest index on a tie of -0.0 and +0.0, and unlike np.where or a
        # masked copy it does not branch per element
        bits ^= (bits ^ xi.view(bits.dtype)) * later
        if argmax is not None:
            np.maximum(argmax, later * i, out=argmax)
    return out


def dense(x, w, b):
    """x (n, in) times w (out, in) transposed, plus b (out,). x is made
    C-contiguous first: einsum's order of summation follows the layout of
    its operands, so a Fortran-ordered or strided x would round otherwise."""
    y = np.einsum("oi,ni->no", w, np.ascontiguousarray(x))
    y += b
    return y


def bce_loss(p, y):
    """Binary cross-entropy, elementwise.

    p is clamped into [BCE_EPS, 1-BCE_EPS] before the logs, so the loss is
    always finite.
    """
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(y, dtype=p.dtype)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def bce_grad(p, y):
    """bce_loss's gradient wrt p, elementwise, with p clamped as there."""
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(y, dtype=p.dtype)
    return (p - y) / (p * (1.0 - p))


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
        self._cols = None

    def forward(self, x, train=False):
        _, c, length = x.shape
        k = self.kernel_width
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        if k > length:
            raise ShapeError(f"{self.name}: kernel width {k} exceeds input length {length}")
        # every forward keeps its columns, eval-mode ones too, for backward
        self._cols = im2col(x, k)
        return conv1d(self._cols, self.params["w"], self.params["b"][:, None])

    def backward(self, dy):
        """Accumulate the weight and bias gradients, none if frozen. There is
        no input gradient: the network's convs read its input, which takes none."""
        if self.frozen:
            return
        # dW: one (o, n*L') @ (n*L', c*k) GEMM over the forward's columns;
        # gradients need no batch-invariance. These are the transposes,
        # reshapes and dot that np.tensordot(dy, cols, ([0, 2], [0, 2])) runs,
        # without its Python prologue
        gw = self.grads["w"]
        gw += np.dot(dy.transpose(1, 0, 2).reshape(dy.shape[1], -1),
                     self._cols.transpose(0, 2, 1).reshape(-1, self._cols.shape[1])
                     ).reshape(gw.shape)
        self.grads["b"] += dy.sum(axis=(0, 2))


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
            centered = x - mean[:, None]
            var = (centered * centered).sum(axis=(0, 2)) / m
            # (1 - momentum) * running + momentum * batch, in place
            for running, batch in ((self.running_mean, mean), (self.running_var, var)):
                np.multiply(running, 1.0 - BN_MOMENTUM, out=running)
                np.add(running, BN_MOMENTUM * batch, out=running)
        else:
            centered = x - self.running_mean[:, None]
            var = self.running_var
        inv_std = bn_inv_std(var)
        xhat, y = batchnorm(centered, inv_std[:, None], self.params["gamma"][:, None],
                            self.params["beta"][:, None])
        self._cache = (xhat, inv_std, train, m)
        return y

    def backward(self, dy):
        xhat, inv_std, train, m = self._cache
        if not self.frozen:
            self.grads["gamma"] += np.einsum("ncl,ncl->c", dy, xhat)
            self.grads["beta"] += dy.sum(axis=(0, 2))
        dxhat = dy * self.params["gamma"][:, None]
        if train:
            # dxhat - (sum_dxhat + xhat * sum_dxhat_xhat) / m, in dxhat and
            # one temporary, each op with its operands in that order
            sum_dxhat = dxhat.sum(axis=(0, 2))
            t = xhat * np.einsum("ncl,ncl->c", dxhat, xhat)[:, None]
            np.add(sum_dxhat[:, None], t, out=t)
            t /= m
            dxhat -= t
        dxhat *= inv_std[:, None]
        return dxhat


class MaxPool1d(Layer):
    """1D max pooling over non-overlapping windows (stride = pool_width).

    Trailing remainder shorter than pool_width is dropped. Ties resolve to the
    lowest index (numpy argmax convention). Argmax indices are kept for the
    backward routing.
    """

    def __init__(self, name, pool_width):
        super().__init__(name)
        if pool_width < 1:
            raise ConfigError(f"{name}: pool_width must be >= 1, got {pool_width}")
        self.pool_width = pool_width
        self.argmax = self._in_shape = None
        self._starts = (None, None)  # (input shape, backward's flat offsets for it)

    def forward(self, x, train=False):
        p = self.pool_width
        if p > x.shape[2]:
            raise ShapeError(f"{self.name}: pool width {p} exceeds input length {x.shape[2]}")
        n, c, length = x.shape
        self.argmax, self._in_shape = np.zeros((n, c, length // p), np.intp), x.shape
        return maxpool1d(x, p, self.argmax)

    def backward(self, dy):
        n, c, lout = dy.shape
        p = self.pool_width
        length = self._in_shape[2]
        dx = np.zeros(self._in_shape, dtype=dy.dtype)
        # the windows do not overlap, so each gradient is stored once, at
        # its window's argmax: flat index row * L + window * p + argmax in
        # dx, and a NaN or inf one reaches no other input. + 0.0 turns a
        # -0.0 gradient into +0.0, as adding it into the zeros would. The
        # offsets row * L + window * p depend on the input shape only
        if self._starts[0] != self._in_shape:
            self._starts = (self._in_shape, np.arange(0, n * c * length, length).reshape(n, c, 1)
                            + np.arange(0, lout * p, p))
        dx.reshape(-1)[self._starts[1] + self.argmax] = dy + 0.0
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
        return dense(x, self.params["w"], self.params["b"])

    def backward(self, dy):
        if not self.frozen:
            self.grads["w"] += np.einsum("no,ni->oi", dy, self._x)
            self.grads["b"] += dy.sum(axis=0)
        return np.einsum("oi,no->ni", self.params["w"], dy)


class ReLU(Layer):
    def __init__(self, name="relu"):
        super().__init__(name)
        self._mask = None

    def forward(self, x, train=False):
        self._mask, y = relu(x)
        return y

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
        # a kept unit's mask is 1 / keep rounded to x's dtype, a dropped one's 0
        scale = x.dtype.type(1) / x.dtype.type(1.0 - self.rate)
        self._mask = (self.rng.random(x.shape) >= self.rate) * scale
        return x * self._mask

    def backward(self, dy):
        if self._mask is None:
            return dy
        return dy * self._mask


class Adam:
    """Adam with bias correction over a fixed set of layers, as one flat
    update per step.

    The trainable set is fixed at construction: the parameters of the
    layers that are not frozen then, which must share one dtype. They and
    their gradients become views of two flat buffers, holding the same
    values: backward accumulates into the one, and a gradient already
    accumulated is kept; a step updates the other. So a parameter array
    held from before an Adam was built is no longer the layer's; read
    parameters through `layer.params`. Frozen layers are skipped entirely:
    their parameters, gradients and moments stay untouched. Freezing or
    thawing a layer, or rebinding a parameter or gradient array, needs a
    new Adam, and only one Adam per layer list should be live at a time,
    since each rebinds the tensors to its own buffers.

    A step checks the gradients with one isfinite, updates the flat moments
    and parameters with whole-buffer ops and zeroes the gradients in one
    fill. It is atomic: if any gradient holds NaN or inf,
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
        self.m, self.v, self.g, self.upd, self._p = (np.zeros(total, dtype=dtype)
                                                     for _ in range(5))
        self._grads = []  # (layer name, param name, its gradient), named on a non-finite one
        start = 0
        for layer, pname, p in trainable:
            sl = slice(start, start + p.size)
            start += p.size
            for flat, tensors in ((self._p, layer.params), (self.g, layer.grads)):
                flat[sl] = tensors[pname].reshape(-1)
                tensors[pname] = flat[sl].reshape(p.shape)
            self._grads.append((layer.name, pname, layer.grads[pname]))

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
        self._p -= self.upd
        g[...] = 0
