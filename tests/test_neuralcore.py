from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from somnoflow import datapipe, sleepnet
from somnoflow.neuralcore import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BN_EPS, BN_MOMENTUM, Adam,
                                  BatchNorm1d, ConfigError, Conv1d, Dense, Dropout,
                                  MaxPool1d, NonFiniteGradientError, ReLU, ShapeError,
                                  BCE_EPS, batchnorm, bce_grad, bce_loss, bn_inv_std, conv1d,
                                  dense, im2col, maxpool1d, relu, sigmoid)


def naive_conv1d(x, w, b):
    """Triple-loop oracle for valid convolution, stride 1."""
    cout, cin, k = w.shape
    n, _, length = x.shape
    out = np.zeros((n, cout, length - k + 1))
    for ni in range(n):
        for o in range(cout):
            for i in range(length - k + 1):
                acc = b[o]
                for c in range(cin):
                    for j in range(k):
                        acc += w[o, c, j] * x[ni, c, i + j]
                out[ni, o, i] = acc
    return out


def einsum_conv1d(x, w, b):
    """The einsum definition of valid convolution, stride 1."""
    view = sliding_window_view(x, w.shape[2], axis=2)  # (n, c, L-k+1, k)
    return np.einsum("ocj,nclj->nol", w, view) + b[None, :, None]


def argmax_maxpool1d(x, p):
    """The sliding_window_view/argmax/take_along_axis definition of max
    pooling: (output, within-window argmax)."""
    view = sliding_window_view(x, p, axis=2)[:, :, ::p]  # (n, c, Lout, p)
    arg = view.argmax(axis=3)
    return np.take_along_axis(view, arg[..., None], axis=3)[..., 0], arg


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


def fd_grad(f, arr, h=1e-4):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + h
        fp = f()
        arr[idx] = old - h
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2 * h)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


class TestConv1d:
    def test_output_length_30_k3(self):
        conv = Conv1d("c", 5, 4, 3, rng=np.random.default_rng(0))
        out = conv.forward(np.ones((1, 5, 30), dtype=np.float32))
        assert out.shape == (1, 4, 28)

    def test_zero_weights_zero_output(self):
        conv = Conv1d("c", 2, 3, 3)
        out = conv.forward(np.random.default_rng(0).standard_normal((2, 2, 9)).astype(np.float32))
        assert np.all(out == 0)

    def test_hand_kernel(self):
        conv = Conv1d("c", 1, 1, 3)
        conv.params["w"][...] = np.array([[[1.0, 0.0, -1.0]]])
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32))
        np.testing.assert_allclose(out[0, 0], [-2.0, -2.0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        conv = Conv1d("c", 3, 2, 4, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 3, 11))
        expected = naive_conv1d(x, conv.params["w"], conv.params["b"])
        np.testing.assert_allclose(conv.forward(x), expected, rtol=1e-10)

    def test_kernel_wider_than_input(self):
        conv = Conv1d("c", 1, 1, 5)
        with pytest.raises(ShapeError, match="5.*3"):
            conv.forward(np.zeros((1, 1, 3), dtype=np.float32))

    @given(st.integers(min_value=1, max_value=30))
    def test_output_length_formula(self, k):
        conv = Conv1d("c", 1, 1, k)
        out = conv.forward(np.zeros((1, 1, 30), dtype=np.float32))
        assert out.shape[2] == 30 - k + 1

    def test_backward_zero_upstream(self):
        conv = Conv1d("c", 2, 2, 3, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 2, 8)).astype(np.float32)
        out = conv.forward(x)
        conv.backward(np.zeros_like(out))
        assert np.all(conv.grads["w"] == 0)
        assert np.all(conv.grads["b"] == 0)

    def test_backward_scalar_case(self):
        conv = Conv1d("c", 1, 1, 1)
        conv.params["w"][...] = 2.0
        x = np.array([[[3.0]]], dtype=np.float32)
        conv.forward(x)
        conv.backward(np.array([[[5.0]]], dtype=np.float32))
        assert conv.grads["w"][0, 0, 0] == 15.0  # input * upstream

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(11)
        conv = Conv1d("c", 2, 3, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 8))
        dy = rng.standard_normal((1, 3, 6))

        def loss():
            return float(np.sum(conv.forward(x) * dy))

        conv.forward(x)
        conv.backward(dy)
        assert max_rel_err(conv.grads["w"], fd_grad(loss, conv.params["w"])) < 1e-4
        assert max_rel_err(conv.grads["b"], fd_grad(loss, conv.params["b"])) < 1e-4


class TestConv1dMatmul:
    """Conv1d runs one fixed-shape matmul per window: a window's output must
    not depend on its batch or on the memory layout of the input."""

    @pytest.mark.parametrize("k", range(1, 31))  # k = 30: L' = 1, numpy's gemv path
    def test_batch_invariant_and_close_to_einsum(self, k):
        rng = np.random.default_rng(k)
        conv = Conv1d("c", 5, 16, k, rng=rng)
        conv.params["b"][...] = rng.standard_normal(16)
        x = rng.standard_normal((65, 5, 30)).astype(np.float32)
        one = np.concatenate([conv.forward(x[i:i + 1]) for i in range(len(x))])
        for size in (2, 64, 65):
            got = np.concatenate([conv.forward(x[s:s + size])
                                  for s in range(0, len(x), size)])
            np.testing.assert_array_equal(bits(got), bits(one))
        # any input layout gives the same bits
        np.testing.assert_array_equal(bits(conv.forward(np.asfortranarray(x))), bits(one))
        np.testing.assert_array_equal(
            bits(conv.forward(x.transpose(2, 0, 1).copy().transpose(1, 2, 0))), bits(one))
        # both sides sum c*k float32 products in some order: each is within
        # (c*k + 1) * eps * sum|terms| of the exact value
        w, b = conv.params["w"], conv.params["b"]
        terms = einsum_conv1d(np.abs(x), np.abs(w), np.abs(b))
        bound = 2 * (5 * k + 1) * np.finfo(np.float32).eps * terms
        assert np.all(np.abs(one - einsum_conv1d(x, w, b)) <= bound)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_backward_close_to_einsum(self, k):
        rng = np.random.default_rng(100 + k)
        conv = Conv1d("c", 5, 16, k, rng=rng)
        n, lout = 32, 31 - k
        x = rng.standard_normal((n, 5, 30)).astype(np.float32)
        dy = rng.standard_normal((n, 16, lout)).astype(np.float32)
        conv.forward(np.asfortranarray(x))
        conv.backward(dy)

        # the einsum definition: dW correlates dy with the input windows
        def dw_of(dy, x):
            return np.einsum("nol,nclj->ocj", dy, sliding_window_view(x, k, axis=2))

        # each side sums float32 products in some order: within
        # (terms + 1) * eps * sum|terms| of the exact value
        eps = np.finfo(np.float32).eps
        assert np.all(np.abs(conv.grads["w"] - dw_of(dy, x))
                      <= 2 * (n * lout + 1) * eps * dw_of(np.abs(dy), np.abs(x)))


class TestBatchNorm:
    def test_standardized_input_unchanged(self):
        bn = BatchNorm1d("bn", 1, dtype=np.float64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 1, 50))
        x = (x - x.mean()) / x.std()
        out = bn.forward(x, train=True)
        assert np.max(np.abs(out - x)) < 1e-4

    def test_constant_channel_gives_beta(self):
        bn = BatchNorm1d("bn", 2)
        bn.params["beta"][...] = [0.5, -1.0]
        x = np.full((3, 2, 4), 7.0, dtype=np.float32)
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out[:, 0], 0.5, atol=1e-5)
        np.testing.assert_allclose(out[:, 1], -1.0, atol=1e-5)

    def test_train_mode_statistics(self):
        bn = BatchNorm1d("bn", 3, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((8, 3, 40)) * 5 + 2
        out = bn.forward(x, train=True)
        assert np.all(np.abs(out.mean(axis=(0, 2))) < 1e-6)
        assert np.all(np.abs(out.var(axis=(0, 2)) - 1.0) < 1e-4)

    def test_infer_uses_running_stats(self):
        bn = BatchNorm1d("bn", 1)
        x = np.random.default_rng(2).standard_normal((2, 1, 10)).astype(np.float32)
        out1 = bn.forward(x, train=False)
        out2 = bn.forward(x, train=False)
        np.testing.assert_array_equal(out1, out2)

    def test_backward_finite_differences(self):
        bn = BatchNorm1d("bn", 2, dtype=np.float64)
        rng = np.random.default_rng(3)
        bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 2)
        bn.params["beta"][...] = rng.standard_normal(2)
        x = rng.standard_normal((3, 2, 5))
        dy = rng.standard_normal((3, 2, 5))

        def loss():
            return float(np.sum(bn.forward(x, train=True) * dy))

        bn.forward(x, train=True)
        dx = bn.backward(dy)
        assert max_rel_err(dx, fd_grad(loss, x)) < 1e-4
        assert max_rel_err(bn.grads["gamma"], fd_grad(loss, bn.params["gamma"])) < 1e-4
        assert max_rel_err(bn.grads["beta"], fd_grad(loss, bn.params["beta"])) < 1e-4


def mean_var_batchnorm_train(x, gamma, beta, running_mean, running_var):
    """Train-mode batchnorm written with np.mean and np.var: (output, new
    running mean, new running var)."""
    mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
    new_mean = ((1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean).astype(x.dtype)
    new_var = ((1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var).astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    return gamma[None, :, None] * xhat + beta[None, :, None], new_mean, new_var


class TestBatchNormMeanVar:
    """The one-pass train-mode statistics equal np.mean/np.var bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("offset", [0.0, 1e4, -9999.7])
    def test_matches_mean_var(self, offset, dtype):
        rng = np.random.default_rng(int(abs(offset)) + np.dtype(dtype).itemsize)
        for n in (1, 2, 3, 7, 32, 63, 64):
            for length in (2, 3, 5, 11, 26, 40):
                bn = BatchNorm1d("bn", 3, dtype=dtype)
                bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
                bn.params["beta"][...] = rng.standard_normal(3)
                bn.running_mean[...] = rng.standard_normal(3)
                bn.running_var[...] = rng.uniform(0.5, 2.0, 3)
                # channel 1 constant, channel 2 a tiny spread about the offset
                x = (offset + rng.standard_normal((n, 3, length)) * [[[1.0], [0.0], [1e-3]]]
                     ).astype(dtype)
                want = mean_var_batchnorm_train(x, bn.params["gamma"], bn.params["beta"],
                                                bn.running_mean, bn.running_var)
                got = (bn.forward(x, train=True), bn.running_mean, bn.running_var)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(bits(g), bits(w))


class TestMaxPool:
    def test_hand_case(self):
        pool = MaxPool1d("p", 2)
        out = pool.forward(np.array([[[1.0, 3.0, 2.0, 5.0]]], dtype=np.float32))
        np.testing.assert_allclose(out[0, 0], [3.0, 5.0])
        np.testing.assert_array_equal(pool.argmax[0, 0], [1, 1])  # within-window offsets

    def test_width_one_identity(self):
        pool = MaxPool1d("p", 1)
        x = np.random.default_rng(0).standard_normal((2, 3, 7)).astype(np.float32)
        np.testing.assert_array_equal(pool.forward(x), x)

    def test_tie_break_lowest_index(self):
        pool = MaxPool1d("p", 2)
        out = pool.forward(np.array([[[7.0, 7.0]]], dtype=np.float32))
        np.testing.assert_allclose(out[0, 0], [7.0])
        assert pool.argmax[0, 0, 0] == 0

    def test_remainder_dropped(self):
        pool = MaxPool1d("p", 2)
        out = pool.forward(np.array([[[1.0, 2.0, 3.0, 4.0, 9.0]]], dtype=np.float32))
        np.testing.assert_allclose(out[0, 0], [2.0, 4.0])

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            MaxPool1d("p", 0)

    def test_width_beyond_input_rejected(self):
        with pytest.raises(ShapeError, match="pool width 4 exceeds input length 3"):
            MaxPool1d("p", 4).forward(np.zeros((1, 1, 3), dtype=np.float32))

    def test_backward_routes_to_argmax(self):
        pool = MaxPool1d("p", 2)
        x = np.array([[[1.0, 3.0, 2.0, 5.0]]], dtype=np.float32)
        pool.forward(x)
        dx = pool.backward(np.array([[[1.0, 2.0]]], dtype=np.float32))
        np.testing.assert_allclose(dx[0, 0], [0.0, 1.0, 0.0, 2.0])


def pool_input(kind, rng, shape, dtype):
    if kind == "random":
        return rng.standard_normal(shape).astype(dtype)
    # few distinct values, -0.0 and +0.0 among them, so windows tie
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), shape)
    if kind == "nan":
        x[rng.random(shape) < 0.3] = np.nan
    return x


class TestMaxPoolDefinition:
    """Window maxima against the sliding_window_view/argmax definition, bit
    for bit: ties go to the lowest index and the first NaN wins, as in argmax."""

    # the ids keep the case names from when the pool took a stride (None:
    # its default, the pool width)
    @pytest.mark.parametrize("kind", ["random", "tied", "nan"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4], ids=lambda p: f"{p}-None")
    def test_matches_argmax_definition(self, p, kind):
        rng = np.random.default_rng(100 * p + len(kind))
        for dtype in (np.float32, np.float64):
            for length in range(p, p + 12):
                x = pool_input(kind, rng, (3, 2, length), dtype)
                pool = MaxPool1d("p", p)
                out = pool.forward(x)
                want, want_arg = argmax_maxpool1d(x, p)
                np.testing.assert_array_equal(bits(out), bits(want))
                np.testing.assert_array_equal(pool.argmax, want_arg)
                dy = rng.standard_normal(out.shape).astype(dtype)
                want_dx = np.zeros_like(x)
                for n, c, l in np.ndindex(*dy.shape):
                    want_dx[n, c, l * p + want_arg[n, c, l]] += dy[n, c, l]
                np.testing.assert_array_equal(bits(pool.backward(dy)), bits(want_dx))


class TestDenseAndActivations:
    def test_identity_weights(self):
        dense = Dense("d", 3, 3)
        dense.params["w"][...] = np.eye(3)
        x = np.array([[1.0, -2.0, 3.0]], dtype=np.float32)
        np.testing.assert_allclose(dense.forward(x), x)

    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-10 and out[1] > 1 - 1e-10

    def test_relu(self):
        out = ReLU("r").forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_dense_independent_of_input_layout(self):
        # einsum sums in an order that follows its operands' layout; dense
        # copies a strided or Fortran-ordered input to C order first
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, n_in, n_out = rng.integers(1, 70), rng.integers(1, 40), rng.integers(1, 20)
            x = rng.standard_normal((n, n_in)).astype(np.float32)
            w = rng.standard_normal((n_out, n_in)).astype(np.float32)
            b = rng.standard_normal(n_out).astype(np.float32)
            want = bits(dense(x, w, b))
            wide = np.zeros((2 * n, 3 * n_in), dtype=np.float32)
            wide[::2, 1::3] = x
            for layout in (np.asfortranarray(x), np.ascontiguousarray(x.T).T, wide[::2, 1::3]):
                np.testing.assert_array_equal(bits(dense(layout, w, b)), want)

    def test_dense_backward_finite_differences(self):
        rng = np.random.default_rng(5)
        dense = Dense("d", 4, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 4))
        dy = rng.standard_normal((2, 3))

        def loss():
            return float(np.sum(dense.forward(x) * dy))

        dense.forward(x)
        dx = dense.backward(dy)
        assert max_rel_err(dense.grads["w"], fd_grad(loss, dense.params["w"])) < 1e-4
        assert max_rel_err(dense.grads["b"], fd_grad(loss, dense.params["b"])) < 1e-4
        assert max_rel_err(dx, fd_grad(loss, x)) < 1e-4


class TestDropout:
    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            Dropout("d", 1.0, np.random.default_rng(0))

    def test_infer_identity(self):
        d = Dropout("d", 0.5, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((10, 10)).astype(np.float32)
        np.testing.assert_array_equal(d.forward(x, train=False), x)

    def test_survivor_fraction_and_scale(self):
        d = Dropout("d", 0.5, np.random.default_rng(42))
        x = np.ones((1, 100_000), dtype=np.float32)
        out = d.forward(x, train=True)
        survivors = out != 0
        assert abs(survivors.mean() - 0.5) < 0.01
        assert np.all(out[survivors] == 2.0)  # inverted scaling is exact

    def test_expectation_preserved(self):
        d = Dropout("d", 0.3, np.random.default_rng(7))
        x = np.ones((1, 100_000), dtype=np.float32)
        out = d.forward(x, train=True)
        assert abs(out.mean() - 1.0) < 0.01


class TestBceLoss:
    def test_perfect_prediction(self):
        loss = bce_loss(np.array([1.0]), np.array([1.0]))
        assert loss[0] < 1e-6

    def test_half(self):
        loss0 = bce_loss(np.array([0.5]), np.array([0.0]))
        loss1 = bce_loss(np.array([0.5]), np.array([1.0]))
        np.testing.assert_allclose([loss0[0], loss1[0]], np.log(2), rtol=1e-9)

    def test_point_nine(self):
        loss = bce_loss(np.array([0.9]), np.array([1.0]))
        np.testing.assert_allclose(loss[0], 0.105361, atol=1e-6)

    def test_gradient(self):
        p = np.array([0.3, 0.8])
        y = np.array([1.0, 0.0])
        g = bce_grad(p, y)

        def fd(i):
            h = 1e-7
            lp = bce_loss(p[i:i + 1] + h, y[i:i + 1])
            lm = bce_loss(p[i:i + 1] - h, y[i:i + 1])
            return (lp[0] - lm[0]) / (2 * h)

        np.testing.assert_allclose(g, [fd(0), fd(1)], rtol=1e-5)

    def test_extreme_inputs_finite(self):
        p, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        loss, g = bce_loss(p, y), bce_grad(p, y)
        assert np.all(np.isfinite(loss)) and np.all(np.isfinite(g))


class TestAdam:
    def test_zero_gradient_no_change(self):
        dense = Dense("d", 2, 2, rng=np.random.default_rng(0))
        before = dense.params["w"].copy()
        Adam([dense]).step()
        np.testing.assert_array_equal(dense.params["w"], before)

    def test_first_step_magnitude(self):
        dense = Dense("d", 1, 1, dtype=np.float64)
        dense.grads["w"][...] = 1.0
        Adam([dense], lr=0.001).step()
        assert abs(abs(dense.params["w"][0, 0]) - 0.001) < 1e-9

    def test_gradients_zeroed_after_step(self):
        dense = Dense("d", 2, 2, rng=np.random.default_rng(0))
        dense.grads["w"][...] = 1.0
        Adam([dense]).step()
        assert np.all(dense.grads["w"] == 0)

    def test_frozen_layer_untouched(self):
        dense = Dense("d", 3, 3, rng=np.random.default_rng(1))
        dense.frozen = True
        before = dense.params["w"].copy()
        grad = dense.grads["w"]
        adam = Adam([dense])
        for _ in range(100):
            dense.grads["w"][...] = np.random.default_rng(2).standard_normal((3, 3))
            adam.step()
        np.testing.assert_array_equal(dense.params["w"], before)
        assert dense.grads["w"] is grad and adam.g.size == 0

    def test_non_finite_gradient_names_layer(self):
        dense = Dense("d", 1, 1)
        dense.grads["w"][...] = np.nan
        with pytest.raises(NonFiniteGradientError, match="'d'"):
            Adam([dense]).step()

    def test_mixed_dtypes_rejected(self):
        layers = [Dense("a", 2, 2), Dense("b", 2, 2, dtype=np.float64)]
        with pytest.raises(ConfigError, match="one parameter dtype"):
            Adam(layers)

    @pytest.mark.parametrize("steps_before", [0, 3])
    def test_non_finite_gradient_changes_nothing(self, steps_before):
        """NaN in the last layer of two: the step raises naming it and leaves
        every parameter, gradient, moment and step count as it was."""
        rng = np.random.default_rng(steps_before)
        layers, ref_layers = ([Dense(name, 3, 2, rng=np.random.default_rng(1)) for name in "ab"]
                              for _ in range(2))
        adam, ref_state = Adam(layers), {}
        for _ in range(steps_before):
            set_random_grads(rng, layers, ref_layers)
            adam.step()
            reference_adam_step(ref_state, adam.lr, ref_layers)
        set_random_grads(rng, layers, ref_layers)
        layers[1].grads["b"][1] = np.nan
        layers[1].grads["w"][0, 2] = np.inf
        before = [(layer.params[k].copy(), layer.grads[k].copy())
                  for layer in layers for k in layer.params]
        with pytest.raises(NonFiniteGradientError, match="layer 'b' parameter 'w'"):
            adam.step()
        after = [(layer.params[k], layer.grads[k]) for layer in layers for k in layer.params]
        for (p0, g0), (p1, g1) in zip(before, after):
            np.testing.assert_array_equal(bits(p1), bits(p0))
            np.testing.assert_array_equal(bits(g1), bits(g0))
        # the moments and step counts are those of a run that never saw the bad step
        for layer, ref in zip(layers, ref_layers):
            for k in layer.grads:
                layer.grads[k][...] = ref.grads[k]
        for _ in range(3):
            adam.step()
            reference_adam_step(ref_state, adam.lr, ref_layers)
            assert_same_params(layers, ref_layers)
            set_random_grads(rng, layers, ref_layers)


def reference_adam_step(state, lr, layers):
    """The definition: Adam as a per-tensor loop, one update per parameter."""
    for layer in layers:
        if layer.frozen or not layer.params:
            continue
        for pname, p in layer.params.items():
            g = layer.grads[pname]
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(
                    f"non-finite gradient in layer '{layer.name}' parameter '{pname}'")
            key = (layer.name, pname)
            st = state.get(key)
            if st is None:
                st = {"m": np.zeros_like(p), "v": np.zeros_like(p), "step": 0}
                state[key] = st
            st["step"] += 1
            t = st["step"]
            st["m"] = ADAM_BETA1 * st["m"] + (1.0 - ADAM_BETA1) * g
            st["v"] = ADAM_BETA2 * st["v"] + (1.0 - ADAM_BETA2) * (g * g)
            mhat = st["m"] / (1.0 - ADAM_BETA1 ** t)
            vhat = st["v"] / (1.0 - ADAM_BETA2 ** t)
            p -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.dtype)
        layer.zero_grad()


def set_random_grads(rng, layers, ref_layers):
    """Add the same random gradient, of a random scale, to both copies, as
    backward accumulates it."""
    for layer, ref in zip(layers, ref_layers):
        for pname, g in layer.grads.items():
            dg = (rng.standard_normal(g.shape) * 10.0 ** rng.integers(-6, 3)).astype(g.dtype)
            g += dg
            ref.grads[pname] += dg


def assert_same_params(layers, ref_layers):
    for layer, ref in zip(layers, ref_layers):
        for pname in layer.params:
            np.testing.assert_array_equal(bits(layer.params[pname]), bits(ref.params[pname]),
                                          err_msg=f"{layer.name}.{pname}")
            np.testing.assert_array_equal(bits(layer.grads[pname]), bits(ref.grads[pname]),
                                          err_msg=f"{layer.name}.{pname} gradient")


class TestAdamReference:
    """The flat update against the per-tensor loop, bit for bit, over 50
    steps of random gradients."""

    def run(self, make_layers, lr=1e-3, steps=50, seed=0):
        """Step both copies; returns the Adam and its layers."""
        rng = np.random.default_rng(seed)
        layers, ref_layers = make_layers(), make_layers()
        adam, ref_state = Adam(layers, lr), {}
        for _ in range(steps):
            set_random_grads(rng, layers, ref_layers)
            adam.step()
            reference_adam_step(ref_state, lr, ref_layers)
            assert_same_params(layers, ref_layers)
        return adam, layers

    def test_default_model(self):
        self.run(lambda: sleepnet.build_model(sleepnet.ModelConfig()).param_layers())

    def test_float64_dense(self):
        self.run(lambda: [Dense("d", 7, 3, rng=np.random.default_rng(0), dtype=np.float64)],
                 lr=0.01)

    def test_frozen_layer_in_list(self):
        def make():
            layers = [Dense(name, 4, 4, rng=np.random.default_rng(i))
                      for i, name in enumerate("abc")]
            layers[1].frozen = True
            return layers
        adam, layers = self.run(make)
        assert adam.g.size == 2 * (16 + 4)
        assert not any(np.shares_memory(g, adam.g) for g in layers[1].grads.values())


class TestMaxPoolBackward:
    """The one-pass backward against np.add.at scattering each gradient to
    its window's argmax, bit for bit: a -0.0 gradient lands as the +0.0 that
    adding it into zeros gives, and a NaN or inf gradient reaches only its
    argmax."""

    # the ids keep the case names from when the pool took a stride
    @pytest.mark.parametrize("grad", ["random", "signed-zero", "non-finite"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4], ids=lambda p: f"{p}-width")
    def test_matches_add_at(self, p, grad):
        rng = np.random.default_rng(10 * p + len(grad))
        for dtype in (np.float32, np.float64):
            for length in range(p, p + 9):
                x = pool_input("tied", rng, (3, 2, length), dtype)
                pool = MaxPool1d("p", p)
                out = pool.forward(x)
                dy = rng.standard_normal(out.shape).astype(dtype)
                if grad == "signed-zero":
                    dy = rng.choice(np.array([-0.0, 0.0, 1.5], dtype=dtype), out.shape)
                elif grad == "non-finite":
                    bad = rng.choice(np.array([np.nan, np.inf, -np.inf], dtype=dtype), out.shape)
                    dy = np.where(rng.random(out.shape) < 0.3, bad, dy)
                n, c, lout = out.shape
                want = np.zeros_like(x)
                src = pool.argmax + np.arange(lout) * p
                np.add.at(want, (np.arange(n)[:, None, None], np.arange(c)[None, :, None], src),
                          dy)
                np.testing.assert_array_equal(bits(pool.backward(dy)), bits(want))


class TestFrozenBackward:
    """A frozen layer's backward accumulates no gradient and returns the
    input gradient of the same layer unfrozen, bit for bit (Conv1d returns
    none either way)."""

    @staticmethod
    def make(kind):
        rng = np.random.default_rng(3)
        if kind == "conv":
            return Conv1d("c", 3, 4, 5, rng=rng), (6, 3, 20)
        if kind == "dense":
            return Dense("d", 12, 5, rng=rng), (6, 12)
        bn = BatchNorm1d("bn", 4)
        for v in (bn.params["gamma"], bn.params["beta"], bn.running_mean):
            v[...] = rng.standard_normal(4)
        bn.running_var[...] = rng.uniform(0.5, 2.0, 4)
        return bn, (6, 4, 20)

    @pytest.mark.parametrize("kind, train", [("conv", True), ("bn", True), ("bn", False),
                                             ("dense", True)],
                             ids=["conv", "bn-train", "bn-eval", "dense"])
    def test_no_gradient_same_input_gradient(self, kind, train):
        rng = np.random.default_rng(8)
        (live, shape), (frozen, _) = self.make(kind), self.make(kind)
        frozen.frozen = True
        x = rng.standard_normal(shape).astype(np.float32)
        dy = rng.standard_normal(live.forward(x, train).shape).astype(np.float32)
        frozen.forward(x, train)
        dx_live, dx_frozen = live.backward(dy), frozen.backward(dy)
        assert all(np.any(g != 0) for g in live.grads.values())
        assert all(np.all(g == 0) for g in frozen.grads.values())
        if kind == "conv":
            assert dx_live is None and dx_frozen is None
        else:
            np.testing.assert_array_equal(bits(dx_frozen), bits(dx_live))


@pytest.mark.parametrize("seed", range(20))
def test_all_layers_gradcheck(seed):
    """Analytic vs central finite differences for every layer type. The
    conv's weight gradient checks the input gradients of the layers above it."""
    rng = np.random.default_rng(seed)
    conv = Conv1d("c", 2, 2, 3, rng=rng, dtype=np.float64)
    bn = BatchNorm1d("bn", 2, dtype=np.float64)
    bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 2)
    pool = MaxPool1d("p", 2)
    dense = Dense("d", 6, 2, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 2, 8))
    dy_final = rng.standard_normal((2, 2))

    def loss():
        z = conv.forward(x)
        z = bn.forward(z, train=True)
        z = pool.forward(z)
        flat = z.reshape(2, -1)
        return float(np.sum(dense.forward(flat) * dy_final))

    z = conv.forward(x)
    z = bn.forward(z, train=True)
    z = pool.forward(z)
    shape = z.shape
    out = dense.forward(z.reshape(2, -1))
    dflat = dense.backward(dy_final)
    dz = pool.backward(dflat.reshape(shape))
    conv.backward(bn.backward(dz))

    for layer, pname in [(conv, "w"), (conv, "b"), (bn, "gamma"), (bn, "beta"),
                         (dense, "w"), (dense, "b")]:
        assert max_rel_err(layer.grads[pname], fd_grad(loss, layer.params[pname])) < 1e-4, \
            f"{layer.name}.{pname}"


def test_infer_forward_is_pure():
    rng = np.random.default_rng(0)
    conv = Conv1d("c", 3, 4, 3, rng=rng)
    x = rng.standard_normal((2, 3, 10)).astype(np.float32)
    out1 = conv.forward(x).copy()
    out2 = conv.forward(x)
    np.testing.assert_array_equal(out1, out2)


def masked_sigmoid(x):
    """The sigmoid as it was written before: split by a sign mask, each half
    gathered, computed and scattered back."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def put_along_axis_pool_backward(pool, dy):
    """MaxPool1d.backward as it was written before: each gradient put at its
    window's argmax in a (n, c, L', p) view of dx."""
    n, c, lout = dy.shape
    p = pool.pool_width
    dx = np.zeros(pool._in_shape, dtype=dy.dtype)
    view = dx[:, :, :lout * p].reshape(n, c, lout, p)
    np.put_along_axis(view, pool.argmax[..., None], (dy + 0.0)[..., None], axis=3)
    return dx


def old_batchnorm_backward(bn, dy):
    """BatchNorm1d.backward's input gradient as it was written before it
    worked in place."""
    xhat, inv_std, train, m = bn._cache
    dxhat = dy * bn.params["gamma"][None, :, None]
    if not train:
        return dxhat * inv_std[None, :, None]
    sum_dxhat = dxhat.sum(axis=(0, 2))
    sum_dxhat_xhat = np.einsum("ncl,ncl->c", dxhat, xhat)
    dx = (dxhat - (sum_dxhat[None, :, None] + xhat * sum_dxhat_xhat[None, :, None]) / m)
    return dx * inv_std[None, :, None]


def old_make_windows(series, window_epochs=30):
    """datapipe.make_windows as it was written before it cut a record's
    windows as arrays: one window at a time."""
    n = len(series)
    if n < window_epochs:
        return []
    mat = series.feature_matrix()
    out = []
    for i in range((n - window_epochs) // 2 + 1):
        s = i * 2
        e = s + window_epochs
        l1 = int(series.labels[e - 2])
        l2 = int(series.labels[e - 1])
        out.append(datapipe.FeatureWindow(
            values=mat[:, s:e].copy(),
            end_timestamp=int(series.timestamps[e - 1]) + 30,
            label_timestamp=int(series.timestamps[e - 2]),
            label=l1 if (l1 == l2 and l1 >= 0) else None))
    return out


def old_build_training_set(series_list, context_hours, seed):
    """datapipe.build_training_set as it was written before: the
    transition test per window, on Python ints."""
    windows = []
    for series in series_list:
        trans = datapipe._series_transitions(series)
        for w in old_make_windows(series):
            if w.label is None:
                continue
            if context_hours > 0:
                horizon = context_hours * 3600
                if not any(abs(w.end_timestamp - t) <= horizon for t in trans):
                    continue
            windows.append(w)
    rng = np.random.default_rng(seed)
    by_class = {0: [], 1: []}
    for w in windows:
        by_class[w.label].append(w)
    n = min(len(by_class[0]), len(by_class[1]))
    kept = []
    for cls in (0, 1):
        group = by_class[cls]
        if len(group) > n:
            idx = rng.choice(len(group), size=n, replace=False)
            group = [group[i] for i in sorted(idx)]
        kept.extend(group)
    kept.sort(key=lambda w: (w.end_timestamp, w.label))
    return kept


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("end_timestamp", "label_timestamp", "label", "normalized"):
            assert type(getattr(g, name)) is type(getattr(w, name)), name
            assert getattr(g, name) == getattr(w, name), name
        assert g.values.dtype == w.values.dtype and g.values.shape == w.values.shape
        np.testing.assert_array_equal(bits(g.values), bits(w.values))
        # its own copy, C-contiguous: no view of the record's feature matrix
        assert g.values.base is None and g.values.flags.c_contiguous


def window_series(n, labels, start=600, transitions=(), seed=0):
    rng = np.random.default_rng(seed)
    hr = 60 + 10 * rng.standard_normal(n)
    return datapipe.EpochSeries(
        timestamps=start + 30 * np.arange(n, dtype=np.int64), hr=hr,
        br=14 + rng.standard_normal(n), hr_conf=rng.random(n), movement=rng.random(n),
        hr_diff=datapipe.compute_hr_diff(hr), labels=np.asarray(labels, dtype=np.int64),
        transitions=list(transitions))


class TestRewrittenOpsMatchOldFormulas:
    """Each op that a training step was sped up in, against the formula it
    replaced, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(0,), (1,), (466, 4)])
    def test_sigmoid(self, dtype, shape):
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 88.5, -88.5, 89.0, -89.0,
                            104.0, -104.0, 710.0, -710.0, 1e30, -1e30], dtype=dtype)
        rng = np.random.default_rng(len(shape))
        x = (rng.standard_normal(shape) * 30).astype(dtype)
        flat = x.reshape(-1)
        flat[:special.size] = special[:flat.size]
        if flat.size > special.size:  # a NaN with a payload
            flat[-1:].view(f"u{flat.itemsize}")[0] = bits(np.array([np.nan], dtype))[0] | 5
        got = sigmoid(x)
        assert got.dtype == x.dtype and got.shape == x.shape
        np.testing.assert_array_equal(bits(got), bits(masked_sigmoid(x)))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_maxpool_backward(self, p):
        rng = np.random.default_rng(p)
        for dtype in (np.float32, np.float64):
            for length in range(p, p + 9):  # most lengths leave a remainder
                x = pool_input("tied", rng, (4, 3, length), dtype)
                pool = MaxPool1d("p", p)
                out = pool.forward(x)
                dy = rng.choice(np.array([-0.0, 0.0, 1.5, -2.0, np.nan, np.inf, -np.inf],
                                         dtype=dtype), out.shape)
                dx = pool.backward(dy)
                want = put_along_axis_pool_backward(pool, dy)
                np.testing.assert_array_equal(bits(dx), bits(want))
                assert not np.any(bits(dx[:, :, out.shape[2] * p:]))  # remainder stays +0.0

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("layout", ["contiguous", "sliced", "transposed"])
    def test_conv_backward_from_kept_columns(self, train, layout):
        # the kept columns against columns rebuilt from the input, the way
        # backward used to rebuild them
        rng = np.random.default_rng(len(layout) + train)
        for k in (1, 3, 7, 11, 30):
            conv = Conv1d("c", 5, 8, k, rng=rng)
            x = rng.standard_normal((9, 5, 30)).astype(np.float32)
            if layout == "sliced":
                x = np.pad(x, ((1, 1), (0, 2), (3, 4)))[1:-1, :5, 3:-4]
            elif layout == "transposed":
                x = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
            assert layout == "contiguous" or not x.flags.c_contiguous
            y = conv.forward(x, train=train)
            dy = rng.standard_normal(y.shape).astype(np.float32)
            conv.backward(dy)
            cols = np.ascontiguousarray(sliding_window_view(x, k, axis=2).transpose(0, 1, 3, 2))
            want = np.tensordot(dy, cols.reshape(9, 5 * k, 31 - k),
                                axes=([0, 2], [0, 2])).reshape(conv.params["w"].shape)
            np.testing.assert_array_equal(bits(conv.grads["w"]), bits(want))
            np.testing.assert_array_equal(bits(conv.grads["b"]), bits(dy.sum(axis=(0, 2))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.99])
    def test_dropout_mask(self, dtype, rate):
        d = Dropout("d", rate, np.random.default_rng(5))
        old_rng = np.random.default_rng(5)
        x = np.random.default_rng(6).standard_normal((32, 8, 6)).astype(dtype)
        for _ in range(3):
            got = d.forward(x, train=True)
            if rate == 0.0:
                assert got is x
                continue
            mask = (old_rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
            assert d._mask.dtype == x.dtype
            np.testing.assert_array_equal(bits(d._mask), bits(mask))
            np.testing.assert_array_equal(bits(got), bits(x * mask))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_running_statistics(self, dtype):
        # several blended steps, and a float64 input into a float32 layer
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        bn = BatchNorm1d("bn", 4, dtype=dtype)
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        for step in range(6):
            x = rng.standard_normal((8, 4, 20)) * 3 + step
            x = x if step % 3 == 2 else x.astype(dtype)
            bn.forward(x, train=True)
            m = x.sum(axis=(0, 2)) / x[:, 0].size
            v = ((x - m[None, :, None]) ** 2).sum(axis=(0, 2)) / x[:, 0].size
            mean = ((1.0 - BN_MOMENTUM) * mean + BN_MOMENTUM * m).astype(dtype)
            var = ((1.0 - BN_MOMENTUM) * var + BN_MOMENTUM * v).astype(dtype)
            np.testing.assert_array_equal(bits(bn.running_mean), bits(mean))
            np.testing.assert_array_equal(bits(bn.running_var), bits(var))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_grad(self, dtype):
        rng = np.random.default_rng(9)
        p = np.concatenate([[0.0, 1.0, 1e-9, 1 - 1e-9], rng.random(60)]).astype(dtype)
        y = (rng.random(p.shape) < 0.5).astype(np.float64)
        clipped = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
        yc = y.astype(dtype)
        np.testing.assert_array_equal(bits(bce_grad(p, y)),
                                      bits((clipped - yc) / (clipped * (1.0 - clipped))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_weight_gradient_is_tensordot(self, dtype):
        # backward inlines np.tensordot's own transposes, reshapes and dot;
        # two backward calls accumulate
        rng = np.random.default_rng(np.dtype(dtype).itemsize + 60)
        for n, k in ((1, 3), (32, 5), (32, 11), (466, 7)):
            conv = Conv1d("c", 5, 16, k, rng=rng, dtype=dtype)
            want = np.zeros_like(conv.grads["w"])
            for _ in range(2):
                y = conv.forward(rng.standard_normal((n, 5, 30)).astype(dtype), train=True)
                dy = rng.standard_normal(y.shape).astype(dtype)
                conv.backward(dy)
                want += np.tensordot(dy, conv._cols, axes=([0, 2], [0, 2])).reshape(want.shape)
            np.testing.assert_array_equal(bits(conv.grads["w"]), bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [False, True])
    def test_batchnorm_backward_in_place(self, dtype, train):
        rng = np.random.default_rng(np.dtype(dtype).itemsize + 70 + train)
        bn = BatchNorm1d("bn", 6, dtype=dtype)
        bn.params["gamma"][...] = rng.standard_normal(6) * 2
        bn.params["gamma"][0] = -0.0
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5], dtype=dtype)
        for n, length in ((1, 2), (4, 28), (32, 20)):
            bn.forward((rng.standard_normal((n, 6, length)) * 3).astype(dtype), train=True)
            if not train:
                bn.forward((rng.standard_normal((n, 6, length)) * 3).astype(dtype))
            dy = rng.standard_normal((n, 6, length)).astype(dtype)
            # channel 1 one NaN, channel 2 +inf, channel 3 both infinities,
            # channel 4 -0.0 and +0.0 only; channels 0 and 5 finite
            dy[0, 1, 0] = np.nan
            dy[0, 2, -1] = np.inf
            dy[:, 3, :1], dy[:, 3, -1:] = np.inf, -np.inf
            dy[:, 4] = rng.choice(special[3:5], (n, length))
            dy[-1, 5, :] = special[5]
            with np.errstate(invalid="ignore", over="ignore"):
                want = old_batchnorm_backward(bn, dy)
                got = bn.backward(dy)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(bits(got), bits(want))

    def test_maxpool_backward_offsets_follow_the_shape(self):
        # the cached scatter offsets are rebuilt when the input shape
        # changes, and backward leaves the argmax as the forward stored it
        rng = np.random.default_rng(80)
        pool = MaxPool1d("p", 2)
        for shape in ((4, 3, 9), (2, 5, 12), (2, 5, 13), (4, 3, 9), (1, 16, 28)):
            x = pool_input("tied", rng, shape, np.float32)
            out = pool.forward(x, train=True)
            argmax = pool.argmax.copy()
            dy = rng.choice(np.array([-0.0, 0.0, 1.5, -2.0, np.nan, np.inf], np.float32),
                            out.shape)
            for _ in range(2):
                dx = pool.backward(dy)
                np.testing.assert_array_equal(bits(dx), bits(put_along_axis_pool_backward(pool,
                                                                                          dy)))
                np.testing.assert_array_equal(pool.argmax, argmax)

    def test_flat_parameter_adam_across_restore_and_freeze(self):
        # the parameters live in Adam's flat buffer: updated in one
        # subtraction, written through by restore, and read through
        # named_tensors, snapshot and the model file
        def make():
            model = sleepnet.build_model(sleepnet.ModelConfig())
            model.heads[1].bn.frozen = model.trunk[0].frozen = True
            return model
        model, ref = make(), make()
        frozen = model.heads[1].bn.params["gamma"]
        adam, state, lr = Adam(model.param_layers(), 0.01), {}, 0.01
        assert model.heads[1].bn.params["gamma"] is frozen
        start, ref_start = model.snapshot(), ref.snapshot()
        rng = np.random.default_rng(90)
        for step in range(8):
            set_random_grads(rng, model.param_layers(), ref.param_layers())
            adam.step()
            reference_adam_step(state, lr, ref.param_layers())
            if step == 3:
                model.restore(start)
                ref.restore(ref_start)
            assert_same_params(model.param_layers(), ref.param_layers())
            assert sleepnet._encode(model) == sleepnet._encode(ref)
        np.testing.assert_array_equal(bits(frozen), bits(dict(start)["head1.bn.gamma"]))

    @pytest.mark.parametrize("n", [29, 30, 31, 32, 33, 61])
    def test_make_windows(self, n):
        rng = np.random.default_rng(n)
        cases = [np.zeros(n), np.ones(n), np.full(n, -1), rng.choice([-1, 0, 1], n),
                 np.repeat([0, 1], n)[::2][:n]]
        # the final minute's two epochs disagree, or one is unlabeled
        for a, b in ((0, 1), (1, 0), (-1, 1), (1, -1), (-1, -1)):
            labels = np.ones(n)
            labels[-2:] = a, b
            cases.append(labels)
        for labels in cases:
            series = window_series(n, labels)
            if n < 30:
                with pytest.warns(UserWarning, match="shorter than one"):
                    assert datapipe.make_windows(series) == []
            else:
                assert_same_windows(datapipe.make_windows(series), old_make_windows(series))

    @pytest.mark.parametrize("context_hours", [-1.0, 0, 0.25, 1, 1.5, float("inf")])
    def test_build_training_set_and_apply_normalizer(self, context_hours):
        rng = np.random.default_rng(100)
        labels = np.resize(np.repeat(rng.choice([0, 1], 60), rng.integers(2, 40, 60)), 960)
        labels[rng.integers(0, 960, 40)] = -1
        night = window_series(960, labels, start=22 * 3600, seed=1)
        # a record with its transitions from the labels, one from a sidecar
        # (one transition far off, one before the record), one without any
        flat = window_series(200, np.ones(200), start=10 ** 6, seed=2)
        sidecar = window_series(300, np.repeat([0, 1, 0], 100), start=5 * 10 ** 6, seed=3,
                                transitions=[("sleep_onset", 5 * 10 ** 6 + 3000),
                                             ("wake_time", 5 * 10 ** 6 - 7200)])
        for records in ([night], [night, flat, sidecar], [flat, sidecar]):
            got = datapipe.build_training_set(records, context_hours=context_hours, seed=4)
            want = old_build_training_set(records, context_hours, seed=4)
            assert_same_windows(got, want)
            stats = datapipe.fit_normalizer(want)
            assert_same_windows([datapipe.apply_normalizer(w, stats) for w in got],
                                [replace(w, values=datapipe.zscore(w.values, stats),
                                         normalized=True) for w in want])
        with pytest.raises(ValueError, match="no transitions"):
            datapipe.build_training_set([flat], context_hours=context_hours)



def two_divide_sigmoid(x):
    """The sigmoid as it was written before its halves shared one divide."""
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def argmax_select_maxpool1d(x, p):
    """maxpool1d as it was written before inference dropped the argmax:
    the same bit-select, building the argmax on every call: (out, argmax)."""
    stop = x.shape[2] // p * p
    out = x[:, :, :stop:p].copy()
    bits = out.view(f"u{out.itemsize}")
    arg = np.zeros(out.shape, dtype=np.intp)
    for i in range(1, p):
        xi = x[:, :, i:stop:p]
        later = ~(xi <= out) & (out == out)
        bits ^= (bits ^ xi.view(bits.dtype)) * later
        np.maximum(arg, later * i, out=arg)
    return out, arg


def plane(v, width=sleepnet.TILE):
    """v (c,) as RecordScorer stores it: a C-contiguous (c, width) plane."""
    return np.repeat(v[:, None], width, axis=1)


class TestClassFrameOpsMatchOldFormulas:
    """Each op that scoring a class frame was sped up in, against the
    formula it replaced, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(0,), (466, 4), (100_000,)])
    def test_one_divide_sigmoid(self, dtype, shape):
        nan_bits = bits(np.array([np.nan], dtype))[0]
        payloads = np.array([nan_bits | 5, nan_bits | 1 << (np.dtype(dtype).itemsize * 8 - 1) | 3],
                            dtype=nan_bits.dtype).view(dtype)  # +NaN and -NaN with payloads
        special = np.concatenate([
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1.0, -1.0],
            payloads, np.linspace(88.7, 745.0, 40), -np.linspace(88.7, 745.0, 40)]).astype(dtype)
        rng = np.random.default_rng(sum(shape))
        # magnitudes from 1e-45 to 1e3
        x = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-45, 3, shape)).astype(dtype)
        flat = x.reshape(-1)
        flat[:special.size] = special[:flat.size]
        got = sigmoid(x)
        assert got.dtype == x.dtype and got.shape == x.shape
        np.testing.assert_array_equal(bits(got), bits(two_divide_sigmoid(x)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_maxpool_without_argmax(self, p):
        rng = np.random.default_rng(30 + p)
        values = [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan]
        for dtype in (np.float32, np.float64):
            for length in range(p, p + 9):  # most lengths leave a remainder
                for chosen in (values[1:5], values[:6], values):  # ±0 ties, ±inf, NaN
                    x = rng.choice(np.array(chosen, dtype=dtype), (3, 6, length))
                    want, want_arg = argmax_select_maxpool1d(x, p)
                    # the scorer pools a row range of its stack: a strided view
                    for xin, w in ((x, want), (x[:, 1:4], want[:, 1:4])):
                        np.testing.assert_array_equal(bits(maxpool1d(xin, p)), bits(w))
                    arg = np.zeros(want_arg.shape, np.intp)
                    np.testing.assert_array_equal(bits(maxpool1d(x, p, arg)), bits(want))
                    np.testing.assert_array_equal(arg, want_arg)
                    pool = MaxPool1d("p", p)
                    np.testing.assert_array_equal(bits(pool.forward(x)), bits(want))
                    np.testing.assert_array_equal(pool.argmax, want_arg)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plane_batchnorm(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize + 40)
        c, width = 24, sleepnet.TILE
        y = (rng.standard_normal((3, c, width)) * 5).astype(dtype)
        y.reshape(-1)[:5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        mean, gamma, beta = (rng.standard_normal((3, c)) * 2).astype(dtype)
        inv_std = bn_inv_std(rng.random(c).astype(dtype) * 3)
        xhat = (y - mean[None, :, None]) * inv_std[None, :, None]
        want = gamma[None, :, None] * xhat + beta[None, :, None]
        centered = y.copy()
        centered -= plane(mean)
        got_xhat, got = batchnorm(centered, plane(inv_std), plane(gamma), plane(beta))
        np.testing.assert_array_equal(bits(got_xhat), bits(xhat))
        np.testing.assert_array_equal(bits(got), bits(want))
        # a layer's (c, 1) broadcast shapes
        _, got = batchnorm(y - mean[:, None], inv_std[:, None], gamma[:, None], beta[:, None])
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_plane_conv_bias_and_relu_in_place(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((4, 5, sleepnet.TILE + 10)).astype(np.float32)
        w = rng.standard_normal((16, 5, 11)).astype(np.float32)
        b = rng.standard_normal(16).astype(np.float32)
        cols = im2col(x, 11)
        want = np.matmul(w.reshape(16, -1), cols) + b[None, :, None]
        got = conv1d(cols, w, plane(b))
        np.testing.assert_array_equal(bits(got), bits(want))
        np.testing.assert_array_equal(bits(conv1d(cols, w, b[:, None])), bits(want))
        got.reshape(-1)[:4] = want.reshape(-1)[:4] = [np.nan, -0.0, -np.inf, -1.0]
        with np.errstate(invalid="ignore"):  # -inf * 0 is NaN either way
            mask, out = relu(got, out=got)
            want = want * (want > 0)
        assert out is got
        np.testing.assert_array_equal(bits(got), bits(want))
        np.testing.assert_array_equal(mask, got > 0)
