import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from somnoflow import sleepnet
from somnoflow.neuralcore import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BN_EPS, BN_MOMENTUM, Adam,
                                  BatchNorm1d, ConfigError, Conv1d, Dense, Dropout,
                                  MaxPool1d, NonFiniteGradientError, ReLU, ShapeError,
                                  bce_loss, sigmoid)


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


def argmax_maxpool1d(x, p, s):
    """The sliding_window_view/argmax/take_along_axis definition of max
    pooling: (output, within-window argmax)."""
    view = sliding_window_view(x, p, axis=2)[:, :, ::s]  # (n, c, Lout, p)
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
        dx = conv.backward(np.zeros_like(out))
        assert np.all(dx == 0)
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
        dx = conv.backward(dy)
        assert max_rel_err(conv.grads["w"], fd_grad(loss, conv.params["w"])) < 1e-4
        assert max_rel_err(conv.grads["b"], fd_grad(loss, conv.params["b"])) < 1e-4
        assert max_rel_err(dx, fd_grad(loss, x)) < 1e-4

    @pytest.mark.parametrize("k", range(1, 12))
    def test_no_input_grad_same_weight_grads(self, k):
        """input_grad=False returns None and accumulates the same weight and
        bias gradients as the full backward, bit for bit."""
        rng = np.random.default_rng(k)
        full, weights_only = (Conv1d("c", 5, 4, k, rng=np.random.default_rng(k))
                              for _ in range(2))
        for n in (1, 32):
            x = rng.standard_normal((n, 5, 30)).astype(np.float32)
            dy = rng.standard_normal((n, 4, 31 - k)).astype(np.float32)
            full.forward(x, train=True)
            assert full.backward(dy).shape == x.shape
            weights_only.forward(x, train=True)
            assert weights_only.backward(dy, input_grad=False) is None
            for pname in ("w", "b"):
                np.testing.assert_array_equal(bits(weights_only.grads[pname]),
                                              bits(full.grads[pname]))


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
        dx = conv.backward(dy)
        assert dx.dtype == np.float32 and dx.shape == x.shape

        def pad(a):
            return np.pad(a, ((0, 0), (0, 0), (k - 1, k - 1)))

        # the einsum definitions: dW correlates dy with the input windows,
        # dx is the full correlation of dy with the flipped kernel
        def dw_of(dy, x):
            return np.einsum("nol,nclj->ocj", dy, sliding_window_view(x, k, axis=2))

        def dx_of(dy, w):
            return np.einsum("ocj,nolj->ncl", w[:, :, ::-1],
                             sliding_window_view(pad(dy), k, axis=2))

        # each side sums float32 products in some order: within
        # (terms + 1) * eps * sum|terms| of the exact value
        eps = np.finfo(np.float32).eps
        w = conv.params["w"]
        assert np.all(np.abs(conv.grads["w"] - dw_of(dy, x))
                      <= 2 * (n * lout + 1) * eps * dw_of(np.abs(dy), np.abs(x)))
        assert np.all(np.abs(dx - dx_of(dy, w))
                      <= 2 * (16 * k + 1) * eps * dx_of(np.abs(dy), np.abs(w)))


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
    """Strided maxima against the sliding_window_view/argmax definition, bit
    for bit: ties go to the lowest index and the first NaN wins, as in argmax."""

    @pytest.mark.parametrize("kind", ["random", "tied", "nan"])
    @pytest.mark.parametrize("stride", [None, 1, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_argmax_definition(self, p, stride, kind):
        rng = np.random.default_rng(100 * p + 10 * (stride or 0) + len(kind))
        for dtype in (np.float32, np.float64):
            for length in range(p, p + 12):
                x = pool_input(kind, rng, (3, 2, length), dtype)
                pool = MaxPool1d("p", p, stride)
                out = pool.forward(x)
                want, want_arg = argmax_maxpool1d(x, p, pool.stride)
                np.testing.assert_array_equal(bits(out), bits(want))
                np.testing.assert_array_equal(pool.argmax, want_arg)
                dy = rng.standard_normal(out.shape).astype(dtype)
                want_dx = np.zeros_like(x)
                for n, c, l in np.ndindex(*dy.shape):
                    want_dx[n, c, l * pool.stride + want_arg[n, c, l]] += dy[n, c, l]
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
        loss, _ = bce_loss(np.array([1.0]), np.array([1.0]))
        assert loss[0] < 1e-6

    def test_half(self):
        loss0, _ = bce_loss(np.array([0.5]), np.array([0.0]))
        loss1, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        np.testing.assert_allclose([loss0[0], loss1[0]], np.log(2), rtol=1e-9)

    def test_point_nine(self):
        loss, _ = bce_loss(np.array([0.9]), np.array([1.0]))
        np.testing.assert_allclose(loss[0], 0.105361, atol=1e-6)

    def test_gradient(self):
        p = np.array([0.3, 0.8])
        y = np.array([1.0, 0.0])
        _, g = bce_loss(p, y)

        def fd(i):
            h = 1e-7
            lp, _ = bce_loss(p[i:i + 1] + h, y[i:i + 1])
            lm, _ = bce_loss(p[i:i + 1] - h, y[i:i + 1])
            return (lp[0] - lm[0]) / (2 * h)

        np.testing.assert_allclose(g, [fd(0), fd(1)], rtol=1e-5)

    def test_extreme_inputs_finite(self):
        loss, g = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
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
    """The offset-by-offset backward against np.add.at scattering each
    gradient to its window's argmax, bit for bit: overlapping windows add in
    the same order, and a NaN or inf gradient reaches only its argmax."""

    @pytest.mark.parametrize("grad", ["random", "signed-zero", "non-finite"])
    @pytest.mark.parametrize("stride", ["width", 1, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_add_at(self, p, stride, grad):
        rng = np.random.default_rng(10 * p + len(grad))
        for dtype in (np.float32, np.float64):
            for length in range(p, p + 9):
                x = pool_input("tied", rng, (3, 2, length), dtype)
                pool = MaxPool1d("p", p, p if stride == "width" else stride)
                out = pool.forward(x)
                dy = rng.standard_normal(out.shape).astype(dtype)
                if grad == "signed-zero":
                    dy = rng.choice(np.array([-0.0, 0.0, 1.5], dtype=dtype), out.shape)
                elif grad == "non-finite":
                    bad = rng.choice(np.array([np.nan, np.inf, -np.inf], dtype=dtype), out.shape)
                    dy = np.where(rng.random(out.shape) < 0.3, bad, dy)
                n, c, lout = out.shape
                want = np.zeros_like(x)
                src = pool.argmax + np.arange(lout) * pool.stride
                with np.errstate(invalid="ignore"):  # inf + -inf where windows overlap
                    np.add.at(want, (np.arange(n)[:, None, None], np.arange(c)[None, :, None],
                                     src), dy)
                    got = pool.backward(dy)
                np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("seed", range(20))
def test_all_layers_gradcheck(seed):
    """Analytic vs central finite differences for every layer type."""
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
    dz = bn.backward(dz)
    dx = conv.backward(dz)

    for layer, pname in [(conv, "w"), (conv, "b"), (bn, "gamma"), (bn, "beta"),
                         (dense, "w"), (dense, "b")]:
        assert max_rel_err(layer.grads[pname], fd_grad(loss, layer.params[pname])) < 1e-4, \
            f"{layer.name}.{pname}"
    assert max_rel_err(dx, fd_grad(loss, x)) < 1e-4


def test_infer_forward_is_pure():
    rng = np.random.default_rng(0)
    conv = Conv1d("c", 3, 4, 3, rng=rng)
    x = rng.standard_normal((2, 3, 10)).astype(np.float32)
    out1 = conv.forward(x).copy()
    out2 = conv.forward(x)
    np.testing.assert_array_equal(out1, out2)
