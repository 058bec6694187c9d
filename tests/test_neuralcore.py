import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from somnoflow.neuralcore import (Adam, BatchNorm1d, ConfigError, Conv1d, Dense,
                                  Dropout, MaxPool1d, NonFiniteGradientError,
                                  ReLU, ShapeError, bce_loss, relu, sigmoid)


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
                pool = MaxPool1d("p", p, stride, dtype=dtype)
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
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

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
        Adam().step([dense])
        np.testing.assert_array_equal(dense.params["w"], before)

    def test_first_step_magnitude(self):
        dense = Dense("d", 1, 1, dtype=np.float64)
        dense.grads["w"][...] = 1.0
        Adam(lr=0.001).step([dense])
        assert abs(abs(dense.params["w"][0, 0]) - 0.001) < 1e-9

    def test_gradients_zeroed_after_step(self):
        dense = Dense("d", 2, 2, rng=np.random.default_rng(0))
        dense.grads["w"][...] = 1.0
        Adam().step([dense])
        assert np.all(dense.grads["w"] == 0)

    def test_frozen_layer_untouched(self):
        dense = Dense("d", 3, 3, rng=np.random.default_rng(1))
        dense.frozen = True
        before = dense.params["w"].copy()
        adam = Adam()
        for _ in range(100):
            dense.grads["w"][...] = np.random.default_rng(2).standard_normal((3, 3))
            adam.step([dense])
        np.testing.assert_array_equal(dense.params["w"], before)
        assert ("d", "w") not in adam._state

    def test_non_finite_gradient_names_layer(self):
        dense = Dense("d", 1, 1)
        dense.grads["w"][...] = np.nan
        with pytest.raises(NonFiniteGradientError, match="'d'"):
            Adam().step([dense])


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
                pool = MaxPool1d("p", p, p if stride == "width" else stride, dtype=dtype)
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
    pool = MaxPool1d("p", 2, dtype=np.float64)
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
