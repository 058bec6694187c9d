import collections
import contextlib
import json
import os
import struct
import subprocess
import sys

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import somnoflow as sf
from somnoflow import sleepnet
from somnoflow.datapipe import FeatureWindow, SynthConfig, synth_generate, zscore
from somnoflow.neuralcore import (BN_EPS, Adam, BatchNorm1d, ConfigError, Conv1d, Dense,
                                  Layer, MaxPool1d, ReLU, ShapeError, bce_grad, bce_loss,
                                  sigmoid)
from somnoflow.sleepnet import (HEADER_KEYS, INFER_CHUNK, MODEL_FORMAT_VERSION, TILE,
                                DigestMismatchError,
                                HeadConfig, ModelConfig, ModelFormatError, RecordScorer,
                                TrainingHyper, TruncatedFileError,
                                VersionMismatchError, build_model, finetune_transfer,
                                infer_hypnogram, load_model, save_model, train,
                                _Columns, _epoch_loss, _objective, _objective_grads,
                                _prepare_xy)
from conftest import (corrupt_header, make_training_windows, tiled_probs,
                      train_small_model)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def tiny_config(seed=0, **kw):
    heads = [HeadConfig(kernel_width=k, n_filters=4, fc_width=4, dropout_rate=0.0)
             for k in (3, 5)]
    return ModelConfig(heads=heads, trunk_widths=[4, 1], seed=seed, **kw)


def random_window(seed=0):
    rng = np.random.default_rng(seed)
    return FeatureWindow(rng.standard_normal((5, 30)).astype(np.float32),
                         end_timestamp=900, label_timestamp=840, label=1,
                         normalized=True)


def cohort(n, seed=0, shape=(5, 30)):
    """n normalized windows of random values, labels alternating 0 and 1."""
    rng = np.random.default_rng(seed)
    return [FeatureWindow(rng.standard_normal(shape).astype(np.float32), end_timestamp=900,
                          label_timestamp=840, label=i % 2, normalized=True)
            for i in range(n)]


@functools.lru_cache(maxsize=2)
def finetune_base(aux_loss_weight):
    """A default-shaped model (dropout 0.3) whose batchnorm running
    statistics have moved off their initial values, as a saved model."""
    model = build_model(ModelConfig(seed=4, aux_loss_weight=aux_loss_weight))
    model.forward_batch(np.stack([w.values for w in cohort(64, seed=1)]), train=True)
    return model.snapshot()


def fresh_finetune_base(aux_loss_weight):
    model = build_model(ModelConfig(seed=4, aux_loss_weight=aux_loss_weight))
    model.restore(finetune_base(aux_loss_weight))
    return model


def reference_finetune(model, windows, hyper, include_intermediate_fc):
    """Fine-tuning as it ran before the frozen part was computed once: every
    mini-batch runs the whole network in inference mode, then backward, then
    Adam over every parameter layer."""
    model.set_transfer_freeze(include_intermediate_fc)
    x = np.stack([w.values for w in windows])
    y = np.array([w.label for w in windows], dtype=np.float64)
    aux_weight = model.config.aux_loss_weight if include_intermediate_fc else 0.0
    adam = Adam(model.param_layers(), lr=hyper.lr)
    rng = np.random.default_rng(hyper.seed)
    for _ in range(hyper.n_epochs):
        perm = rng.permutation(len(x))
        for s in range(0, len(x), hyper.batch_size):
            idx = perm[s:s + hyper.batch_size]
            p_final, p_heads = model.forward_batch(x[idx], train=False)
            d_final, d_heads = _objective_grads(p_final, p_heads, y[idx], aux_weight)
            model.backward(d_final, d_heads)
            adam.step()
            model.zero_grad()


def first_epochs(series, n):
    return sf.EpochSeries(*(getattr(series, f)[:n] for f in (
        "timestamps", "hr", "br", "hr_conf", "movement", "hr_diff", "labels")))


class TestBuild:
    def test_default_head_kernels(self):
        model = build_model()
        assert [h.conv.params["w"].shape[2] for h in model.heads] == [3, 5, 7, 11]

    def test_conv_output_lengths(self):
        model = build_model()
        x = np.zeros((1, 5, 30), dtype=np.float32)
        lengths = [h.conv.forward(x, train=False).shape[2] for h in model.heads]
        assert lengths == [28, 26, 24, 20]

    def test_same_seed_same_digest(self):
        assert build_model(ModelConfig(seed=7)).digest() == \
            build_model(ModelConfig(seed=7)).digest()

    def test_different_seed_different_digest(self):
        assert build_model(ModelConfig(seed=1)).digest() != \
            build_model(ModelConfig(seed=2)).digest()

    def test_kernel_wider_than_window_rejected(self):
        cfg = ModelConfig(heads=[HeadConfig(kernel_width=31)])
        with pytest.raises(ConfigError):
            build_model(cfg)

    def test_kernel_leaving_no_pooled_position_rejected(self):
        # one conv position, fewer than the pool width of 2
        with pytest.raises(ConfigError, match="no pooled position"):
            build_model(ModelConfig(heads=[HeadConfig(kernel_width=30)]))

    @pytest.mark.parametrize("field", ["input_features", "window_epochs", "trunk_widths",
                                       "kernel_width", "n_filters", "pool_width",
                                       "fc_width"])
    def test_size_below_one_rejected(self, field):
        if field == "trunk_widths":
            config = ModelConfig(trunk_widths=[0, 1])
        elif field in ("input_features", "window_epochs"):
            config = ModelConfig(**{field: 0})
        else:
            config = ModelConfig(heads=[HeadConfig(**{field: 0})])
        with pytest.raises(ConfigError, match=f"{field}.* must be >= 1, got 0"):
            build_model(config)

    @pytest.mark.parametrize("weight", [-0.1, float("nan")])
    def test_bad_aux_loss_weight_rejected(self, weight):
        with pytest.raises(ConfigError, match="aux_loss_weight"):
            build_model(ModelConfig(aux_loss_weight=weight))

    def test_trunk_must_end_in_one(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(trunk_widths=[8, 4]))

    @pytest.mark.parametrize("pool_width", [3, 4])
    def test_pool_width_not_dividing_window_shift_rejected(self, pool_width):
        with pytest.raises(ConfigError, match="pool width"):
            build_model(ModelConfig(heads=[HeadConfig(pool_width=pool_width)]))

    def test_no_heads_rejected(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(heads=[]))

    def test_param_count_near_budget(self):
        assert 10_000 < build_model().param_count() < 20_000


class TestForward:
    def test_outputs_in_range(self):
        model = build_model(tiny_config())
        p_final, p_heads = model.forward_batch(random_window().values[None])
        assert p_final.shape == (1,) and p_heads.shape == (1, 2)
        assert 0.0 <= p_final[0] <= 1.0
        assert np.all((p_heads >= 0.0) & (p_heads <= 1.0))

    def test_zero_final_weights_give_half(self):
        model = build_model(tiny_config())
        model.trunk[-1].params["w"][...] = 0.0
        model.trunk[-1].params["b"][...] = 0.0
        p_final, _ = model.forward_batch(random_window().values[None])
        assert p_final[0] == 0.5

    def test_wrong_shape_rejected(self):
        model = build_model(tiny_config())
        with pytest.raises(ShapeError):
            model.forward_batch(np.zeros((2, 5, 29), dtype=np.float32))

    def test_infer_mode_deterministic(self):
        model = build_model()  # default dropout 0.3; infer mode must ignore it
        x = np.asarray(random_window().values)[None]
        a, _ = model.forward_batch(x, train=False)
        b, _ = model.forward_batch(x, train=False)
        np.testing.assert_array_equal(a, b)

    def test_receptive_field_of_kernel_11_head(self):
        model = build_model()
        head = model.heads[3]  # kernel width 11
        x = np.asarray(random_window().values, dtype=np.float32)[None]
        base = head.conv.forward(x, train=False)
        x2 = x.copy()
        x2[0, :, 0:2] += 1.0  # perturb the first two epochs only
        pert = head.conv.forward(x2, train=False)
        changed = np.any(base != pert, axis=(0, 1))  # per output position
        # output position l covers input epochs l .. l+10
        assert changed[0] and changed[1]
        assert not changed[2:].any()


class TestTrainingHyper:
    @pytest.mark.parametrize("field, value", [("n_epochs", -1), ("n_epochs", -3),
                                              ("lr", -1.0), ("lr", 0.0),
                                              ("lr", float("nan")), ("lr", float("inf")),
                                              ("batch_size", 0)])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainingHyper(**{field: value})

    def test_zero_epochs_allowed(self):
        assert TrainingHyper(n_epochs=0).n_epochs == 0


class TestTrain:
    def test_zero_epochs_rejected_before_touching_model(self):
        model = build_model(tiny_config())
        before = model.digest()
        with pytest.raises(ConfigError, match="n_epochs"):
            train(model, [random_window(s) for s in range(8)], None, TrainingHyper(n_epochs=0))
        assert model.digest() == before

    def test_single_class_rejected(self):
        windows = [random_window(s) for s in range(8)]
        model = build_model(tiny_config())
        with pytest.raises(ValueError, match="single class"):
            train(model, windows, None, TrainingHyper(n_epochs=1))

    def test_seeded_determinism(self):
        windows = make_training_windows(n_subjects=1, hours=4, limit=80)
        digests = []
        for _ in range(2):
            model, report, _ = train_small_model(windows, model_seed=5, n_epochs=2)
            digests.append(report.digest)
        assert digests[0] == digests[1]

    def test_report_lengths(self, small_trained):
        # without validation windows the last of the 12 epochs is kept
        model, report, _ = small_trained
        assert report.best_epoch == 12
        assert report.val_accuracy is None
        assert 0.0 <= report.train_accuracy <= 1.0
        assert report.wall_time > 0
        assert report.digest == model.digest()

    def test_learns_separable_data(self, small_trained):
        model, report, normed = small_trained
        x, y = _prepare_xy(normed, model)
        aux_weight = model.config.aux_loss_weight
        loss, accuracy = _epoch_loss(model, x, y, aux_weight)
        assert report.train_accuracy == accuracy >= 0.85
        untrained_loss, _ = _epoch_loss(build_model(model.config), x, y, aux_weight)
        assert loss < untrained_loss

    @pytest.mark.parametrize("n_val", [0, 20])
    @pytest.mark.parametrize("n_epochs", [1, 3])
    def test_training_set_scored_once(self, monkeypatch, n_val, n_epochs):
        # every eval-mode forward: n_epochs validation passes, then one
        # pass over the 130 training windows, INFER_CHUNK at a time
        sizes = []
        forward = sleepnet.SleepNetModel.forward_batch

        def counting(model, x, train=False):
            if not train:
                sizes.append(len(x))
            return forward(model, x, train)

        monkeypatch.setattr(sleepnet.SleepNetModel, "forward_batch", counting)
        windows = cohort(130 + n_val)
        train(build_model(tiny_config()), windows[:130], windows[130:],
              TrainingHyper(n_epochs=n_epochs))
        assert sizes == [n_val] * (n_epochs if n_val else 0) + [INFER_CHUNK, INFER_CHUNK, 2]

    @pytest.mark.parametrize("aux_weight", [0.0, 0.3])
    def test_objective_and_its_gradients(self, aux_weight):
        # the loss and its gradients, computed apart, against the objective
        # written out from bce_loss and bce_grad
        rng = np.random.default_rng(3)
        p_final = np.concatenate([[0.0, 1.0, 0.5], rng.random(30)]).astype(np.float32)
        p_heads = rng.random((33, 4)).astype(np.float32)
        y = (rng.random(33) < 0.5).astype(np.float64)
        loss, grad = bce_loss(p_final, y), bce_grad(p_final, y)
        total, grad_heads = loss.sum() / 33, np.zeros_like(p_heads)
        if aux_weight:
            loss, grad_heads = bce_loss(p_heads, y[:, None]), bce_grad(p_heads, y[:, None])
            for i in range(4):
                total += aux_weight * (loss[:, i].sum() / 33)
            grad_heads = aux_weight * grad_heads / 33
        assert _objective(p_final, p_heads, y, aux_weight) == float(total)
        for got, want in zip(_objective_grads(p_final, p_heads, y, aux_weight),
                             (grad / 33, grad_heads)):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_frozen_layer_untouched(self):
        model = build_model(tiny_config())
        fc = model.trunk[0]
        fc.frozen = True
        before = {k: p.copy() for k, p in fc.params.items()}
        trained = {k: p.copy() for k, p in model.trunk[-1].params.items()}
        train(model, cohort(40), None, TrainingHyper(n_epochs=2, batch_size=8))
        for k, p in fc.params.items():
            np.testing.assert_array_equal(_bits(p), _bits(before[k]))
            assert np.all(fc.grads[k] == 0)
        assert not np.array_equal(model.trunk[-1].params["w"], trained["w"])

    def test_zero_aux_weight_blocks_direct_head_gradient(self):
        # with aux weight 0 the only path to head i is through trunk column i;
        # zeroing that column must zero the head's gradients entirely
        model = build_model(tiny_config())
        model.trunk[0].params["w"][:, 0] = 0.0
        x = np.stack([random_window(s).values for s in range(4)])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        p_final, p_heads = model.forward_batch(x, train=False)
        g = bce_grad(p_final, y)
        model.backward(g / len(x), np.zeros_like(p_heads))
        head0, head1 = model.heads
        assert all(np.all(v == 0) for v in head0.conv.grads.values())
        assert any(np.any(v != 0) for v in head1.conv.grads.values())

    def test_best_validation_snapshot_kept(self):
        # 20 training windows and a high rate, so that the validation loss
        # turns up after a few of the 8 epochs
        pool = make_training_windows(n_subjects=2, hours=6)
        zeros = [w for w in pool if w.label == 0][:60]
        ones = [w for w in pool if w.label == 1][:60]
        windows = [w for pair in zip(zeros, ones) for w in pair]
        stats = sf.fit_normalizer(windows[:60])
        normed = [sf.apply_normalizer(w, stats) for w in windows]
        tr, val = normed[:20], normed[60:]

        def run(n_epochs, val_windows):
            hyper = TrainingHyper(n_epochs=n_epochs, lr=0.03, batch_size=8, seed=0)
            return train(build_model(tiny_config(seed=2)), tr, val_windows, hyper)

        model, report = run(8, val)
        # a run of k epochs without validation replays the first k epochs
        # of that run bit for bit: its model is epoch k's
        x_val, y_val = _prepare_xy(val, model)
        runs = []
        for k in range(1, 9):
            model_k, report_k = run(k, None)
            assert report_k.best_epoch == k
            runs.append((_epoch_loss(model_k, x_val, y_val, model.config.aux_loss_weight),
                         report_k))
        val_losses = [loss for (loss, _), _ in runs]
        kept = int(np.argmin(val_losses))
        assert kept < 7  # an epoch other than the last is kept
        (_, val_accuracy), report_kept = runs[kept]
        assert report.best_epoch == kept + 1
        assert report.digest == report_kept.digest == model.digest()
        assert report.val_accuracy == val_accuracy
        assert report.train_accuracy == report_kept.train_accuracy

    def test_no_finite_validation_loss_keeps_last_epoch(self):
        windows = cohort(40)
        val = cohort(10, seed=1)
        val[0].values[0, 0] = np.nan
        model, report = train(build_model(tiny_config()), windows, val,
                              TrainingHyper(n_epochs=3, batch_size=8))
        _, last = train(build_model(tiny_config()), windows, None,
                        TrainingHyper(n_epochs=3, batch_size=8))
        assert report.best_epoch == 3
        assert report.digest == last.digest
        x_val, y_val = _prepare_xy(val, model)
        assert report.val_accuracy == _epoch_loss(model, x_val, y_val,
                                                  model.config.aux_loss_weight)[1]


class TestFinetune:
    def make_trained(self):
        windows = make_training_windows(n_subjects=1, hours=4, limit=100)
        model, _, normed = train_small_model(windows, model_seed=1, n_epochs=2)
        return model, normed

    def test_zero_epochs_bit_identical(self):
        model, normed = self.make_trained()
        before = model.digest()
        finetune_transfer(model, normed, TrainingHyper(n_epochs=0))
        assert model.digest() == before

    def test_heads_frozen_trunk_trained(self):
        model, normed = self.make_trained()
        head_before = {n: a.copy() for n, a in model.named_tensors()
                       if not n.startswith("trunk.")}
        trunk_before = {n: a.copy() for n, a in model.named_tensors()
                        if n.startswith("trunk.")}
        finetune_transfer(model, normed, TrainingHyper(n_epochs=3))
        head_after = dict(model.named_tensors())
        assert all(np.array_equal(head_before[n], head_after[n]) for n in head_before)
        assert any(not np.array_equal(trunk_before[n], head_after[n])
                   for n in trunk_before)

    def test_running_stats_also_frozen(self):
        model, normed = self.make_trained()
        bn_before = {n: a.copy() for n, a in model.named_tensors() if ".bn." in n}
        finetune_transfer(model, normed, TrainingHyper(n_epochs=2))
        bn_after = dict(model.named_tensors())
        for n, a in bn_before.items():
            np.testing.assert_array_equal(a, bn_after[n])

    def test_intermediate_fc_flag_widens_training(self):
        model, normed = self.make_trained()
        fc_before = {n: a.copy() for n, a in model.named_tensors() if ".fc" in n
                     and not n.startswith("trunk.")}
        conv_before = {n: a.copy() for n, a in model.named_tensors() if ".conv." in n}
        finetune_transfer(model, normed, TrainingHyper(n_epochs=3),
                          include_intermediate_fc=True)
        after = dict(model.named_tensors())
        assert any(not np.array_equal(fc_before[n], after[n]) for n in fc_before)
        assert all(np.array_equal(conv_before[n], after[n]) for n in conv_before)

    def test_empty_cohort_rejected(self):
        model = build_model(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            finetune_transfer(model, [])

    @pytest.mark.parametrize("n_windows", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("aux_loss_weight", [0.25, 0.0])
    @pytest.mark.parametrize("include_intermediate_fc", [False, True])
    def test_equals_per_batch_reference(self, include_intermediate_fc, aux_loss_weight,
                                        n_windows):
        windows = cohort(n_windows, seed=n_windows)
        for batch_size in (1, 7, 32):
            hyper = TrainingHyper(lr=0.01, batch_size=batch_size, n_epochs=2, seed=batch_size)
            expected = fresh_finetune_base(aux_loss_weight)
            reference_finetune(expected, windows, hyper, include_intermediate_fc)
            model = fresh_finetune_base(aux_loss_weight)
            rng_state = model.dropout_rng.bit_generator.state
            frozen = [(n, a.copy()) for n, a in model.named_tensors()
                      if not n.startswith("trunk.") and not (include_intermediate_fc
                                                             and ".fc" in n)]
            finetune_transfer(model, windows, hyper, include_intermediate_fc)
            assert model.digest() == expected.digest(), batch_size
            assert model.digest() != fresh_finetune_base(aux_loss_weight).digest()
            assert model.dropout_rng.bit_generator.state == rng_state
            after = dict(model.named_tensors())
            assert frozen and all(np.array_equal(a, after[n]) for n, a in frozen)

    @pytest.mark.parametrize("shape", [(5, 29), (4, 30)])
    @pytest.mark.parametrize("include_intermediate_fc", [False, True])
    def test_wrong_window_shape_rejected(self, include_intermediate_fc, shape):
        model = fresh_finetune_base(0.25)
        with pytest.raises(ShapeError, match="expected"):
            finetune_transfer(model, cohort(10, shape=shape), TrainingHyper(n_epochs=1),
                              include_intermediate_fc)

    @pytest.mark.parametrize("n_epochs", [0, 1, 3])
    @pytest.mark.parametrize("include_intermediate_fc", [False, True])
    def test_heads_run_once_per_call(self, monkeypatch, include_intermediate_fc, n_epochs):
        calls = {}
        forward = Conv1d.forward

        def counting(conv, x, train=False):
            calls[conv.name] = calls.get(conv.name, 0) + 1
            return forward(conv, x, train)

        monkeypatch.setattr(Conv1d, "forward", counting)
        model = fresh_finetune_base(0.25)
        finetune_transfer(model, cohort(130), TrainingHyper(n_epochs=n_epochs),
                          include_intermediate_fc)
        chunks = -(-130 // INFER_CHUNK)
        assert calls == {head.conv.name: chunks for head in model.heads}


class TestPersistence:
    def make_model(self):
        model = build_model(tiny_config(seed=9))
        windows = [random_window(s) for s in range(6)]
        model.norm_stats = sf.fit_normalizer(windows)
        model.heads[0].conv.frozen = True
        return model

    def test_roundtrip_bit_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.slpn"
        save_model(model, path)
        back = load_model(path)
        assert back.digest() == model.digest()
        np.testing.assert_array_equal(back.norm_stats.mean, model.norm_stats.mean)
        np.testing.assert_array_equal(back.norm_stats.std, model.norm_stats.std)
        assert back.heads[0].conv.frozen is True
        assert back.heads[1].conv.frozen is False
        assert back.config.to_dict() == model.config.to_dict()

    def test_roundtrip_preserves_running_stats(self, tmp_path):
        model = self.make_model()
        x = np.stack([random_window(s).values for s in range(4)])
        model.forward_batch(x, train=True)  # move the bn running stats
        path = tmp_path / "m.slpn"
        save_model(model, path)
        assert load_model(path).digest() == model.digest()

    def test_corrupt_payload_byte(self, tmp_path):
        path = tmp_path / "m.slpn"
        save_model(self.make_model(), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DigestMismatchError):
            load_model(path)

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "m.slpn"
        save_model(self.make_model(), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError, match=f"99.*{MODEL_FORMAT_VERSION}"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.slpn"
        save_model(self.make_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(TruncatedFileError):
            load_model(path)
        path.write_bytes(blob[:8])
        with pytest.raises(TruncatedFileError):
            load_model(path)

    @pytest.mark.parametrize("case", [*(f"missing-{key}" for key in HEADER_KEYS),
                                      "empty-manifest", "not-json", "not-utf8",
                                      "not-object", "empty-config",
                                      "manifest-entry-without-offset", "frozen-array",
                                      "frozen-string", "frozen-number", "pool-width-3",
                                      "pool-width-0"])
    def test_malformed_header(self, tmp_path, case):
        path = tmp_path / "m.slpn"
        save_model(self.make_model(), path)
        corrupt_header(path, case)
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("config", "dtype", "int32", "dtype must be float32 or float64"),
        ("norm_stats", "std", -1.0, "norm_stats"),
        ("norm_stats", "mean", float("nan"), "norm_stats"),
        ("norm_stats", "std", 0.0, "norm_stats"),
    ], ids=["int32-dtype", "negative-std", "nan-mean", "zero-std"])
    def test_unusable_header_value_rejected(self, tmp_path, section, key, value, message):
        # the header is re-signed, so its digest and canonical form hold and
        # only the value check can reject it
        path = tmp_path / "m.slpn"
        save_model(self.make_model(), path)
        blob = path.read_bytes()
        n = struct.unpack("<Q", blob[5:13])[0]
        header, payload = json.loads(blob[13:13 + n]), blob[13 + n:]
        if section == "config":
            header["config"][key] = value
        else:
            header["norm_stats"][key][0] = value
        header["digest"] = sleepnet._file_digest(header, payload)
        raw = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + payload)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_digit_changes_and_truncations_raise_format_error(self, tmp_path):
        # every one-digit change inside the header's config (the payload
        # stays valid) and every 97th cut of the file
        path = tmp_path / "m.slpn"
        save_model(build_model(), path)
        blob = path.read_bytes()
        n = struct.unpack("<Q", blob[5:13])[0]
        config = json.dumps(json.loads(blob[13:13 + n])["config"], sort_keys=True).encode()
        start = blob.index(config, 13)
        digits = [i for i in range(start, start + len(config)) if blob[i:i + 1].isdigit()]
        assert len(digits) == 44
        variants = [blob[:i] + bytes([d]) + blob[i + 1:] for i in digits
                    for d in b"0123456789" if d != blob[i]]
        variants += [blob[:cut] for cut in range(0, len(blob), 97)]
        for variant in variants:
            path.write_bytes(variant)
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_byte_flips_raise_format_error(self, tmp_path):
        # each byte of the prefix and the header, and every 97th payload
        # byte, XORed with 0x01 and with 0x80
        path = tmp_path / "m.slpn"
        save_model(self.make_model(), path)
        blob = path.read_bytes()
        payload_start = 13 + struct.unpack("<Q", blob[5:13])[0]
        offsets = [*range(payload_start), *range(payload_start, len(blob), 97)]
        for i in offsets:
            for mask in (0x01, 0x80):
                path.write_bytes(blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:])
                with pytest.raises(ModelFormatError):
                    load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.slpn"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)


class TestInferHypnogram:
    def test_length_and_start(self, small_trained):
        model, _, _ = small_trained
        series = synth_generate(SynthConfig(seed=40, hours=2))
        hyp = infer_hypnogram(model, series)
        n = len(series)
        assert len(hyp) == (n - 30) // 2 + 1
        assert hyp.start == int(series.timestamps[0]) + 28 * 30

    def test_requires_norm_stats(self):
        model = build_model(tiny_config())
        series = synth_generate(SynthConfig(seed=41, hours=2))
        with pytest.raises(ValueError, match="normalization"):
            infer_hypnogram(model, series)

    def test_short_series_warns_and_is_empty(self, small_trained):
        model, _, _ = small_trained
        night = synth_generate(SynthConfig(seed=45, hours=2))
        series = first_epochs(night, 29)
        with pytest.warns(UserWarning, match="shorter than one 30-epoch window"):
            hyp = infer_hypnogram(model, series)
        assert len(hyp) == 0
        assert hyp.start == int(night.timestamps[0])

    def test_probabilities_valid(self, small_trained):
        model, _, _ = small_trained
        series = synth_generate(SynthConfig(seed=42, hours=2))
        hyp = infer_hypnogram(model, series)
        assert np.all((hyp.probs >= 0) & (hyp.probs <= 1))

    def test_z_score_overflowing_float32_rejected(self, small_trained):
        model, _, _ = small_trained
        series = synth_generate(SynthConfig(seed=42, hours=2))
        series.hr[50] = 1e40  # finite in float64, not in float32 once z-scored
        with pytest.raises(ValueError, match="not finite"):
            infer_hypnogram(model, series)

    def test_short_series_overflowing_float32_rejected(self, small_trained):
        # checked before the short-record return, as the stream checks each record
        model, _, _ = small_trained
        series = first_epochs(synth_generate(SynthConfig(seed=45, hours=2)), 10)
        series.hr[5] = 1e308
        with pytest.raises(ValueError, match="not finite"):
            infer_hypnogram(model, series)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


@functools.lru_cache(maxsize=1)
def day_epochs():
    """Features of a 24 h synthetic record (2,880 epochs)."""
    return synth_generate(SynthConfig(seed=46, hours=24)).feature_matrix()


def day_z(model, n_epochs):
    return zscore(day_epochs()[:, :n_epochs], model.norm_stats)


@contextlib.contextmanager
def sigmoid_args():
    """The arguments of the sleepnet.sigmoid calls made in the block. A
    RecordScorer push's logits are the argument of its first call, which
    turns them into the heads' probabilities."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sleepnet, "sigmoid", lambda x: calls.append(x) or sigmoid(x))
        yield calls


def replay(model, z, sizes):
    """(probabilities, (windows, heads) logits) of a record pushed in pieces
    of the given sizes."""
    scorer = RecordScorer(model)
    pieces, logits, start = [], [], 0
    with sigmoid_args() as calls:
        for size in sizes:
            first_call = len(calls)
            pieces.append(scorer.push(z[:, start:start + size]))
            logits += calls[first_call:first_call + 1]
            start += size
    return (np.concatenate(pieces),
            np.concatenate([np.empty((0, len(model.heads)), np.float32), *logits]))


def assert_same_scores(got, want):
    """Both (probabilities, logits) pairs hold the same bits."""
    for g, w in zip(got, want):
        np.testing.assert_array_equal(_bits(g), _bits(w))


# record lengths around tile edges: the first windows, each head's first
# and second conv tiles filling up (k + 31 and k + 63 epochs for k = 3 to
# 11), windows 31-33, 63-65 and 127-129 around the fc tile and pass edges
# (30 + 2(w - 1) epochs for w windows), a night and a day
EDGE_LENGTHS = [*range(30, 44), *range(59, 76), *(30 + 2 * (w - 1) for w in (
    31, 32, 33, 63, 64, 65, 127, 128, 129)), 960, 2880]


class TestRecordScorer:
    """Any split of a record into pushes gives the bits of one whole push,
    which are those of the tiled definition."""

    @pytest.mark.parametrize("n_epochs", EDGE_LENGTHS)
    def test_record_by_record_equals_whole_record(self, small_trained, n_epochs):
        model = small_trained[0]
        z = day_z(model, n_epochs)
        whole = replay(model, z, [n_epochs])
        assert len(whole[0]) == (n_epochs - 30) // 2 + 1
        assert_same_scores(whole, tiled_probs(model, z))
        assert_same_scores(replay(model, z, [1] * n_epochs), whole)

    @given(n_epochs=st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 400)),
           sizes=st.lists(st.integers(0, 200), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_any_split_equals_whole_record(self, small_trained, n_epochs, sizes):
        model = small_trained[0]
        z = day_z(model, n_epochs)
        sizes = [*sizes, n_epochs]  # the last push takes what is left
        whole = RecordScorer(model).push(z)
        np.testing.assert_array_equal(_bits(replay(model, z, sizes)[0]), _bits(whole))

    @pytest.mark.parametrize("heads", [
        [(k, 4, 1, 4) for k in (1, 2, 4, 28)],
        [(k, 4, 2, 4) for k in (1, 2, 4, 28)],
        [(1, 4, 2, 4), (2, 4, 1, 4), (4, 4, 1, 4), (28, 4, 2, 4)],
        [(1, 3, 2, 4), (2, 8, 2, 4), (4, 1, 2, 4), (28, 5, 2, 4)],
        [(1, 3, 2, 64), (2, 8, 2, 4), (4, 1, 2, 9), (28, 5, 2, 64)],
    ], ids=["1", "2", "mixed-pool-widths", "mixed-n-filters", "mixed-fc-widths"])
    def test_other_kernel_and_pool_widths(self, small_trained, heads):
        # heads as (kernel width, n_filters, pool width, fc width). Even
        # kernels end a window's conv positions mid pool pair; k = 1 and
        # k = 28 give the longest and the shortest conv rows. Heads are
        # grouped by pool width and fc width, and a group's heads need not be
        # neighbours in the model; an fc width of 64 runs fc2 on another
        # matrix-vector kernel than 4 or 9
        heads = [HeadConfig(kernel_width=k, n_filters=f, fc_width=fc, dropout_rate=0.0,
                            pool_width=pool) for k, f, pool, fc in heads]
        model = build_model(ModelConfig(heads=heads, trunk_widths=[4, 1], seed=4))
        model.norm_stats = small_trained[0].norm_stats
        z = day_z(model, 200)
        whole = replay(model, z, [200])
        assert_same_scores(whole, tiled_probs(model, z))
        assert_same_scores(replay(model, z, [1] * 200), whole)

    def test_column_views_stay_in_bounds(self):
        # the scorer views its columns with np.ndarray, which raises where
        # as_strided would read past the buffer
        cols = _Columns(3, np.float32)
        data, offset = cols.buffer(5, 12)
        assert offset == 5 * data.itemsize
        np.ndarray((3, data.shape[1] - 5), data.dtype, data, offset, data.strides)
        with pytest.raises(ValueError):
            np.ndarray((3, data.shape[1] - 4), data.dtype, data, offset, data.strides)

    def test_record_by_record_keeps_bounded_state(self, small_trained):
        # a day pushed one epoch at a time holds what later windows need, at
        # most two tiles and a window, in buffers that grow by a factor of 2
        model = small_trained[0]
        scorer = RecordScorer(model)
        z = day_z(model, 2880)
        widths = set()
        for i in range(2880):
            scorer.push(z[:, i:i + 1])
            widths.update(c.data.shape[1] for c in (scorer._epochs,
                                                    *(g.cols for g in scorer._groups)))
        assert max(widths) <= 2 * (2 * TILE + model.config.window_epochs)


def count_forward_calls(monkeypatch):
    """Patch the forward of each layer type the network uses to count its
    calls; returns the Counter, keyed by class name."""
    calls = collections.Counter()
    for cls in (Conv1d, BatchNorm1d, MaxPool1d, ReLU, Dense):
        def counted(self, *args, _forward=cls.forward, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            return _forward(self, *args, **kwargs)
        monkeypatch.setattr(cls, "forward", counted)
    return calls


def model_state(model):
    """Every attribute of every layer, the tensors in its params and grads,
    and the model's own forward cache, as (name, object) pairs."""
    layers = [layer for head in model.heads for layer in vars(head).values()
              if isinstance(layer, Layer)] + model.trunk
    out = [("model._cache", model._cache)]
    for layer in layers:
        out += [(f"{layer.name}.{key}", value) for key, value in vars(layer).items()]
        out += [(f"{layer.name}.{kind}.{key}", value)
                for kind in ("params", "grads") for key, value in getattr(layer, kind).items()]
    return out


class TestInferenceLeavesModelAlone:
    """Inference runs the neuralcore functions on the scorer's own arrays:
    no layer forward runs, and nothing on the model changes."""

    def test_no_layer_forward_and_no_state_written(self, small_trained, monkeypatch):
        model = small_trained[0]
        night = synth_generate(SynthConfig(seed=43, hours=24))
        before = model_state(model)
        digest = model.digest()
        calls = count_forward_calls(monkeypatch)
        assert len(infer_hypnogram(model, night)) == 1426
        sf.stream.replay_series(model, first_epochs(night, 960))
        assert not calls
        after = model_state(model)
        assert [name for name, _ in after] == [name for name, _ in before]
        for (name, was), (_, now) in zip(before, after):
            assert now is was, name
        assert model.digest() == digest

    def test_forward_batch_train_and_finetune_run_the_layers(self, monkeypatch):
        model = build_model(tiny_config())
        x = np.stack([w.values for w in cohort(8)])
        for run in (lambda: model.forward_batch(x),
                    lambda: train(model, cohort(8), hyper=TrainingHyper(n_epochs=1)),
                    lambda: finetune_transfer(model, cohort(8), TrainingHyper(n_epochs=1))):
            calls = count_forward_calls(monkeypatch)
            run()
            assert set(calls) == {"Conv1d", "BatchNorm1d", "MaxPool1d", "ReLU", "Dense"}
            monkeypatch.undo()


def einsum_conv(x, w, b):
    view = sliding_window_view(x, w.shape[2], axis=2)  # (n, c, L-k+1, k)
    return np.einsum("ocj,nclj->nol", w, view) + b[None, :, None]


def rounding_bound(model, x):
    """How far two float32 evaluations of the model on windows x (N, 5, W)
    can differ when they add each conv position's 5k products in different
    orders. As in TestConv1dMatmul, a float32 sum of n terms is within
    (n + 1) eps sum|terms| of the exact value. The conv gap is carried
    through each later layer by its Lipschitz constant, and each later layer
    adds its own rounding on both sides."""
    eps = float(np.finfo(np.float32).eps)
    x = x.astype(np.float64)

    def f64(layer, name):
        return layer.params[name].astype(np.float64)

    def dense(layer, a, gap):
        w, b = f64(layer, "w"), f64(layer, "b")
        terms = (np.abs(a) + gap) @ np.abs(w).T + np.abs(b)
        return a @ w.T + b, gap @ np.abs(w).T + 2 * (w.shape[1] + 1) * eps * terms

    def sigmoid(a, gap):  # 1/4-Lipschitz; exp, add and divide round on each side
        return 1 / (1 + np.exp(-a)), gap / 4 + 2 * 8 * eps

    p_heads, gaps = [], []
    for head in model.heads:
        w, b, bn = f64(head.conv, "w"), f64(head.conv, "b"), head.bn
        a = einsum_conv(x, w, b)
        gap = 2 * (w.shape[1] * w.shape[2] + 1) * eps * einsum_conv(np.abs(x), np.abs(w),
                                                                     np.abs(b))
        # (a - mean) * inv_std * gamma + beta: four roundings on each side
        scale = (f64(bn, "gamma") * (1.0 / np.sqrt(bn.running_var + BN_EPS)))[:, None]
        beta = f64(bn, "beta")[:, None]
        centred = np.abs(a - bn.running_mean[:, None]) + gap
        a = (a - bn.running_mean[:, None]) * scale + beta
        gap = gap * np.abs(scale) + 2 * 5 * eps * (np.abs(scale) * centred + np.abs(beta))
        a = np.maximum(a, 0)
        pool = head.pool.pool_width
        a, gap = (sliding_window_view(v, pool, axis=2)[:, :, ::pool].max(axis=3)
                  for v in (a, gap))
        a, gap = dense(head.fc1, a.reshape(len(a), -1), gap.reshape(len(a), -1))
        a, gap = dense(head.fc2, np.maximum(a, 0), gap)
        a, gap = sigmoid(a, gap)
        p_heads.append(a)
        gaps.append(gap)
    a, gap = np.concatenate(p_heads, axis=1), np.concatenate(gaps, axis=1)
    for layer in model.trunk:
        a, gap = dense(layer, a, gap) if layer.params else (np.maximum(a, 0), gap)
    return sigmoid(a[:, 0], gap[:, 0])[1]


class TestBatchInvariance:
    """A window's output must not depend on how the record reaches the
    scorer: infer_hypnogram scores a night in one pass, the stream one
    record at a time, and the two must agree bit for bit."""

    @pytest.mark.parametrize("n_epochs", [30, 156, 158, 960])  # 1, 64, 65, 466 windows
    def test_infer_hypnogram_equals_per_window_forward(self, small_trained, n_epochs):
        """Bit for bit the tiled definition, head logits included, and within
        float32 rounding of forward_batch on each window alone."""
        model, _, _ = small_trained
        night = synth_generate(SynthConfig(seed=43, hours=8))
        series = first_epochs(night, n_epochs)
        windows = sf.make_windows(series)
        with sigmoid_args() as calls:
            hyp = infer_hypnogram(model, series)
        assert len(hyp) == (n_epochs - 30) // 2 + 1
        assert hyp.start == windows[0].label_timestamp
        assert_same_scores((hyp.probs, calls[0]), tiled_probs(
            model, zscore(series.feature_matrix(), model.norm_stats)))
        x = np.stack([sf.apply_normalizer(w, model.norm_stats).values for w in windows])
        per_window = np.array([model.forward_batch(w[None])[0][0] for w in x],
                              dtype=np.float64)
        assert np.all(np.abs(hyp.probs - per_window) <= rounding_bound(model, x))

    def test_forward_batch_sizes_equal_batch_one(self, small_trained):
        model, _, _ = small_trained
        night = synth_generate(SynthConfig(seed=44, hours=8))
        x = np.stack([sf.apply_normalizer(w, model.norm_stats).values
                      for w in sf.make_windows(night)])
        assert len(x) == 466
        one = [model.forward_batch(x[i:i + 1]) for i in range(len(x))]
        want_final = np.concatenate([p for p, _ in one])
        want_heads = np.concatenate([h for _, h in one])
        for size in (2, 3, 7, 64, 466):
            got = [model.forward_batch(x[s:s + size]) for s in range(0, len(x), size)]
            np.testing.assert_array_equal(
                _bits(np.concatenate([p for p, _ in got])), _bits(want_final))
            np.testing.assert_array_equal(
                _bits(np.concatenate([h for _, h in got])), _bits(want_heads))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_forward_batch_sizes_equal_batch_one_under_blas_threads(
            self, small_trained, tmp_path, threads):
        """The same check in a fresh process whose OpenBLAS runs `threads`
        threads (tier-1 otherwise runs only the machine's default); there
        too, a night scored in one pass equals the tiled definition and a
        record-by-record replay, at 1, 64, 65 and 466 windows."""
        model, _, _ = small_trained
        night = synth_generate(SynthConfig(seed=44, hours=8))
        x = np.stack([sf.apply_normalizer(w, model.norm_stats).values
                      for w in sf.make_windows(night)])
        save_model(model, tmp_path / "m.slpn")
        np.save(tmp_path / "x.npy", x)
        np.save(tmp_path / "z.npy", zscore(night.feature_matrix(), model.norm_stats))
        src = os.path.dirname(os.path.dirname(sf.__file__))
        path = os.pathsep.join(filter(None, [src, os.path.dirname(__file__),
                                             os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        sizes = [str(size) for size in (1, 2, 3, 7, 64, 466)]
        proc = subprocess.run([sys.executable, "-c", _BATCH_SIZES_SCRIPT, str(tmp_path), *sizes],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        got = np.load(tmp_path / "probs.npz")
        for size in sizes[1:]:
            np.testing.assert_array_equal(_bits(got[f"final{size}"]), _bits(got["final1"]))
            np.testing.assert_array_equal(_bits(got[f"heads{size}"]), _bits(got["heads1"]))
        for n_epochs in (30, 156, 158, 960):
            night_pass = _bits(got[f"night{n_epochs}"])
            assert len(night_pass) == (n_epochs - 30) // 2 + 1
            np.testing.assert_array_equal(night_pass, _bits(got[f"definition{n_epochs}"]))
            np.testing.assert_array_equal(night_pass, _bits(got[f"replay{n_epochs}"]))


# argv: a directory holding m.slpn, x.npy and z.npy, then batch sizes; writes
# to probs.npz there the forward_batch probabilities of the windows x at each
# batch size, and for the first 30, 156, 158 and 960 epochs of the z-scored
# night z its RecordScorer probabilities pushed whole and one epoch at a time,
# and its tiled definition
_BATCH_SIZES_SCRIPT = """
import sys
import numpy as np
from somnoflow.sleepnet import RecordScorer, load_model
from conftest import tiled_probs
d, sizes = sys.argv[1], sys.argv[2:]
model = load_model(d + "/m.slpn")
x = np.load(d + "/x.npy")
z = np.load(d + "/z.npy")
out = {}
for size in sizes:
    got = [model.forward_batch(x[s:s + int(size)]) for s in range(0, len(x), int(size))]
    out["final" + size] = np.concatenate([p for p, _ in got])
    out["heads" + size] = np.concatenate([h for _, h in got])
for n in (30, 156, 158, 960):
    out[f"night{n}"] = RecordScorer(model).push(z[:, :n])
    scorer = RecordScorer(model)
    out[f"replay{n}"] = np.concatenate([scorer.push(z[:, i:i + 1]) for i in range(n)])
    out[f"definition{n}"] = tiled_probs(model, z[:, :n])[0]
np.savez(d + "/probs.npz", **out)
"""
