import numpy as np
import pytest

import somnoflow as sf
from somnoflow.datapipe import FeatureWindow, SynthConfig, synth_generate
from somnoflow.neuralcore import ConfigError, ShapeError
from somnoflow.sleepnet import (DigestMismatchError, HeadConfig, ModelConfig,
                                ModelFormatError, TrainingHyper,
                                TruncatedFileError, VersionMismatchError,
                                build_model, finetune_transfer, forward,
                                infer_hypnogram, load_model, save_model, train)
from conftest import make_training_windows, train_small_model

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

    def test_trunk_must_end_in_one(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(trunk_widths=[8, 4]))

    def test_no_heads_rejected(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(heads=[]))

    def test_param_count_near_budget(self):
        assert 10_000 < build_model().param_count() < 20_000


class TestForward:
    def test_outputs_in_range(self):
        model = build_model(tiny_config())
        p_final, p_heads = forward(model, random_window())
        assert 0.0 <= p_final <= 1.0
        assert np.all((p_heads >= 0.0) & (p_heads <= 1.0))

    def test_zero_final_weights_give_half(self):
        model = build_model(tiny_config())
        model.trunk[-1].params["w"][...] = 0.0
        model.trunk[-1].params["b"][...] = 0.0
        p_final, _ = forward(model, random_window())
        assert p_final == 0.5

    def test_unnormalized_window_rejected(self):
        model = build_model(tiny_config())
        w = random_window()
        w.normalized = False
        with pytest.raises(ValueError, match="normalized"):
            forward(model, w)

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


class TestTrain:
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
        model, report, _ = small_trained
        assert len(report.train_loss) == len(report.train_accuracy)
        assert report.wall_time > 0
        assert report.digest == model.digest()

    def test_learns_separable_data(self, small_trained):
        _, report, _ = small_trained
        assert report.train_accuracy[-1] >= 0.85
        assert report.train_loss[-1] < report.train_loss[0]

    def test_zero_aux_weight_blocks_direct_head_gradient(self):
        # with aux weight 0 the only path to head i is through trunk column i;
        # zeroing that column must zero the head's gradients entirely
        model = build_model(tiny_config())
        model.trunk[0].params["w"][:, 0] = 0.0
        x = np.stack([random_window(s).values for s in range(4)])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        p_final, p_heads = model.forward_batch(x, train=False)
        from somnoflow.neuralcore import bce_loss
        _, g = bce_loss(p_final, y)
        model.backward(g / len(x), np.zeros_like(p_heads))
        head0, head1 = model.heads
        assert all(np.all(v == 0) for v in head0.conv.grads.values())
        assert any(np.any(v != 0) for v in head1.conv.grads.values())

    def test_best_validation_snapshot_kept(self):
        pool = make_training_windows(n_subjects=2, hours=6)
        zeros = [w for w in pool if w.label == 0][:60]
        ones = [w for w in pool if w.label == 1][:60]
        windows = [w for pair in zip(zeros, ones) for w in pair]
        split = len(windows) // 2
        stats = sf.fit_normalizer(windows[:split])
        normed = [sf.apply_normalizer(w, stats) for w in windows]
        model = build_model(tiny_config(seed=2))
        model.norm_stats = stats
        model, report = train(model, normed[:split], normed[split:],
                              TrainingHyper(n_epochs=4, seed=0))
        best_epoch = int(np.argmin(report.val_loss))
        # the retained parameters reproduce the best epoch's validation loss
        from somnoflow.sleepnet import _epoch_loss, _prepare_xy
        xv, yv = _prepare_xy(normed[split:], model)
        loss, _ = _epoch_loss(model, xv, yv, model.config.aux_loss_weight)
        assert loss == pytest.approx(report.val_loss[best_epoch], rel=1e-6)


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
        with pytest.raises(VersionMismatchError, match="99.*1"):
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


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


class TestBatchInvariance:
    """A window's output must not depend on the batch it is scored in:
    infer_hypnogram scores a night in batches, the stream one window at a
    time, and the two must agree bit for bit."""

    @pytest.mark.parametrize("n_epochs", [30, 156, 158, 960])  # 1, 64, 65, 466 windows
    def test_infer_hypnogram_equals_per_window_forward(self, small_trained, n_epochs):
        model, _, _ = small_trained
        night = synth_generate(SynthConfig(seed=43, hours=8))
        series = first_epochs(night, n_epochs)
        windows = sf.make_windows(series)
        want = np.array([model.forward_batch(
            sf.apply_normalizer(w, model.norm_stats).values[None])[0][0]
            for w in windows], dtype=np.float64)
        hyp = infer_hypnogram(model, series)
        assert len(want) == (n_epochs - 30) // 2 + 1
        assert hyp.start == windows[0].label_timestamp
        np.testing.assert_array_equal(_bits(hyp.probs), _bits(want))

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
