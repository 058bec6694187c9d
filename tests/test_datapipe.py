import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import somnoflow as sf
from somnoflow import datapipe
from somnoflow.datapipe import (IngestError, SynthConfig, apply_normalizer,
                                build_training_set, compute_hr_diff,
                                fit_normalizer, ingest_epochs, make_windows,
                                read_transitions, synth_generate, write_epochs,
                                write_transitions)


def make_csv(rows, header="timestamp,hr,br,hr_conf,movement"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def make_series(n, label=0, start=0):
    rng = np.random.default_rng(0)
    hr = 60 + rng.standard_normal(n)
    labels = np.full(n, label, dtype=np.int64)
    return datapipe.EpochSeries(
        timestamps=start + 30 * np.arange(n, dtype=np.int64),
        hr=hr, br=np.full(n, 14.0), hr_conf=np.full(n, 0.9),
        movement=np.full(n, 0.1), hr_diff=compute_hr_diff(hr), labels=labels)


class TestIngest:
    def test_constant_hr_zero_diff(self):
        src = make_csv([f"{30*i},60,14,0.9,0.1" for i in range(5)])
        series = ingest_epochs(src)
        assert np.all(series.hr_diff == 0)

    def test_hr_diff_by_hand(self):
        src = make_csv(["0,60,14,0.9,0.1", "30,62,14,0.9,0.1", "60,61,14,0.9,0.1"])
        series = ingest_epochs(src)
        np.testing.assert_allclose(series.hr_diff, [0.0, 2.0, -1.0])

    def test_gap_error_names_row(self):
        src = make_csv(["0,60,14,0.9,0.1", "30,60,14,0.9,0.1", "90,60,14,0.9,0.1"])
        with pytest.raises(IngestError, match="row 4"):
            ingest_epochs(src)

    def test_gap_fill_limited(self):
        rows = ["0,60,14,0.9,0.1", "90,62,14,0.9,0.1"]
        series = ingest_epochs(make_csv(rows), fill_gaps=True)
        assert len(series) == 4  # two missing epochs filled
        np.testing.assert_array_equal(series.timestamps, [0, 30, 60, 90])
        assert series.hr[1] == 60.0 and series.hr[2] == 60.0  # carried forward
        rows = ["0,60,14,0.9,0.1", "150,62,14,0.9,0.1"]
        with pytest.raises(IngestError, match="exceeds fill limit"):
            ingest_epochs(make_csv(rows), fill_gaps=True)

    def test_non_monotonic(self):
        src = make_csv(["0,60,14,0.9,0.1", "30,60,14,0.9,0.1", "0,60,14,0.9,0.1"])
        with pytest.raises(IngestError, match="non-monotonic"):
            ingest_epochs(src)

    def test_hr_conf_out_of_range(self):
        src = make_csv(["0,60,14,1.5,0.1"])
        with pytest.raises(IngestError, match="row 2.*hr_conf"):
            ingest_epochs(src)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    def test_non_finite_vital_names_row(self, column, value):
        rows = [f"{30 * i},60,14,0.9,0.1" for i in range(4)]
        fields = rows[2].split(",")
        fields[column] = value
        rows[2] = ",".join(fields)
        with pytest.raises(IngestError, match="row 4: .* must be finite"):
            ingest_epochs(make_csv(rows))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_timestamp_names_row(self, value):
        rows = ["0,60,14,0.9,0.1", f"{value},60,14,0.9,0.1"]
        with pytest.raises(IngestError, match="row 3: unparseable"):
            ingest_epochs(make_csv(rows))

    def test_missing_column(self):
        src = io.StringIO("timestamp,hr,br\n0,60,14\n")
        with pytest.raises(IngestError, match="header"):
            ingest_epochs(src)

    def test_labels_parsed(self):
        src = make_csv(["0,60,14,0.9,0.1,1", "30,60,14,0.9,0.1,0"],
                       header="timestamp,hr,br,hr_conf,movement,label")
        series = ingest_epochs(src)
        np.testing.assert_array_equal(series.labels, [1, 0])

    @pytest.mark.parametrize("label", ["x", "1.0", "inf", "2"])
    def test_bad_label_names_row(self, label):
        src = make_csv(["0,60,14,0.9,0.1,1", f"30,60,14,0.9,0.1,{label}"],
                       header="timestamp,hr,br,hr_conf,movement,label")
        with pytest.raises(IngestError, match=f"row 3: label must be 0 or 1, got '{label}'"):
            ingest_epochs(src)

    def test_roundtrip_through_csv(self):
        series = synth_generate(SynthConfig(seed=4, hours=1))
        buf = io.StringIO()
        write_epochs(series, buf)
        buf.seek(0)
        back = ingest_epochs(buf)
        np.testing.assert_allclose(back.hr, series.hr, atol=1e-6)
        np.testing.assert_array_equal(back.labels, series.labels)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)


class TestMakeWindows:
    def test_exactly_one_window(self):
        assert len(make_windows(make_series(30))) == 1

    def test_forty_epochs_six_windows(self):
        assert len(make_windows(make_series(40))) == 6

    def test_too_short_warns_empty(self):
        with pytest.warns(UserWarning):
            assert make_windows(make_series(29)) == []

    @given(st.integers(min_value=30, max_value=200))
    @settings(max_examples=60)
    def test_count_formula(self, n):
        windows = make_windows(make_series(n))
        assert len(windows) == (n - 30) // 2 + 1

    def test_values_are_exact_copies(self):
        series = make_series(40)
        for i, w in enumerate(make_windows(series)):
            np.testing.assert_array_equal(w.values, series.feature_matrix()[:, 2 * i:2 * i + 30])

    def test_reassembly_reproduces_series(self):
        series = make_series(44)
        windows = make_windows(series)
        rebuilt = np.full((5, 44), np.nan)
        for i, w in enumerate(windows):
            rebuilt[:, 2 * i:2 * i + 30] = w.values
        np.testing.assert_array_equal(rebuilt, series.feature_matrix())

    def test_label_from_final_minute(self):
        series = make_series(32, label=1)
        series.labels[:2] = 0  # disagreement far from the final minute
        w = make_windows(series)
        assert all(x.label == 1 for x in w)

    def test_disagreeing_final_minute_unlabeled(self):
        series = make_series(30, label=1)
        series.labels[-1] = 0
        assert make_windows(series)[0].label is None

    def test_label_timestamp_is_final_minute_start(self):
        series = make_series(30, start=600)
        w = make_windows(series)[0]
        assert w.label_timestamp == 600 + 28 * 30
        assert w.end_timestamp == 600 + 30 * 30


class TestNormalizer:
    def test_standardized_near_identity(self):
        rng = np.random.default_rng(0)
        windows = [datapipe.FeatureWindow(rng.standard_normal((5, 30)), 0, 0, 1)
                   for _ in range(50)]
        stats = fit_normalizer(windows)
        assert np.all(np.abs(stats.mean) < 0.05)
        assert np.all(np.abs(stats.std - 1) < 0.05)

    def test_constant_feature(self):
        vals = np.ones((5, 30))
        vals[2] = 5.0
        with pytest.warns(UserWarning) as caught:
            stats = fit_normalizer([datapipe.FeatureWindow(vals, 0, 0, 1)] * 3)
        # every row is constant, so each of the five features warns
        assert [str(w.message).split("'")[1] for w in caught] == list(datapipe.FEATURE_NAMES)
        assert stats.mean[2] == 5.0
        assert stats.std[2] == 1.0
        out = apply_normalizer(datapipe.FeatureWindow(vals, 0, 0, 1), stats)
        assert np.all(out.values[2] == 0.0)
        assert out.normalized

    def test_double_fit_gives_unit_stats(self):
        rng = np.random.default_rng(3)
        windows = [datapipe.FeatureWindow(rng.standard_normal((5, 30)) * 7 + 3, 0, 0, 1)
                   for _ in range(40)]
        stats = fit_normalizer(windows)
        transformed = [apply_normalizer(w, stats) for w in windows]
        restats = fit_normalizer(transformed)
        assert np.all(np.abs(restats.mean) < 1e-4)
        assert np.all(np.abs(restats.std - 1) < 1e-4)


class TestSynth:
    def test_seeded_determinism(self):
        a = synth_generate(SynthConfig(seed=5, hours=2))
        b = synth_generate(SynthConfig(seed=5, hours=2))
        np.testing.assert_array_equal(a.hr, b.hr)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.transitions == b.transitions

    def test_state_conditional_hr_means(self):
        # zero blur so transition ramps don't bias the state-conditional means
        series = synth_generate(SynthConfig(seed=1, hours=24, transition_blur_min=0))
        sleep = series.labels == 1
        assert abs(series.hr[sleep].mean() - 58.0) < 1.0
        assert abs(series.hr[~sleep].mean() - 72.0) < 1.0

    def test_zero_blur_steps_exactly_at_transitions(self):
        cfg = SynthConfig(seed=2, hours=4, transition_blur_min=0,
                          sleep_stds={"hr": 0, "br": 0, "hr_conf": 0, "movement": 0},
                          wake_stds={"hr": 0, "br": 0, "hr_conf": 0, "movement": 0})
        series = synth_generate(cfg)
        # with zero noise hr is exactly the state mean everywhere
        expect = np.where(series.labels == 1, 58.0, 72.0)
        np.testing.assert_array_equal(series.hr, expect)

    def test_sleep_fraction_converges(self):
        fracs = []
        for seed in range(8):
            cfg = SynthConfig(seed=seed, hours=72, mean_sleep_min=240, mean_wake_min=60)
            series = synth_generate(cfg)
            fracs.append((series.labels == 1).mean())
        assert abs(np.mean(fracs) - 240 / 300) < 0.03

    def test_record_too_short_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(seed=0, hours=0.5))

    def test_single_sleep_period_structure(self):
        series = synth_generate(SynthConfig(seed=3, hours=8, mean_sleep_min=360,
                                            single_sleep_period=True))
        kinds = [k for k, _ in series.transitions]
        assert kinds == ["sleep_onset", "wake_time"]
        runs = np.flatnonzero(np.diff(series.labels)) + 1
        assert len(runs) == 2  # wake -> sleep -> wake

    def test_transition_sidecar_roundtrip(self, tmp_path):
        series = synth_generate(SynthConfig(seed=3, hours=3))
        path = tmp_path / "truth.csv"
        write_transitions(series.transitions, path)
        assert read_transitions(path) == series.transitions

    @pytest.mark.parametrize("row", ["sleep_onset", "sleep_onset,", "sleep_onset,inf",
                                     "sleep_onset,nan", "sleep_onset,soon"])
    def test_transition_row_without_finite_timestamp(self, row):
        text = f"kind,timestamp\nwake_time,600\n\n{row}\n"
        with pytest.raises(IngestError, match="row 4: no finite timestamp"):
            read_transitions(io.StringIO(text))


class TestBuildTrainingSet:
    def test_context_window_bounds(self):
        series = make_series(480)  # 4 h
        series.labels[240:] = 1    # one transition at epoch 240 (minute 120)
        windows = build_training_set([series], context_hours=1, seed=0)
        transition_ts = 240 * 30
        for w in windows:
            assert abs(w.end_timestamp - transition_ts) <= 3600

    def test_all_sleep_errors(self):
        with pytest.raises(ValueError, match="no transitions"):
            build_training_set([make_series(200, label=1)], seed=0)

    def test_balanced_classes(self):
        series_list = [synth_generate(SynthConfig(seed=s, hours=8)) for s in range(10)]
        windows = build_training_set(series_list, context_hours=1, seed=0)
        labels = np.array([w.label for w in windows])
        assert abs(labels.mean() - 0.5) < 0.01

    def test_seeded_determinism(self):
        series_list = [synth_generate(SynthConfig(seed=s, hours=6)) for s in range(3)]
        a = build_training_set(series_list, seed=4)
        b = build_training_set(series_list, seed=4)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.values, wb.values)
