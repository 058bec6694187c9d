import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from somnoflow.datapipe import NormStats, SynthConfig, synth_generate


def truncate(series, n):
    return dataclasses.replace(
        series, timestamps=series.timestamps[:n], hr=series.hr[:n],
        br=series.br[:n], hr_conf=series.hr_conf[:n],
        movement=series.movement[:n], hr_diff=series.hr_diff[:n],
        labels=series.labels[:n])
from somnoflow.stream import SleepStream, batch_emissions, replay_series

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def feed_series(stream, series, n=None):
    out = []
    for i in range(n if n is not None else len(series)):
        out.extend(stream.feed(int(series.timestamps[i]), float(series.hr[i]),
                               float(series.br[i]), float(series.hr_conf[i]),
                               float(series.movement[i])))
    return out


@pytest.fixture()
def series():
    return synth_generate(SynthConfig(seed=50, hours=2))


class TestWarmupAndCadence:
    def test_no_emissions_before_thirty_epochs(self, small_trained, series):
        stream = SleepStream(small_trained[0])
        assert feed_series(stream, series, 29) == []

    def test_first_emission_on_thirtieth(self, small_trained, series):
        stream = SleepStream(small_trained[0])
        out = feed_series(stream, series, 30)
        classes = [e for e in out if e.kind == "class"]
        assert len(classes) == 1
        # class timestamp = start of the window's final minute
        assert classes[0].payload[0] == int(series.timestamps[29]) - 30

    def test_every_second_epoch_thereafter(self, small_trained, series):
        stream = SleepStream(small_trained[0])
        out = feed_series(stream, series, 34)
        assert sum(1 for e in out if e.kind == "class") == 3  # epochs 30, 32, 34

    def test_requires_norm_stats(self, series):
        from somnoflow.sleepnet import build_model
        with pytest.raises(ValueError, match="normalization"):
            SleepStream(build_model())


class TestErrorFrames:
    def test_out_of_order_timestamp(self, small_trained, series):
        stream = SleepStream(small_trained[0])
        feed_series(stream, series, 10)
        before = state(stream)
        out = stream.feed(int(series.timestamps[10]) + 60, 60, 14, 0.9, 0.1)
        assert [e.kind for e in out] == ["err"]
        assert "out-of-order" in out[0].format()
        assert state(stream) == before

    def test_invalid_values(self, small_trained):
        stream = SleepStream(small_trained[0])
        out = stream.feed(0, 60, 14, 1.5, 0.1)
        assert out[0].kind == "err"
        assert stream._scorer.n_epochs == 0

    def test_malformed_line(self, small_trained):
        stream = SleepStream(small_trained[0])
        assert stream.feed_line("garbage")[0].kind == "err"
        assert stream.feed_line("1,2,notanumber,4,5")[0].kind == "err"

    def test_wellformed_line_accepted(self, small_trained):
        stream = SleepStream(small_trained[0])
        assert stream.feed_line("0,60,14,0.9,0.1") == []
        assert stream._scorer.n_epochs == 1

    def test_feed_after_finalize(self, small_trained):
        stream = SleepStream(small_trained[0])
        stream.finalize()
        assert stream.feed(0, 60, 14, 0.9, 0.1)[0].kind == "err"


def record_lines(series):
    return [",".join([str(int(series.timestamps[i]))]
                     + [repr(float(v[i])) for v in (series.hr, series.br, series.hr_conf,
                                                    series.movement)])
            for i in range(len(series))]


def state(stream):
    scorer = stream._scorer
    return (scorer.n_epochs, scorer.n_windows, scorer._z.data.tobytes(), stream._last_ts,
            stream._last_hr, list(stream._probs), stream._hyp_start, set(stream._emitted),
            stream._finalized)


def feed_lines(stream, lines):
    return [e.format() for line in lines for e in stream.feed_line(line)]


# text fields of an epoch record: numbers of every kind, junk, and the next
# timestamp of a warm stream (870)
RECORD_FIELD = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=6),
                         st.sampled_from(["", "nan", "inf", "-inf", "1e999", "870", "0.5"]))


class TestHostileInput:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    def test_non_finite_vital(self, small_trained, series, column, value):
        lines = record_lines(series)[:80]
        stream = SleepStream(small_trained[0])
        head = feed_lines(stream, lines[:40])
        before = state(stream)
        fields = lines[40].split(",")
        fields[column] = value
        assert feed_lines(stream, [",".join(fields)]) == \
            [f"err,invalid feature values at {series.timestamps[40]}"]
        assert state(stream) == before
        # the rest of the record scores as if the bad line never came
        clean = SleepStream(small_trained[0])
        assert head + feed_lines(stream, lines[40:]) == feed_lines(clean, lines)

    @pytest.mark.parametrize("line", ["870,1e40,14,0.9,0.1", "870,60,1e40,0.9,0.1",
                                      "870,60,14,0.9,1e40"])
    def test_z_score_overflowing_float32(self, small_trained, line):
        # finite vitals whose z-score is inf in float32
        lines = [f"{30 * i},60,14,0.9,0.1" for i in range(29)]
        stream = SleepStream(small_trained[0])
        feed_lines(stream, lines)
        before = state(stream)
        assert feed_lines(stream, [line]) == \
            ["err,feature values at 870 overflow float32 once z-scored"]
        assert state(stream) == before
        clean = SleepStream(small_trained[0])
        good = "870,60,14,0.9,0.1"
        assert feed_lines(stream, [good]) == feed_lines(clean, lines + [good])[-1:]

    def test_hr_diff_z_score_overflowing_float32(self, small_trained):
        model = copy.deepcopy(small_trained[0])
        mean, std = model.norm_stats.mean.copy(), model.norm_stats.std.copy()
        mean[4], std[4] = 0.0, 1e-300  # any change of hr overflows hr_diff's z-score alone
        model.norm_stats = NormStats(mean=mean, std=std)
        stream = SleepStream(model)
        feed_lines(stream, [f"{30 * i},60,14,0.9,0.1" for i in range(29)])
        before = state(stream)
        assert feed_lines(stream, ["870,61,14,0.9,0.1"]) == \
            ["err,feature values at 870 overflow float32 once z-scored"]
        assert state(stream) == before
        assert feed_lines(stream, ["870,60,14,0.9,0.1"])[0].startswith("class,840,")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_timestamp(self, small_trained, series, value):
        stream = SleepStream(small_trained[0])
        feed_lines(stream, record_lines(series)[:10])
        before = state(stream)
        line = f"{value},60,14,0.9,0.1"
        assert feed_lines(stream, [line]) == [f"err,malformed line: {line!r}"]
        assert state(stream) == before

    @given(line=st.one_of(st.text(), st.lists(RECORD_FIELD, max_size=7).map(",".join)),
           warm=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_line_gives_frames_or_one_err(self, small_trained, line, warm):
        # warm: 29 epochs in, so a valid record at 870 s completes the first window
        stream = SleepStream(small_trained[0])
        if warm:
            feed_lines(stream, [f"{30 * i},60,14,0.9,0.1" for i in range(29)])
        before = state(stream)
        out = stream.feed_line(line)
        if any(e.kind == "err" for e in out):
            assert len(out) == 1
            assert state(stream) == before
        else:
            assert {e.kind for e in out} <= {"class", "event"}
            assert stream._scorer.n_epochs == before[0] + 1
        for e in out:
            e.format()


class TestEvents:
    def night(self, seed=60):
        return synth_generate(SynthConfig(seed=seed, hours=6, mean_sleep_min=240,
                                          single_sleep_period=True))

    def test_events_emitted_once(self, small_trained):
        out, _ = replay_series(small_trained[0], self.night())
        kinds = [e.payload[0] for e in out if e.kind == "event"]
        assert len(kinds) == len(set(kinds))

    def test_empty_stream_finalize(self, small_trained):
        stream = SleepStream(small_trained[0])
        tail, events = stream.finalize()
        assert tail == []
        assert events.sleep_onset is None and events.wake_time is None

    def test_mid_confirmation_matches_batch(self, small_trained):
        # stop a night 40 minutes after sleep starts: onset still unconfirmed
        series = self.night()
        onset_min = next(i for i in range(len(series)) if series.labels[i] == 1) // 2
        n_epochs = (onset_min + 40) * 2
        stream = SleepStream(small_trained[0])
        out = feed_series(stream, series, n_epochs)
        tail, events = stream.finalize()
        batch_out, batch_events = batch_emissions(
            small_trained[0], truncate(series, n_epochs))
        assert events.sleep_onset == batch_events.sleep_onset
        assert sorted(e.format() for e in out + tail) == \
            sorted(e.format() for e in batch_out)


class TestBatchEquivalence:
    def test_replay_matches_batch(self, small_trained):
        for seed in (70, 71, 72):
            series = synth_generate(SynthConfig(seed=seed, hours=3,
                                                single_sleep_period=True))
            stream_out, stream_events = replay_series(small_trained[0], series)
            batch_out, batch_events = batch_emissions(small_trained[0], series)
            assert sorted(e.format() for e in stream_out) == \
                sorted(e.format() for e in batch_out)
            assert stream_events.sleep_onset == batch_events.sleep_onset
            assert stream_events.wake_time == batch_events.wake_time

    def test_class_probabilities_bit_exact(self, small_trained, series):
        stream_out, _ = replay_series(small_trained[0], series)
        batch_out, _ = batch_emissions(small_trained[0], series)
        s = [e.payload for e in stream_out if e.kind == "class"]
        b = [e.payload for e in batch_out if e.kind == "class"]
        assert s == b  # exact float equality, not formatted
