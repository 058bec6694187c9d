import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import final_state_onset
from somnoflow import reference
from somnoflow.events import (BinaryHypnogram, EventRuleConfig, Hypnogram,
                              OnsetWatch, TraceEntry, binarize, detect_sleep_time,
                              detect_wake_time, format_trace, predict_events,
                              smooth_probs, suppress_short_runs)


def hyp(probs, start=0):
    return Hypnogram(start=start, probs=np.asarray(probs, dtype=np.float64))


def bhyp(states, start=0):
    return BinaryHypnogram(start=start, states=np.asarray(states, dtype=np.int8))


SCALED = EventRuleConfig(sleep_confirm=4, awake_break=2, wake_confirm=2,
                         reentry_run=2, min_run=1, median_width=1)


class TestTypes:
    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            hyp([0.2, 1.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_rejected(self, bad):
        # NaN compares false to both bounds, so a range check alone lets it in
        with pytest.raises(ValueError, match="finite"):
            Hypnogram(0, [0.1, bad, 0.9])

    def test_even_median_width_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            EventRuleConfig(median_width=4)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            EventRuleConfig(threshold=0.0)
        with pytest.raises(ValueError):
            EventRuleConfig(threshold=1.0)

    def test_duration_minimum(self):
        with pytest.raises(ValueError):
            EventRuleConfig(min_run=0)

    @pytest.mark.parametrize("states", [[0.0, 0.7, 1.0], [0, 1, 0, 2, 1, 1, 1, 1]])
    def test_binary_states_other_than_0_1_rejected(self, states):
        # cast to int8, 0.7 would read as awake; a 2 is neither state, and on
        # it the engine and the reference oracle disagree
        with pytest.raises(ValueError, match="0 .awake. or 1 .sleep."):
            BinaryHypnogram(start=0, states=np.array(states))

    def test_binary_states_bool_accepted(self):
        np.testing.assert_array_equal(
            BinaryHypnogram(start=0, states=np.array([True, False])).states, [1, 0])


class TestSmooth:
    def test_constant_unchanged(self):
        out = smooth_probs(hyp([0.7] * 9), 5)
        np.testing.assert_array_equal(out.probs, [0.7] * 9)

    def test_single_dip_eliminated(self):
        out = smooth_probs(hyp([0.9, 0.9, 0.1, 0.9, 0.9]), 5)
        np.testing.assert_array_equal(out.probs, [0.9] * 5)

    def test_width_one_identity(self):
        p = [0.1, 0.8, 0.3, 0.6]
        out = smooth_probs(hyp(p), 1)
        np.testing.assert_array_equal(out.probs, p)

    def test_edges_shrink_symmetrically(self):
        # at index 1 the half-window is limited to 1 either side
        p = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        out = smooth_probs(hyp(p), 5)
        assert out.probs[1] == np.median(p[0:3])
        assert out.probs[0] == p[0]
        assert out.probs[-1] == p[-1]

    def test_even_width_error(self):
        with pytest.raises(ValueError, match="odd"):
            smooth_probs(hyp([0.5] * 8), 4)

    def test_width_exceeding_length_error(self):
        with pytest.raises(ValueError):
            smooth_probs(hyp([0.5] * 3), 5)

    @pytest.mark.parametrize("n", [*range(1, 40), 466, 1426])
    def test_matches_per_minute_definition_bit_for_bit(self, n):
        # the definition: minute i is the median of the 2k+1 minutes around
        # it, k = min(width // 2, i, n - 1 - i); smooth_probs sorts edge
        # windows and partitions interior ones
        rng = np.random.default_rng(n)
        inputs = [rng.random(n), np.round(rng.random(n), 1),  # the second has ties
                  rng.choice([0.0, 0.5, 1.0], n)]             # the third is all ties
        for p in inputs:
            for width in range(1, min(n, 11) + 1, 2):
                k = [min(width // 2, i, n - 1 - i) for i in range(n)]
                want = np.array([np.median(p[i - k[i]:i + k[i] + 1]) for i in range(n)])
                got = smooth_probs(hyp(p), width).probs
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=40),
           st.sampled_from([1, 3, 5]))
    @settings(max_examples=80)
    def test_preserves_length_and_range(self, probs, width):
        out = smooth_probs(hyp(probs), width)
        assert len(out) == len(probs)
        assert out.probs.min() >= min(probs) - 1e-12
        assert out.probs.max() <= max(probs) + 1e-12


class TestBinarize:
    def test_tie_is_sleep(self):
        assert binarize(hyp([0.5]), 0.5).states[0] == 1

    def test_all_zero_all_awake(self):
        np.testing.assert_array_equal(binarize(hyp([0.0, 0.0]), 0.5).states, [0, 0])

    def test_example(self):
        np.testing.assert_array_equal(
            binarize(hyp([0.2, 0.7, 0.5]), 0.5).states, [0, 1, 1])


class TestSuppress:
    def test_interior_dip_flipped(self):
        out = suppress_short_runs(bhyp([1, 1, 0, 1, 1]), 2)
        np.testing.assert_array_equal(out.states, [1, 1, 1, 1, 1])

    def test_constant_unchanged(self):
        out = suppress_short_runs(bhyp([0] * 6), 3)
        np.testing.assert_array_equal(out.states, [0] * 6)

    @pytest.mark.parametrize("min_run", [0, -1])
    def test_min_run_below_one_rejected(self, min_run):
        with pytest.raises(ValueError, match=f"^min_run must be >= 1, got {min_run}$"):
            suppress_short_runs(bhyp([0, 1, 0]), min_run)

    def test_min_run_one_identity(self):
        s = [0, 1, 0, 1, 1, 0]
        np.testing.assert_array_equal(suppress_short_runs(bhyp(s), 1).states, s)

    def test_edge_runs_exempt(self):
        s = [1, 0, 0, 0, 1]  # length-1 edge runs survive min_run 3
        np.testing.assert_array_equal(suppress_short_runs(bhyp(s), 3).states, s)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24),
           st.integers(1, 4))
    @settings(max_examples=200)
    def test_matches_reference(self, states, min_run):
        out = suppress_short_runs(bhyp(states), min_run)
        np.testing.assert_array_equal(
            out.states, reference.ref_suppress_short_runs(states, min_run))

    def test_every_short_input_matches_reference(self):
        # all 0/1 inputs up to length 14 at min_run 1-5, against the literal
        # restart-from-the-left fixpoint loop
        for n in range(15):
            for states in itertools.product((0, 1), repeat=n):
                b = bhyp(states)
                for min_run in range(1, 6):
                    assert suppress_short_runs(b, min_run).states.tolist() == \
                        reference.ref_suppress_short_runs(states, min_run), (states, min_run)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24),
           st.integers(1, 4))
    @settings(max_examples=200)
    def test_postcondition_and_idempotence(self, states, min_run):
        out = suppress_short_runs(bhyp(states), min_run)
        # no interior run shorter than min_run
        from somnoflow.events import _run_table
        _, _, length = _run_table(out.states)
        assert (length[1:-1] >= min_run).all()
        again = suppress_short_runs(out, min_run)
        np.testing.assert_array_equal(again.states, out.states)


class TestDetectSleep:
    def test_simple_onset(self):
        states = [0] * 60 + [1] * 120
        assert detect_sleep_time(bhyp(states), EventRuleConfig()) == 60

    def test_first_candidate_rejected_second_accepted(self):
        states = [0] * 10 + [1] * 30 + [0] * 12 + [1] * 200
        assert detect_sleep_time(bhyp(states), EventRuleConfig()) == 52

    def test_all_awake_none(self):
        assert detect_sleep_time(bhyp([0] * 100), EventRuleConfig()) is None

    def test_interrupted_accrual_still_accepts(self):
        # short awake runs (< awake_break) don't reset the accrual
        states = [0] * 5 + ([1] * 9 + [0] * 1) * 5 + [1] * 10
        assert detect_sleep_time(bhyp(states), EventRuleConfig()) == 5

    def test_record_ends_mid_confirmation(self):
        states = [0] * 5 + [1] * 40  # only 40 of 45 accrued
        trace = []
        assert detect_sleep_time(bhyp(states), EventRuleConfig(), trace) is None
        assert trace and not trace[0].accepted
        assert "40" in trace[0].reason


class TestDetectWake:
    def test_simple_wake(self):
        states = [1] * 300 + [0] * 30
        assert detect_wake_time(bhyp(states), EventRuleConfig(), 0) == 300

    def test_short_trailing_awake_none(self):
        states = [1] * 300 + [0] * 10
        assert detect_wake_time(bhyp(states), EventRuleConfig(), 0) is None

    def test_all_sleep_none(self):
        assert detect_wake_time(bhyp([1] * 200), EventRuleConfig(), 0) is None

    def test_reentry_rejects_early_candidate(self):
        states = [1] * 100 + [0] * 20 + [1] * 60 + [0] * 30
        assert detect_wake_time(bhyp(states), EventRuleConfig(), 0) == 180

    def test_brief_reentry_ignored(self):
        # later sleep run of 5 (< reentry_run 10) does not disqualify
        states = [1] * 100 + [0] * 20 + [1] * 5 + [0] * 30
        assert detect_wake_time(bhyp(states), EventRuleConfig(), 0) == 100


class TestTraceByHand:
    """Every trace entry of one short night under SCALED (sleep_confirm 4,
    awake_break 2, wake_confirm 2, reentry_run 2), worked out by hand from the
    rule statements. Runs by minute:

        0 awake | 1-2 sleep | 3 awake | 4 sleep | 5-7 awake | 8-10 sleep |
        11 awake | 12-13 sleep | 14 awake | 15 sleep | 16-18 awake |
        19-20 sleep | 21-22 awake
    """

    NIGHT = [int(c) for c in "01101000111011010001100"]

    ONSET_TRACE = [
        # 2 + 1 sleep minutes, then the 3-minute awake run at 5-7
        TraceEntry("sleep_onset", 1, False,
                   "awake run of 3 >= 2 min after only 3 sleep minutes"),
        TraceEntry("sleep_onset", 4, False,
                   "awake run of 3 >= 2 min after only 1 sleep minutes"),
        # 3 minutes at 8-10, the 1-minute awake run at 11 does not break,
        # minutes 12-13 bring the total to 5 >= 4
        TraceEntry("sleep_onset", 8, True, "4 sleep minutes accrued"),
    ]

    WAKE_TRACE = [
        TraceEntry("wake_time", 11, False, "only 1 contiguous awake minutes (< 2)"),
        TraceEntry("wake_time", 14, False, "only 1 contiguous awake minutes (< 2)"),
        # 3 awake minutes, but the 2-minute sleep run at 19-20 follows
        TraceEntry("wake_time", 16, False, "later sleep run of >= 2 min"),
        TraceEntry("wake_time", 21, True,
                   "2 contiguous awake minutes, no sleep reentry"),
    ]

    def test_onset_trace(self):
        trace = []
        assert detect_sleep_time(bhyp(self.NIGHT), SCALED, trace) == 8
        assert trace == self.ONSET_TRACE

    def test_wake_trace(self):
        trace = []
        assert detect_wake_time(bhyp(self.NIGHT), SCALED, 8, trace) == 21
        assert trace == self.WAKE_TRACE

    def test_record_ends_before_confirmation(self):
        # cut after minute 11: the candidate at 8 has 3 sleep minutes when
        # the record ends
        trace = []
        assert detect_sleep_time(bhyp(self.NIGHT[:12]), SCALED, trace) is None
        assert trace == self.ONSET_TRACE[:2] + [
            TraceEntry("sleep_onset", 8, False,
                       "record ended with only 3 sleep minutes accrued")]

    def test_predict_events_trace_and_text(self):
        probs = [0.9 if s else 0.1 for s in self.NIGHT]
        ev = predict_events(hyp(probs, start=600), SCALED)
        assert (ev.sleep_onset, ev.wake_time) == (600 + 8 * 60, 600 + 21 * 60)
        assert ev.trace == self.ONSET_TRACE + self.WAKE_TRACE
        assert format_trace(ev.trace).splitlines() == [
            "sleep_onset candidate@1min reject: "
            "awake run of 3 >= 2 min after only 3 sleep minutes",
            "sleep_onset candidate@4min reject: "
            "awake run of 3 >= 2 min after only 1 sleep minutes",
            "sleep_onset candidate@8min accept: 4 sleep minutes accrued",
            "wake_time candidate@11min reject: only 1 contiguous awake minutes (< 2)",
            "wake_time candidate@14min reject: only 1 contiguous awake minutes (< 2)",
            "wake_time candidate@16min reject: later sleep run of >= 2 min",
            "wake_time candidate@21min accept: "
            "2 contiguous awake minutes, no sleep reentry",
        ]


class TestExhaustiveEquivalence:
    def test_all_length_16_inputs(self):
        cfg = SCALED
        for bits in itertools.product((0, 1), repeat=16):
            b = bhyp(bits)
            got_onset = detect_sleep_time(b, cfg)
            ref_onset = reference.ref_detect_sleep_time(
                bits, cfg.sleep_confirm, cfg.awake_break)
            assert got_onset == ref_onset, bits
            if got_onset is not None:
                got_wake = detect_wake_time(b, cfg, got_onset)
                ref_wake = reference.ref_detect_wake_time(
                    bits, got_onset, cfg.wake_confirm, cfg.reentry_run)
                assert got_wake == ref_wake, bits

    def test_fuzzed_length_600_defaults(self):
        rng = np.random.default_rng(7)
        cfg = EventRuleConfig()
        for _ in range(2000):
            states = (rng.random(600) < rng.uniform(0.2, 0.9)).astype(np.int8)
            b = bhyp(states)
            got_onset = detect_sleep_time(b, cfg)
            assert got_onset == reference.ref_detect_sleep_time(
                states, cfg.sleep_confirm, cfg.awake_break)
            if got_onset is not None:
                assert detect_wake_time(b, cfg, got_onset) == \
                    reference.ref_detect_wake_time(
                        states, got_onset, cfg.wake_confirm, cfg.reentry_run)


class TestMonotonicity:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30),
           st.integers(1, 10))
    @settings(max_examples=150)
    def test_appending_sleep_never_undetects(self, states, extra):
        cfg = SCALED
        before = detect_sleep_time(bhyp(states), cfg)
        if before is None:
            return
        after = detect_sleep_time(bhyp(states + [1] * extra), cfg)
        assert after is not None and after <= before


class TestPredictEvents:
    def test_all_awake_both_none(self):
        ev = predict_events(hyp([0.1] * 120))
        assert ev.sleep_onset is None and ev.wake_time is None

    def test_clean_synthetic_night(self):
        # onset at minute 62, wake at minute 455, 8 h record
        probs = np.full(480, 0.1)
        probs[62:455] = 0.9
        ev = predict_events(hyp(probs, start=1000))
        assert abs(ev.sleep_onset - (1000 + 62 * 60)) <= 15 * 60
        assert abs(ev.wake_time - (1000 + 455 * 60)) <= 15 * 60

    def test_ordering_invariant(self):
        probs = np.full(480, 0.1)
        probs[60:450] = 0.9
        ev = predict_events(hyp(probs))
        assert ev.sleep_onset < ev.wake_time

    def test_trace_records_decisions(self):
        probs = np.full(480, 0.1)
        probs[62:455] = 0.9
        ev = predict_events(hyp(probs))
        kinds = {t.kind for t in ev.trace}
        assert kinds == {"sleep_onset", "wake_time"}
        text = format_trace(ev.trace)
        assert "accept" in text

    def test_noisy_dips_smoothed_away(self):
        probs = np.full(480, 0.1)
        probs[60:450] = 0.9
        probs[200] = 0.1   # single-minute dip, removed by the median
        probs[300:302] = 0.1  # two-minute dip, removed by run suppression
        ev = predict_events(hyp(probs))
        assert ev.sleep_onset == 60 * 60
        assert ev.wake_time == 450 * 60

    def test_short_record(self):
        ev = predict_events(hyp([0.9, 0.9]))
        assert ev.sleep_onset is None

    def test_timestamps_offset_by_start(self):
        probs = np.full(200, 0.9)
        probs[:20] = 0.1
        ev = predict_events(hyp(probs, start=5000))
        assert ev.sleep_onset == 5000 + 20 * 60


def first_onset_by_watch(probs, cfg):
    watch = OnsetWatch(0, cfg)
    for n, p in enumerate(probs, 1):
        onset = watch.push(p)
        if onset is not None:
            return n, onset
    return None


def sticky_probs(rng, n, threshold):
    """A two-state chain that stays put with a random probability, blurred by
    random noise; about a tenth of the minutes sit exactly on the threshold."""
    stay, noise = rng.uniform(0.5, 0.99), rng.uniform(0.0, 0.5)
    asleep = (rng.random() < 0.3) ^ (np.cumsum(rng.random(n) > stay) % 2 == 1)
    p = np.clip(np.where(asleep, 0.8, 0.2) + rng.normal(0.0, noise, n), 0.0, 1.0)
    p[rng.random(n) < 0.1] = threshold
    return p.tolist()


def random_rules(rng):
    return EventRuleConfig(
        threshold=float(rng.choice([0.5, 0.3, 0.7, rng.uniform(0.05, 0.95)])),
        median_width=int(rng.choice([1, 3, 5, 7, 9])),
        min_run=int(rng.integers(1, 6)), sleep_confirm=int(rng.integers(1, 16)),
        awake_break=int(rng.integers(1, 10)), wake_confirm=int(rng.integers(1, 6)),
        reentry_run=int(rng.integers(1, 6)))


def states(text):
    """Probabilities 0.9 (sleep) and 0.1 (awake) from a string of 1s and 0s."""
    return [0.9 if c == "1" else 0.1 for c in text]


class TestOnsetWatch:
    def test_matches_per_prefix_rerun(self, rule_runs):
        rng = np.random.default_rng(11)
        seen = {"width 1": 0, "width 9": 0, "break < min_run": 0, "confirm 1": 0,
                "onset": 0, "no onset": 0}
        for _ in range(5000):
            cfg = random_rules(rng)
            probs = sticky_probs(rng, int(rng.integers(1, 64)), cfg.threshold)
            want = final_state_onset(probs, cfg)
            assert first_onset_by_watch(probs, cfg) == want, (cfg, probs)
            seen["width 1"] += cfg.median_width == 1
            seen["width 9"] += cfg.median_width == 9
            seen["break < min_run"] += cfg.awake_break < cfg.min_run
            seen["confirm 1"] += cfg.sleep_confirm == 1
            seen["onset" if want else "no onset"] += 1
        assert min(seen.values()) >= 200, seen
        assert rule_runs == []

    def test_emitted_onset_is_the_batch_onset_of_every_longer_record(self):
        # the onset equals predict_events on the whole sequence, on the
        # prefix at emission and on random extensions of that prefix
        rng = np.random.default_rng(6)
        emitted = 0
        for trial in range(3000):
            cfg = EventRuleConfig() if trial % 2 else random_rules(rng)
            probs = sticky_probs(rng, int(rng.integers(60, 301)), cfg.threshold)
            got = first_onset_by_watch(probs, cfg)
            if got is None:
                continue
            n, onset = got
            emitted += 1
            longer = [probs[:n] + sticky_probs(rng, int(rng.integers(1, 200)), cfg.threshold)
                      for _ in range(3)]
            for seq in (probs, probs[:n], *longer):
                assert predict_events(hyp(seq), cfg).sleep_onset == onset, (cfg, probs, n)
        assert emitted >= 1500

    @pytest.mark.parametrize("cfg, text, emitted", [
        (EventRuleConfig(), "11101111000111011100011111111110111111111011111100101000",
         None),
        (EventRuleConfig(median_width=3, min_run=2, sleep_confirm=4, awake_break=2),
         "1101001", None),
        (EventRuleConfig(), "10101111010010111110001111011101111111111001101111000011000"
                            "101111101101101110011010011101111010011111011111111", (107, 3600))],
        ids=["default-no-onset", "scaled-no-onset", "default-later-onset"])
    def test_streamed_onset_regressions(self, cfg, text, emitted):
        # a watch that ran the rules on all but the last median_width // 2 +
        # min_run minutes emitted onset 0 here, where the batch rules give
        # none or a later one: that prefix smoothed its last minutes with a
        # shrunk window and exempted its last run from suppression
        probs = states(text)
        assert first_onset_by_watch(probs, cfg) == emitted
        assert predict_events(hyp(probs), cfg).sleep_onset == (emitted and emitted[1])

    def test_awake_day_runs_rules_only_at_its_ends(self, rule_runs):
        # 16 h awake with a 3-minute nap every 97 minutes, then asleep: the
        # watch runs no rules, and the onset is emitted once its 45th sleep
        # minute has settled
        probs = np.full(24 * 60, 0.1)
        for nap in range(50, 16 * 60, 97):
            probs[nap:nap + 3] = 0.9
        probs[16 * 60:] = 0.9
        cfg = EventRuleConfig()
        assert first_onset_by_watch(probs.tolist(), cfg) == \
            (16 * 60 + cfg.sleep_confirm + cfg.median_width // 2, 16 * 60 * 60)
        assert rule_runs == []

    def test_no_rule_runs_after_the_onset(self, rule_runs):
        watch = OnsetWatch(600, SCALED)
        pushed = [watch.push(p) for p in [0.9] * 10]
        assert pushed == [None] * 3 + [600] + [None] * 6
        assert rule_runs == [] and watch.onset == 600


class TestEventsCsv:
    def test_write_events_rows(self, tmp_path):
        from somnoflow.events import SleepEvents, write_events
        path = tmp_path / "events.csv"
        write_events(SleepEvents(sleep_onset=120, wake_time=6000), path, "trace.txt")
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,timestamp,confidence_trace_ref"
        assert lines[1] == "sleep_onset,120,trace.txt"
        assert lines[2] == "wake_time,6000,trace.txt"

    def test_write_events_empty(self, tmp_path):
        from somnoflow.events import SleepEvents, write_events
        path = tmp_path / "events.csv"
        write_events(SleepEvents(), path)
        assert len(path.read_text().splitlines()) == 1
