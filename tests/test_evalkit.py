import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from somnoflow.datapipe import EVENT_KINDS
from somnoflow.evalkit import (ConfusionCounts, EventMatchResult, MetricReport,
                               accuracy, aggregate_runs, confusion,
                               emit_plotdata, format_summary, match_events,
                               precision, sensitivity, specificity)
from somnoflow.events import BinaryHypnogram, Hypnogram, SleepEvents


def bhyp(states, start=0):
    return BinaryHypnogram(start=start, states=np.asarray(states, dtype=np.int8))


class TestConfusion:
    def test_perfect_prediction(self):
        states = [1] * 50 + [0] * 50
        c = confusion(bhyp(states), bhyp(states))
        assert (c.tp, c.tn, c.fp, c.fn) == (50, 50, 0, 0)

    def test_hand_tally(self):
        c = confusion(bhyp([1, 1, 0, 0, 1]), bhyp([1, 0, 0, 1, 1]))
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)

    def test_complement(self):
        c = confusion(bhyp([1, 0, 1]), bhyp([0, 1, 0]))
        assert c.tp == 0 and c.tn == 0

    def test_length_mismatch_error(self):
        with pytest.raises(ValueError, match="length"):
            confusion(bhyp([1, 0]), bhyp([1, 0, 1]))

    def test_misaligned_start_error(self):
        with pytest.raises(ValueError, match="misaligned"):
            confusion(bhyp([1, 0], start=0), bhyp([1, 0], start=60))

    def test_p_n_partition_total(self):
        c = confusion(bhyp([1, 1, 0, 0, 1]), bhyp([1, 0, 0, 1, 1]))
        assert c.p + c.n == 5


class TestMetrics:
    def test_all_perfect(self):
        c = ConfusionCounts(tp=50, tn=50)
        for m in (accuracy, precision, specificity, sensitivity):
            assert m(c) == 100.0

    def test_hand_case(self):
        c = ConfusionCounts(tp=2, fp=1, tn=1, fn=1)
        assert accuracy(c) == pytest.approx(60.0)
        assert precision(c) == pytest.approx(66.67, abs=0.005)
        assert specificity(c) == pytest.approx(50.0)
        assert sensitivity(c) == pytest.approx(66.67, abs=0.005)

    def test_zero_denominator_is_none(self):
        assert precision(ConfusionCounts(tn=5, fn=3)) is None
        assert sensitivity(ConfusionCounts(tn=5, fp=2)) is None
        assert specificity(ConfusionCounts(tp=5, fn=2)) is None
        assert accuracy(ConfusionCounts()) is None

    @given(st.integers(0, 1000), st.integers(0, 1000),
           st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=500)
    def test_range_when_defined(self, tp, tn, fp, fn):
        c = ConfusionCounts(tp, tn, fp, fn)
        for m in (accuracy, precision, specificity, sensitivity):
            v = m(c)
            assert v is None or 0.0 <= v <= 100.0

    def test_accuracy_identity(self):
        # accuracy = (sensitivity*P + specificity*N) / (P + N)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            tp, tn, fp, fn = rng.integers(0, 500, size=4)
            c = ConfusionCounts(int(tp), int(tn), int(fp), int(fn))
            if c.p == 0 or c.n == 0:
                continue
            lhs = accuracy(c)
            rhs = (sensitivity(c) * c.p + specificity(c) * c.n) / (c.p + c.n)
            assert abs(lhs - rhs) < 1e-9

    def test_report_format(self):
        r = MetricReport.from_counts(ConfusionCounts(tp=2, fp=1, tn=1, fn=1), "r1")
        text = r.format()
        assert "accuracy=60.00%" in text
        assert "TP=2" in text
        r2 = MetricReport.from_counts(ConfusionCounts(tn=3))
        assert "undefined" in r2.format()


class TestMatchEvents:
    def test_exact_match(self):
        res = match_events(SleepEvents(sleep_onset=1000),
                           [("sleep_onset", 1000)])
        assert res.per_kind["sleep_onset"].tp == 1
        assert res.matched[0][3] == 0.0

    def test_fourteen_minutes_tp(self):
        res = match_events(SleepEvents(sleep_onset=14 * 60), [("sleep_onset", 0)])
        assert res.per_kind["sleep_onset"].tp == 1

    def test_sixteen_minutes_fp_and_fn(self):
        res = match_events(SleepEvents(sleep_onset=16 * 60), [("sleep_onset", 0)])
        c = res.per_kind["sleep_onset"]
        assert (c.tp, c.fp, c.fn) == (0, 1, 1)

    def test_boundary_exactly_fifteen_is_tp(self):
        res = match_events(SleepEvents(sleep_onset=15 * 60), [("sleep_onset", 0)])
        assert res.per_kind["sleep_onset"].tp == 1

    def test_missing_prediction_fn(self):
        res = match_events(SleepEvents(), [("wake_time", 500)])
        assert res.per_kind["wake_time"].fn == 1

    def test_kinds_never_cross_match(self):
        res = match_events(SleepEvents(sleep_onset=1000),
                           [("wake_time", 1000)])
        assert res.per_kind["sleep_onset"].fp == 1
        assert res.per_kind["wake_time"].fn == 1

    @pytest.mark.parametrize("tolerance", [float("nan"), -5.0, float("inf")])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValueError, match=f"tolerance must be finite and >= 0 "
                                             f"minutes, got {tolerance}"):
            match_events(SleepEvents(sleep_onset=1000), [("sleep_onset", 0)],
                         tolerance_min=tolerance)

    def test_zero_tolerance_matches_only_exact(self):
        res = match_events(SleepEvents(sleep_onset=60, wake_time=600),
                           [("sleep_onset", 60), ("wake_time", 660)], tolerance_min=0)
        assert res.per_kind["sleep_onset"].tp == 1
        assert res.per_kind["wake_time"].tp == 0

    def test_swap_symmetry(self):
        # swapping prediction and truth swaps FP and FN: the onsets match,
        # the wake times are too far apart
        pred = SleepEvents(sleep_onset=0, wake_time=100000)
        truth = SleepEvents(sleep_onset=120, wake_time=30000)
        fwd = match_events(pred, truth.pairs())
        rev = match_events(truth, pred.pairs())
        for kind in ("sleep_onset", "wake_time"):
            a, b = fwd.per_kind[kind], rev.per_kind[kind]
            assert (a.tp, a.fp, a.fn) == (b.tp, b.fn, b.fp)
        assert [(c.tp, c.fp, c.fn) for c in fwd.per_kind.values()] == [(1, 0, 0), (0, 1, 1)]

    def test_greedy_nearest_first(self):
        # both truths are within the tolerance; 500 pairs with 480 (delta
        # 20 s), the nearer, and 0 (delta 500 s) is left unmatched
        res = match_events(SleepEvents(sleep_onset=500),
                           [("sleep_onset", 0), ("sleep_onset", 480)])
        assert res.matched == [("sleep_onset", 500, 480, 20 / 60.0)]
        c = res.per_kind["sleep_onset"]
        assert (c.tp, c.fp, c.fn) == (1, 0, 1)


def old_match_events(pred, truth, tolerance_min=15):
    """evalkit.match_events as it was while predictions could hold several
    events of a kind: every (prediction, truth) pair of a kind sorted by
    distance, then by prediction and truth index, and matched greedily,
    each prediction and truth at most once."""
    result = EventMatchResult()
    tol_s = tolerance_min * 60.0
    for kind in EVENT_KINDS:
        p_ts = [ts for k, ts in pred.pairs() if k == kind]
        t_ts = [ts for k, ts in truth if k == kind]
        counts = ConfusionCounts()
        cand = sorted(
            ((abs(pt - tt), i, j) for i, pt in enumerate(p_ts) for j, tt in enumerate(t_ts)),
            key=lambda c: (c[0], c[1], c[2]))
        used_p, used_t = set(), set()
        for delta, i, j in cand:
            if delta > tol_s or i in used_p or j in used_t:
                continue
            used_p.add(i)
            used_t.add(j)
            counts.tp += 1
            result.matched.append((kind, p_ts[i], t_ts[j], (p_ts[i] - t_ts[j]) / 60.0))
        counts.fp = len(p_ts) - len(used_p)
        counts.fn = len(t_ts) - len(used_t)
        result.per_kind[kind] = counts
    return result


# whole minutes on a short span, so that equal distances and exact matches
# are common; "nap" is a kind no prediction holds
_minute_ts = st.integers(0, 30).map(lambda m: 60 * m)


@settings(max_examples=400, deadline=None)
@given(onset=st.none() | _minute_ts, wake=st.none() | _minute_ts,
       truth=st.lists(st.tuples(st.sampled_from(EVENT_KINDS + ("nap",)), _minute_ts),
                      max_size=6),
       tolerance=st.integers(0, 40) | st.floats(0, 1e9))
@example(onset=600, wake=None, truth=[("sleep_onset", 480), ("sleep_onset", 720)], tolerance=5)
@example(onset=600, wake=None, truth=[("sleep_onset", 720), ("sleep_onset", 480)], tolerance=5)
def test_nearest_truth_equals_greedy_matcher(onset, wake, truth, tolerance):
    # one prediction per kind: its nearest truth, the first listed of
    # equally near ones, is the pair the greedy all-pairs matcher takes
    pred = SleepEvents(sleep_onset=onset, wake_time=wake)
    new, old = match_events(pred, truth, tolerance), old_match_events(pred, truth, tolerance)
    assert new.per_kind == old.per_kind
    assert new.matched == old.matched


class TestAggregate:
    def make(self, acc):
        return MetricReport(acc, acc, acc, acc, ConfusionCounts())

    def test_single_report(self):
        s = aggregate_runs([self.make(90.0)])
        assert s["accuracy"]["mean"] == 90.0
        assert s["accuracy"]["std"] is None
        assert s["accuracy"]["n"] == 1

    def test_two_reports_hand_values(self):
        s = aggregate_runs([self.make(90.0), self.make(94.0)])
        assert s["accuracy"]["mean"] == pytest.approx(92.0)
        assert s["accuracy"]["std"] == pytest.approx(2.83, abs=0.005)

    def test_undefined_excluded(self):
        s = aggregate_runs([self.make(90.0), self.make(None), self.make(94.0)])
        assert s["accuracy"]["mean"] == pytest.approx(92.0)
        assert s["accuracy"]["excluded"] == 1
        assert "excluded 1 undefined" in format_summary(s)

    def test_all_undefined(self):
        s = aggregate_runs([self.make(None)])
        assert s["accuracy"]["mean"] is None
        assert "undefined in all runs" in format_summary(s)

    def test_empty_list_error(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestPlotdata:
    def test_row_count_and_roundtrip(self):
        probs = np.linspace(0.1, 0.9, 40)
        hyp = Hypnogram(start=600, probs=probs)
        truth = bhyp((probs > 0.5).astype(int), start=600)
        events = SleepEvents(sleep_onset=600 + 10 * 60)
        buf = io.StringIO()
        emit_plotdata(hyp, events, truth, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "minute,timestamp,probability,binarized,truth,event"
        assert len(lines) == 41
        rows = [l.split(",") for l in lines[1:]]
        parsed = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(parsed, probs, atol=5e-7)
        assert rows[10][5] == "sleep_onset"
        assert sum(1 for r in rows if r[5]) == 1

    def test_empty_events_no_markers(self):
        hyp = Hypnogram(start=0, probs=np.full(5, 0.3))
        buf = io.StringIO()
        emit_plotdata(hyp, SleepEvents(), None, buf)
        rows = [l.split(",") for l in buf.getvalue().splitlines()[1:]]
        assert all(r[5] == "" for r in rows)
        assert all(r[4] == "" for r in rows)

    def test_file_path_destination(self, tmp_path):
        hyp = Hypnogram(start=0, probs=np.full(3, 0.8))
        path = tmp_path / "plot.csv"
        emit_plotdata(hyp, SleepEvents(), None, path)
        assert len(path.read_text().splitlines()) == 4
