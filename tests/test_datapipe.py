import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import somnoflow as sf
from conftest import HUGE_FIELD, assert_clipped
from somnoflow import datapipe
from somnoflow.datapipe import (CSV_COLUMNS, EPOCH_SECONDS,
                                IngestError, SynthConfig, apply_normalizer,
                                build_training_set, clipped_repr, compute_hr_diff,
                                fit_normalizer, ingest_epochs, make_windows,
                                parse_record, read_transitions, record_lines,
                                synth_generate, timestamp_error, vitals_error,
                                write_epochs, write_transitions)


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



def _oracle_row(row, row_no, has_label):
    try:
        ts, hr, br, hr_conf, movement = parse_record(row)
    except ValueError as exc:
        raise IngestError(f"row {row_no}: unparseable values: {row!r}") from exc
    # the one rule added to the loop: a timestamp outside int64 is a row
    # error (the loop let it escape as an OverflowError)
    if abs(ts) >= 2 ** 63:
        raise IngestError(f"row {row_no}: timestamp {ts} out of range")
    error = vitals_error(hr, br, hr_conf, movement)
    if error is not None:
        raise IngestError(f"row {row_no}: {error}")
    label = -1
    if has_label and len(row) > 5 and row[5] != "":
        try:
            label = int(row[5])
        except ValueError:
            label = None
        if label not in (0, 1):
            raise IngestError(f"row {row_no}: label must be 0 or 1, got {row[5]!r}")
    return ts, hr, br, hr_conf, movement, label


def oracle_ingest(source):
    """The per-row, csv-module ingest loop that `ingest_epochs` replaced: the
    reference its columnar parse must match on every text without quotes."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty file: missing header")
    header = [h.strip() for h in header]
    if tuple(header[:5]) != CSV_COLUMNS:
        raise IngestError(f"bad header {header!r}; expected {','.join(CSV_COLUMNS)}[,label]")
    has_label = len(header) > 5 and header[5] == "label"
    if len(header) > 5 and not has_label:
        raise IngestError(f"bad header {header!r}; sixth column must be 'label'")

    cols = {name: [] for name in ("timestamp", "hr", "br", "hr_conf", "movement", "label")}
    prev_ts = None
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        ts, hr, br, hr_conf, movement, label = _oracle_row(row, row_no, has_label)
        if prev_ts is not None:
            step = ts - prev_ts
            if step <= 0:
                raise IngestError(f"row {row_no}: non-monotonic timestamp {ts} after {prev_ts}")
            if step % EPOCH_SECONDS != 0:
                raise IngestError(f"row {row_no}: timestamp {ts} not on the 30 s grid")
            if step != EPOCH_SECONDS:
                missing = step // EPOCH_SECONDS - 1
                raise IngestError(f"row {row_no}: gap of {missing} epochs before timestamp {ts}")
        cols["timestamp"].append(ts)
        cols["hr"].append(hr)
        cols["br"].append(br)
        cols["hr_conf"].append(hr_conf)
        cols["movement"].append(movement)
        cols["label"].append(label)
        prev_ts = ts
    if not cols["timestamp"]:
        raise IngestError("no data rows")
    hr = np.asarray(cols["hr"], dtype=np.float64)
    return datapipe.EpochSeries(
        timestamps=np.asarray(cols["timestamp"], dtype=np.int64),
        hr=hr,
        br=np.asarray(cols["br"], dtype=np.float64),
        hr_conf=np.asarray(cols["hr_conf"], dtype=np.float64),
        movement=np.asarray(cols["movement"], dtype=np.float64),
        hr_diff=compute_hr_diff(hr),
        labels=np.asarray(cols["label"], dtype=np.int64),
    )


# field choices for the fuzzed texts: mostly valid, with every kind of fault
# a step of 2**64 - 8192 joins the two ends of int64, so the step wraps
_STEPS = [60, 60, 90, 90, 120, 0, -30, 45, 15, 31, 2 ** 64 - 8192, 8192 - 2 ** 64]
_STARTS = [0, 30, 1_600_000_000, -300, 2 ** 63 - 4096, 4096 - 2 ** 63]
_TIMESTAMPS = ["nan", "inf", "-inf", "x", "", "1e19", "-1e19", "9.3e18",
               "-9223372036854775808", "9223372036854775807", "1e999", "-0.0"]
_VITALS = ["nan", "inf", "-inf", "-1", "-0.0", "1e999", "", "x", "1.5", "1e308",
           " 2", "0x1", "1_0", "+3"]
_LABELS = ["0", "1", "", "", " 1", "01", "2", "1.0", "x", "-0", "+1", "1 ", "-1"]


def _fuzz_text(rng):
    """A short epoch CSV text that may carry any fault ingest must reject."""
    labeled = rng.random() < 0.5
    header = list(CSV_COLUMNS) + (["label"] if labeled else [])
    if rng.random() < 0.05:
        header = header[:rng.integers(0, len(header))] + ["x"] * int(rng.integers(0, 2))
    elif rng.random() < 0.05:
        header = [f" {h} " for h in header]
    lines = [",".join(header) if rng.random() > 0.02 else ""]
    ts = _STARTS[rng.choice(len(_STARTS), p=[0.3, 0.2, 0.2, 0.2, 0.05, 0.05])]
    for _ in range(int(rng.integers(0, 9))):
        if rng.random() < 0.08:
            lines.append("")
            continue
        ts += _STEPS[rng.integers(len(_STEPS))] if rng.random() < 0.15 else 30
        fields = [str(ts) if rng.random() > 0.1 else f"{ts}.0",
                  f"{rng.normal(60, 5):.6f}", f"{rng.normal(14, 2):.6f}",
                  f"{rng.random():.6f}", f"{rng.random():.6f}"]
        if labeled:
            fields.append(str(rng.choice(_LABELS[:4])))
        if rng.random() < 0.15:
            fields[int(rng.integers(1, 5))] = str(rng.choice(_VITALS))
        if rng.random() < 0.04:
            fields[0] = str(rng.choice(_TIMESTAMPS))
        if labeled and rng.random() < 0.1:
            fields[5] = str(rng.choice(_LABELS))
        if rng.random() < 0.05:
            fields = fields[:int(rng.integers(0, len(fields)))]
        elif rng.random() < 0.05:
            fields += ["extra"] * int(rng.integers(1, 3))
        lines.append(",".join(fields))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + (end if rng.random() < 0.9 else "")


def _outcome(ingest, text):
    try:
        series = ingest(io.StringIO(text))
    except IngestError as exc:
        return str(exc)
    return [(a.dtype.str, a.tobytes()) for a in
            (series.timestamps, series.hr, series.br, series.hr_conf,
             series.movement, series.hr_diff, series.labels)]


class TestIngestMatchesOracle:
    def test_fuzzed_texts(self):
        rng = np.random.default_rng(20240613)
        accepted = 0
        for _ in range(3000):
            text = _fuzz_text(rng)
            rng.random()  # a draw per text that keeps the seed's 3,000 texts
            want = _outcome(oracle_ingest, text)
            assert _outcome(ingest_epochs, text) == want, text
            accepted += not isinstance(want, str)
        assert 300 < accepted < 2700  # both outcomes well covered

    @pytest.mark.parametrize("rows", [
        # the step between the two ends of int64 wraps in int64 arithmetic
        ["-9223372036854771712,60,14,0.9,0.1", "9223372036854771712,60,14,0.9,0.1"],
        ["9223372036854771712,60,14,0.9,0.1", "-9223372036854771712,60,14,0.9,0.1"],
        ["9223372036854771712,60,14,0.9,0.1", "9223372036854772736,60,14,0.9,0.1"],
        ["0,60,14,0.9,0.1", "", "", "90,60,14,0.9,0.1", "", "150,61,14,0.9,0.1"],
    ])
    @pytest.mark.parametrize("crlf", [False, True])
    def test_edge_texts(self, rows, crlf):
        text = make_csv(rows).getvalue().replace("\n", "\r\n" if crlf else "\n")
        want = _outcome(oracle_ingest, text)
        assert _outcome(ingest_epochs, text) == want

    @pytest.mark.parametrize("crlf", [False, True])
    def test_synthetic_night(self, crlf):
        series = synth_generate(SynthConfig(seed=7, hours=8))
        buf = io.StringIO()
        write_epochs(series, buf)
        text = buf.getvalue().replace("\n", "\r\n" if crlf else "\n")
        want = _outcome(oracle_ingest, text)
        assert not isinstance(want, str)
        assert _outcome(ingest_epochs, text) == want


def old_parse_row(row, row_no, has_label):
    """datapipe._parse_row as it was before ingest worded its errors from the
    columns it had parsed: it re-split and re-parsed the first bad row's
    text. Raises the IngestError for the first of one row's own faults."""
    try:
        ts, hr, br, hr_conf, movement = parse_record(row)
    except ValueError as exc:
        raise IngestError(f"row {row_no}: unparseable values: {clipped_repr(row)}") from exc
    error = timestamp_error(ts) or vitals_error(hr, br, hr_conf, movement)
    if error is not None:
        raise IngestError(f"row {row_no}: {error}")
    if has_label and len(row) > 5 and datapipe._label_value(row[5]) is None:
        raise IngestError(f"row {row_no}: label must be 0 or 1, got {clipped_repr(row[5])}")


def old_row_error(text):
    """The message of the IngestError that ingest gave with old_parse_row
    for an epoch CSV text with a good header: the first row in file order
    that old_parse_row rejects, or whose step from the row before is not
    30 s, worded by old_parse_row or `_step_error`. None for a text
    whose rows all pass."""
    lines = record_lines(text)
    has_label = lines[0].split(",")[5:6] == ["label"]
    prev_ts = None
    for row_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        try:
            old_parse_row(row, row_no, has_label)
        except IngestError as exc:
            return str(exc)
        ts = parse_record(row)[0]
        if prev_ts is not None and ts - prev_ts != EPOCH_SECONDS:
            return f"row {row_no}: {datapipe._step_error(ts, prev_ts)}"
        prev_ts = ts
    return None


def _with_field(column, value, label=""):
    """Rows 0 and 30 s, then a row at 60 s whose field `column` is value."""
    fields = ["60", "60", "14", "0.9", "0.1"] + [label] * bool(label)
    fields[column] = value
    return ["0,60,14,0.9,0.1", "30,60,14,0.9,0.1", ",".join(fields)]


_LABELED = "timestamp,hr,br,hr_conf,movement,label"
_WORDING_CASES = {
    "short row": (["0,60,14,0.9,0.1", "30,60,14"], None),
    "quoted field": (["0,60,14,0.9,0.1", '30,"60",14,0.9,0.1'], None),
    "unparseable row of 8 fields": (["0,60,14,0.9,0.1", "30,x,14,0.9,0.1,1,2,3"], None),
    **{f"timestamp {v}": (_with_field(0, v), None)
       for v in ["inf", "-inf", "nan", "1e999",
                 "9223372036854775808", "-9223372036854775808", "9223372036854775807",
                 "9223372036854779904", "1e19", "-1e19"]},
    **{f"{name} {v}": (_with_field(column, v), None)
       for column, name in enumerate(CSV_COLUMNS[1:], start=1)
       for v in ["nan", "inf", "-inf", "-1"]},
    "hr_conf 1.5": (_with_field(3, "1.5"), None),
    "hr_conf one ulp above 1": (_with_field(3, "1.0000000000000002"), None),
    "label 2": (_with_field(5, "2", label="1"), _LABELED),
    "label x": (_with_field(5, "x", label="1"), _LABELED),
    "label x on a row of 8 fields": (
        ["0,60,14,0.9,0.1,1", "30,60,14,0.9,0.1,x,1,0"], _LABELED),
    "a sixth field x on an unlabeled file, then a gap": (
        ["0,60,14,0.9,0.1,x", "60,60,14,0.9,0.1"], None),
    "gap": (["0,60,14,0.9,0.1", "30,60,14,0.9,0.1", "120,60,14,0.9,0.1"], None),
    "non-monotonic": (["0,60,14,0.9,0.1", "30,60,14,0.9,0.1", "30,60,14,0.9,0.1"], None),
    "off grid": (["0,60,14,0.9,0.1", "30,60,14,0.9,0.1", "75,60,14,0.9,0.1"], None),
    "gap and bad hr_conf": (["0,60,14,0.9,0.1", "90,60,14,1.5,0.1"], None),
    "bad hr and bad label": (["0,60,14,0.9,0.1,1", "30,-1,14,0.9,0.1,x"], _LABELED),
    "out-of-range timestamp and nan br": (["0,60,14,0.9,0.1", "1e19,60,nan,0.9,0.1"], None),
    "bad label and gap": (["0,60,14,0.9,0.1,1", "", "90,60,14,0.9,0.1,2"], _LABELED),
    "fault on the first data row": (["0,-1,14,0.9,0.1", "30,60,14,0.9,0.1"], None),
    "unparseable first data row": (["x,60,14,0.9,0.1"], None),
}


class TestIngestErrorWording:
    """ingest_epochs words the first bad row's error from the columns it
    parsed; the message must be the one old_row_error gives, whole."""

    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("case", list(_WORDING_CASES))
    def test_message_equals_old_message(self, case, crlf):
        rows, header = _WORDING_CASES[case]
        text = make_csv(rows, header=header or "timestamp,hr,br,hr_conf,movement").getvalue()
        text = text.replace("\n", "\r\n" if crlf else "\n")
        want = old_row_error(text)
        assert want is not None
        with pytest.raises(IngestError) as info:
            ingest_epochs(io.StringIO(text))
        assert str(info.value) == want

    @pytest.mark.parametrize("rows, header, want", [
        (_with_field(3, "1.0000000000000002"), None,
         "row 4: hr_conf 1.0000000000000002 outside [0,1]"),
        (_with_field(0, "nan"), None,
         "row 4: unparseable values: ['nan', '60', '14', '0.9', '0.1']"),
        (_with_field(0, "9223372036854775807"), None,
         "row 4: timestamp 9223372036854775808 out of range"),
        (["0,60,14,0.9,0.1,1", "30,60,14,0.9,0.1,x,1,0"], _LABELED,
         "row 3: label must be 0 or 1, got 'x'"),
        (["0,60,14,0.9,0.1,1", "30,-1,14,0.9,0.1,x"], _LABELED,
         "row 3: hr and br must be non-negative"),
    ])
    def test_message_by_hand(self, rows, header, want):
        src = make_csv(rows, header=header or "timestamp,hr,br,hr_conf,movement")
        with pytest.raises(IngestError) as info:
            ingest_epochs(src)
        assert str(info.value) == want


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
        with pytest.raises(IngestError, match="row 4: gap of 1 epochs before timestamp 90"):
            ingest_epochs(src)

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

    @pytest.mark.parametrize("value", ["1e19", "9.3e18", "-1e19", "-9223372036854775808"])
    def test_out_of_range_timestamp_names_row(self, value):
        with pytest.raises(IngestError, match="row 2: timestamp -?[0-9]+ out of range"):
            ingest_epochs(make_csv([f"{value},60,14,0.9,0.1"]))
        rows = ["0,60,14,0.9,0.1", f"{value},60,14,0.9,0.1"]
        with pytest.raises(IngestError, match="row 3: timestamp -?[0-9]+ out of range"):
            ingest_epochs(make_csv(rows))

    def test_largest_timestamps_accepted(self):
        top = 2 ** 63 - 1024  # float64's largest value below 2**63
        series = ingest_epochs(make_csv([f"{top},60,14,0.9,0.1"]))
        assert series.timestamps.tolist() == [top]

    @pytest.mark.parametrize("header, row, name", [
        ("timestamp,hr,br,hr_conf,movement", f"{HUGE_FIELD},60,14,0.9,0.1",
         "row 2: unparseable values: ['111"),
        ("timestamp,hr,br,hr_conf,movement,label", f"0,60,14,0.9,0.1,{HUGE_FIELD}",
         "row 2: label must be 0 or 1, got '111"),
    ], ids=["timestamp", "label"])
    def test_huge_field_echo_is_clipped(self, header, row, name):
        with pytest.raises(IngestError) as info:
            ingest_epochs(make_csv([row], header=header))
        assert_clipped(str(info.value), name)

    def test_quoted_field_unparseable(self):
        with pytest.raises(IngestError, match="""row 3: unparseable values: \\['30', '"60"'"""):
            ingest_epochs(make_csv(["0,60,14,0.9,0.1", '30,"60",14,0.9,0.1']))

    def test_quoted_header_rejected(self):
        with pytest.raises(IngestError, match="bad header"):
            ingest_epochs(make_csv(["0,60,14,0.9,0.1"],
                                   header='"timestamp",hr,br,hr_conf,movement'))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_endings(self, end, tmp_path):
        path = tmp_path / "night.csv"
        path.write_bytes(end.join(["timestamp,hr,br,hr_conf,movement,label",
                                   "0,60,14,0.9,0.1,1", "", "30,61,14,0.9,0.1,0"]).encode())
        series = ingest_epochs(path)
        np.testing.assert_array_equal(series.timestamps, [0, 30])
        np.testing.assert_array_equal(series.labels, [1, 0])

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

    def test_empty_window_list_rejected(self):
        with pytest.raises(ValueError, match="^cannot fit normalizer on an empty window list$"):
            fit_normalizer([])

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

    @pytest.mark.parametrize("field, value, message", [
        ("mean_sleep_min", 0.0, "bout durations must be positive"),
        ("mean_wake_min", -5.0, "bout durations must be positive"),
        ("transition_blur_min", -1.0, "transition blur must be non-negative"),
    ])
    def test_bad_bout_mean_or_blur_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            synth_generate(SynthConfig(seed=0, hours=2, **{field: value}))

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

    @pytest.mark.parametrize("header, fields", [
        ("timestamp,kind", "['timestamp', 'kind']"), ("kind", "['kind']"), ("", "['']"),
        ("event,timestamp", "['event', 'timestamp']")])
    def test_sidecar_with_bad_header(self, header, fields):
        with pytest.raises(IngestError) as info:
            read_transitions(io.StringIO(f"{header}\nsleep_onset,600\n"))
        assert str(info.value) == f"bad sidecar header {fields}; expected kind,timestamp"

    @pytest.mark.parametrize("kind", ["sleep_onset ", "Sleep_onset", "wake", ""])
    def test_transition_row_with_unknown_kind(self, kind):
        # "sleep_onset " would match no event and count the truth as missed
        text = f"kind,timestamp\nwake_time,600\n{kind},1200\n"
        with pytest.raises(IngestError) as info:
            read_transitions(io.StringIO(text))
        assert str(info.value) == ("row 3: event kind not one of sleep_onset, wake_time: "
                                   f"{[kind, '1200']!r}")

    def test_huge_transition_kind_echo_is_clipped(self):
        with pytest.raises(IngestError) as info:
            read_transitions(io.StringIO(f"kind,timestamp\n{HUGE_FIELD},600\n"))
        assert_clipped(str(info.value), "row 2: event kind not one of sleep_onset, "
                                        "wake_time: ['111")

    def test_huge_transition_row_echo_is_clipped(self):
        with pytest.raises(IngestError) as info:
            read_transitions(io.StringIO(f"kind,timestamp\nsleep_onset,{HUGE_FIELD}\n"))
        assert_clipped(str(info.value), "row 2: no finite timestamp: ['sleep_onset', '111")


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

    def test_series_shorter_than_a_window_skipped(self):
        series = make_series(480)
        series.labels[240:] = 1
        want = build_training_set([series], seed=0)
        with pytest.warns(UserWarning, match="shorter than one 30-epoch window") as caught:
            got = build_training_set([make_series(29), series, make_series(0)], seed=0)
        assert len(caught) == 2
        assert [(w.end_timestamp, w.label) for w in got] == \
            [(w.end_timestamp, w.label) for w in want]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.values, b.values)

    def test_no_labeled_window_in_context(self):
        # the one transition is at epoch 101; every window's final minute is
        # unlabeled or straddles it
        series = make_series(200)
        series.labels[:] = -1
        series.labels[100:102] = [0, 1]
        with pytest.raises(ValueError, match="^no labeled windows within the transition "
                                             "context$"):
            build_training_set([series], context_hours=0, seed=0)

    def test_single_class_rejected(self):
        # the transition at epoch 39 falls in the last window's final
        # minute, which is unlabeled, so every kept window is awake
        series = make_series(40)
        series.labels[39] = 1
        with pytest.raises(ValueError, match="^training set contains a single class only$"):
            build_training_set([series], context_hours=0, seed=0)

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
