import logging
import math
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import relsha
from relsha.ingest import (
    FLAG_GOOD,
    format_number,
    load_harmonics,
    load_water_levels,
    parse_timestamp,
    solution_to_text,
    water_levels_to_text,
)
from relsha.series import EPOCH, HarmonicSolution

IST = timezone(timedelta(hours=5, minutes=30))


def _hours_after_epoch(stamp):
    return (stamp - EPOCH) / timedelta(hours=1)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestWaterLevels:
    def test_two_rows(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T00:00:00Z,1.0\n"
                               "2021-01-01T00:06:00Z,1.2\n")
        series = load_water_levels(path)
        assert len(series) == 2
        assert series.times[0] == 0.0
        assert series.times[1] == pytest.approx(0.1)
        assert np.array_equal(series.heights, [1.0, 1.2])

    def test_missing_height_dropped_with_warning(self, tmp_path, caplog):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T00:00:00Z,1.0\n"
                               "2021-01-01T00:06:00Z,\n"
                               "2021-01-01T00:12:00Z,1.4\n")
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert len(series) == 2
        assert any("dropped" in record.message for record in caplog.records)

    def test_duplicate_timestamp_keeps_first(self, tmp_path, caplog):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T00:00:00Z,1.0\n"
                               "2021-01-01T00:06:00Z,1.2\n"
                               "2021-01-01T00:06:00Z,9.9\n")
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert len(series) == 2
        assert series.heights[1] == 1.2
        assert any("duplicate" in record.message for record in caplog.records)

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T01:00:00Z,2.0\n"
                               "2021-01-01T00:00:00Z,1.0\n")
        series = load_water_levels(path)
        assert np.array_equal(series.heights, [1.0, 2.0])

    def test_header_required(self, tmp_path):
        path = write(tmp_path, "2021-01-01T00:00:00Z,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_water_levels(path)

    def test_no_valid_rows(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m\nnot-a-date,xyz\n")
        with pytest.raises(ValueError, match="no valid rows"):
            load_water_levels(path)

    def test_round_trip(self, tmp_path):
        original = write(tmp_path, "timestamp,height_m\n"
                                   "2021-03-01T06:30:00Z,1.234\n"
                                   "2021-03-01T06:42:00Z,-0.567\n"
                                   "2021-03-01T07:00:00Z,0.25\n")
        series = load_water_levels(original)
        out = tmp_path / "out.csv"
        out.write_text(water_levels_to_text(series))
        assert load_water_levels(out).heights.tolist() == series.heights.tolist()
        again = tmp_path / "again.csv"
        again.write_text(water_levels_to_text(load_water_levels(out)))
        assert again.read_text() == out.read_text()

    def test_2016_file_survives_write_and_read(self, tmp_path):
        # a record from before EPOCH has negative hours and keeps its stamps
        stamps, heights = _six_minute_year(np.random.default_rng(4), "2016-03-01T12:00", 2000)
        text = _gauge_text(_canonical_rows(stamps, heights))
        assert relsha.ingest._read_canonical(text.encode()) is not None
        series = load_water_levels(write(tmp_path, text))
        start = _hours_after_epoch(datetime(2016, 3, 1, 12, tzinfo=timezone.utc))
        assert series.times[0] == start < series.times[-1] < 0
        assert water_levels_to_text(series) == text

    def test_timestamp_formats(self):
        for text in ("2021-01-01T00:00:00Z", "2021-01-01T00:00:00+00:00", "2021-01-01 00:00:00"):
            stamp = parse_timestamp(text)
            assert stamp.timestamp() == datetime(2021, 1, 1, tzinfo=timezone.utc).timestamp()


    def test_offset_is_honoured(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T00:06:00Z,1.2\n"
                               "2021-01-01T05:30:00+05:30,1.0\n")
        series = load_water_levels(path)
        assert series.times.tolist() == [0.0, 0.1]
        assert series.heights.tolist() == [1.0, 1.2]

    def test_naive_and_fractional_second_stamps(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01 00:00:00,1.0\n"
                               "2021-01-01T00:00:00.5,1.1\n"
                               "2021-01-01T00:00:01.000001+00:00,1.2\n")
        series = load_water_levels(path)
        assert series.times.tolist() == [0.0, 0.5 / 3600.0, 1.000001 / 3600.0]
        assert series.heights.tolist() == [1.0, 1.1, 1.2]

    def test_crlf_line_endings_keep_line_numbers(self, tmp_path, caplog):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"timestamp,height_m\r\n"
                         b"2021-01-01T00:00:00Z,1.0\r\n"
                         b"2021-01-01T00:06:00Z,oops\r\n"
                         b"2021-01-01T00:12:00Z,1.4\r\n")
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert series.heights.tolist() == [1.0, 1.4]
        assert series.times.tolist() == [0.0, 0.2]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:3: unparseable row '2021-01-01T00:06:00Z,oops' dropped"
        ]

    def test_comments_and_blank_lines_inside_data(self, tmp_path, caplog):
        path = write(tmp_path, "# station 42\n"
                               "\n"
                               "timestamp,height_m\n"
                               "2021-01-01T00:00:00Z,1.0\n"
                               "# sensor swapped\n"
                               "   \n"
                               "  2021-01-01T00:06:00Z , 1.2  \n"
                               "2021-01-01T00:12:00Z,\n"
                               "\n"
                               "bad-stamp,1.3\n")
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert series.heights.tolist() == [1.0, 1.2]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:8: missing/non-finite height dropped",
            f"{path}:10: unparseable row 'bad-stamp,1.3' dropped",
        ]

    def test_nan_and_inf_heights_dropped(self, tmp_path, caplog):
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T00:00:00Z,nan\n"
                               "2021-01-01T00:06:00Z,1.0\n"
                               "2021-01-01T00:12:00Z,inf\n"
                               "2021-01-01T00:18:00Z,-Infinity\n"
                               "2021-01-01T00:24:00Z,2.0\n")
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert series.heights.tolist() == [1.0, 2.0]
        assert series.times.tolist() == [360.0 / 3600.0, 1440.0 / 3600.0]
        lines = [r.getMessage().split(":")[-2] for r in caplog.records]
        assert lines == ["2", "4", "5"]

    def test_cycle_column_after_the_timestamp_is_a_gauge_column(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m,cycle\n"
                               "2021-01-01T00:00:00Z,1.0,7\n"
                               "2021-01-01T00:06:00Z,1.2,7\n")
        assert load_water_levels(path).heights.tolist() == [1.0, 1.2]

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "timestamp,height_m,quality,note\n"
                               "2021-01-01T00:00:00Z,1.0,good,a\n"
                               "2021-01-01T00:06:00Z,1.2,,\n")
        series = load_water_levels(path)
        assert series.heights.tolist() == [1.0, 1.2]

    def test_duplicate_sorting_before_its_first_occurrence(self, tmp_path, caplog):
        # 00:00 UTC appears three times after a later row; the first of them
        # in file order (the +05:30 one) wins
        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T01:00:00Z,1.0\n"
                               "2021-01-01T05:30:00+05:30,2.0\n"
                               "2021-01-01T00:00:00Z,3.0\n"
                               "2021-01-01 00:00:00,4.0\n")
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert series.times.tolist() == [0.0, 1.0]
        assert series.heights.tolist() == [2.0, 1.0]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: duplicate timestamp 2021-01-01T00:00:00+00:00 dropped",
            f"{path}: duplicate timestamp 2021-01-01T00:00:00+00:00 dropped",
        ]


    def test_z_suffix_where_fromisoformat_rejects_it(self, tmp_path, monkeypatch):
        # Python 3.10's fromisoformat rejects 'Z'; the loader must not need it
        class NoZulu(datetime):
            @classmethod
            def fromisoformat(cls, text):
                if text.endswith("Z"):
                    raise ValueError(f"Invalid isoformat string: {text!r}")
                return datetime.fromisoformat(text)

        path = write(tmp_path, "timestamp,height_m\n"
                               "2021-01-01T00:06:00Z,1.2\n"
                               "2021-01-01T00:00:00+00:00,1.0\n")
        expected = load_water_levels(path)
        monkeypatch.setattr(relsha.ingest, "datetime", NoZulu)
        series = load_water_levels(path)
        assert series.times.tolist() == expected.times.tolist() == [0.0, 0.1]
        assert parse_timestamp("2021-01-01T00:00:00Z") == datetime(2021, 1, 1, tzinfo=timezone.utc)


def _reference_load_water_levels(path):
    """The row-by-row loader the vectorized one replaced, kept as its oracle."""
    lines = _reference_data_lines(path)
    stamps, heights = [], []
    for number, line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        try:
            stamp = parse_timestamp(parts[0])
            value = float(parts[1]) if len(parts) > 1 and parts[1] else math.nan
        except (ValueError, IndexError):
            logging.getLogger("relsha.ingest").warning(
                "%s:%d: unparseable row %r dropped", path, number, line)
            continue
        if not math.isfinite(value):
            logging.getLogger("relsha.ingest").warning(
                "%s:%d: missing/non-finite height dropped", path, number)
            continue
        stamps.append(stamp)
        heights.append(value)
    order = np.argsort(np.array([s.timestamp() for s in stamps]), kind="stable")
    times, kept_heights = [], []
    last = None
    for i in order:
        hours = (stamps[i] - EPOCH).total_seconds() / 3600.0
        if last is not None and hours == last:
            logging.getLogger("relsha.ingest").warning(
                "%s: duplicate timestamp %s dropped", path, stamps[i].isoformat())
            continue
        times.append(hours)
        kept_heights.append(heights[i])
        last = hours
    return np.array(times), np.array(kept_heights)


def _reference_data_lines(path):
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                lines.append((number, stripped))
    return lines


def _six_minute_year(rng, start="2021-01-03T02:06", count=87_841):
    """One year of 6-min stamps, as ``relsha synth`` writes them."""
    steps = np.arange(count) * np.timedelta64(6, "m")
    stamps = np.datetime_as_string(np.datetime64(start) + steps, unit="s")
    return [f"{s}Z" for s in stamps], rng.normal(0.0, 0.6, count)


def _canonical_rows(stamps, heights):
    return [f"{s},{format_number(h)}" for s, h in zip(stamps, heights)]


def _stamp(row):
    return row.split(",")[0]


def _replaced(rows, i, row):
    return rows[:i] + [row] + rows[i + 1:]


# Every kind of row the loaders drop, reorder or must read exactly, one
# defect each; _spoil applies them all.
DEFECTS = {
    "unparseable-stamp": lambda r: _replaced(r, 10, "not-a-date,1.0"),
    "empty-height": lambda r: _replaced(r, 20, _stamp(r[20]) + ","),
    "nan-height": lambda r: _replaced(r, 30, _stamp(r[30]) + ",nan"),
    "infinite-height": lambda r: _replaced(r, 40, _stamp(r[40]) + ",-inf"),
    "duplicate": lambda r: _replaced(r, 50, _stamp(r[49]) + ",9.5"),
    "offset": lambda r: _replaced(r, 60, "2021-01-03T13:06:00+05:30,0.25"),  # = r[55] in UTC
    "naive-fractional": lambda r: _replaced(r, 70, "2021-01-03 09:06:00.000250,0.5"),
    "out-of-order": lambda r: r[:80] + [r[81], r[80]] + r[82:],
    "padded-extra-column": lambda r: _replaced(r, 90, " 2021-01-03T11:06:00.5Z , 0.75 ,extra"),
    "comment": lambda r: r[:100] + ["# gauge serviced"] + r[100:],
    "blank-line": lambda r: r[:101] + [""] + r[101:],
    "sorts-far-back": lambda r: r + [_stamp(r[5]) + ",7.0"],
    "new-earliest": lambda r: r + ["2021-01-01T00:00:00-03:00,1.5"],
}


def _spoil(rows):
    for defect in DEFECTS.values():
        rows = defect(rows)
    return rows


def _gauge_text(rows):
    return "timestamp,height_m\n" + "\n".join(rows) + "\n"


def _assert_matches_reference(path, caplog):
    """load_water_levels gives the reference loader's series and log;
    returns the log."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        times, kept = _reference_load_water_levels(path)
    expected_log = [r.getMessage() for r in caplog.records]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        series = load_water_levels(path)
    assert series.times.tobytes() == times.tobytes()
    assert series.heights.tobytes() == kept.tobytes()
    assert [r.getMessage() for r in caplog.records] == expected_log
    return expected_log


# 40 rows as relsha synth writes them
CANONICAL_TEXT = _gauge_text(_canonical_rows(*_six_minute_year(np.random.default_rng(10), count=40)))


class TestWaterLevelGolden:
    def test_matches_row_by_row_loader_bit_for_bit(self, tmp_path, caplog):
        stamps, heights = _six_minute_year(np.random.default_rng(5))
        path = write(tmp_path, _gauge_text(_spoil(_canonical_rows(stamps, heights))))
        assert len(_assert_matches_reference(path, caplog)) == 7

    def test_canonical_year_is_read_column_wise_bit_for_bit(self, tmp_path, caplog):
        stamps, heights = _six_minute_year(np.random.default_rng(5))
        text = _gauge_text(_canonical_rows(stamps, heights))
        assert relsha.ingest._read_canonical(text.encode()) is not None
        path = write(tmp_path, text)
        assert _assert_matches_reference(path, caplog) == []

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_each_defect_takes_the_row_by_row_path(self, tmp_path, caplog, defect):
        stamps, heights = _six_minute_year(np.random.default_rng(5), count=300)
        text = _gauge_text(DEFECTS[defect](_canonical_rows(stamps, heights)))
        assert relsha.ingest._read_canonical(text.encode()) is None
        _assert_matches_reference(write(tmp_path, text), caplog)

    @pytest.mark.parametrize("text", [
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5",
        "timestamp,height_m,quality\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5,good\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1,5\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5\n\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n202\u0661-01-01T00:06:00Z,1.5\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5\x1c\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1_000.5\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00ZZ,1.5\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z ,1.5\n",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5\t\n",
        "timestamp,height_m\r2021-01-01T00:00:00Z,1.0\r2021-01-01T00:06:00Z,1.5\r",
        "timestamp,height_m\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:06:00Z,1.5\u00a0\n",
    ], ids=["no-final-newline", "extra-header-column", "extra-column", "two-heights",
            "trailing-blank-line", "arabic-indic-digit", "height-with-0x1c", "underscore-height",
            "stamp-ending-zz", "stamp-ending-z-space", "tab-after-height", "cr-line-ends",
            "non-ascii-height"])
    def test_other_layouts_take_the_row_by_row_path(self, tmp_path, caplog, text):
        assert relsha.ingest._read_canonical(text.encode()) is None
        _assert_matches_reference(write(tmp_path, text), caplog)

    @pytest.mark.parametrize("stamp", [
        "2021-02-29T12:00:00Z", "2100-02-29T12:00:00Z", "2021-04-31T12:00:00Z",
        "2021-13-01T12:00:00Z", "2021-03-00T12:00:00Z", "2021-03-01T24:00:00Z",
        "2021-03-01T23:60:00Z", "2021-03-01T23:59:60Z", "0000-03-01T12:00:00Z",
    ])
    def test_invalid_calendar_stamp_is_dropped_as_row_by_row(self, tmp_path, caplog, stamp):
        # first, so that read as any instant it would sort before the next row
        text = _gauge_text([f"{stamp},2.0", "2200-01-01T00:00:00Z,3.0"])
        assert relsha.ingest._read_canonical(text.encode()) is None
        path = write(tmp_path, text)
        assert _assert_matches_reference(path, caplog) == [
            f"{path}:2: unparseable row '{stamp},2.0' dropped"
        ]

    @given(
        boundary=st.sampled_from([
            datetime(1, 2, 1), datetime(1900, 3, 1), datetime(2000, 3, 1), datetime(2020, 3, 1),
            datetime(2021, 3, 1), datetime(2021, 5, 1), datetime(2021, 1, 1),
            datetime(2022, 1, 1), datetime(2100, 3, 1), datetime(9999, 12, 1),
        ]),
        seconds=st.lists(st.integers(-3 * 86_400, 3 * 86_400), min_size=1, max_size=40,
                         unique=True),
        heights=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=40,
                         max_size=40),
    )
    def test_both_paths_agree_across_calendar_boundaries(
        self, tmp_path_factory, boundary, seconds, heights
    ):
        stamps = [(boundary + timedelta(seconds=s)).isoformat() + "Z" for s in sorted(seconds)]
        text = _gauge_text(_canonical_rows(stamps, heights))
        columns = relsha.ingest._read_canonical(text.encode())
        assert columns is not None
        path = tmp_path_factory.mktemp("gauge") / "gauge.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(relsha.ingest, "_read_canonical", return_value=None):
            rows = load_water_levels(path)
        assert columns.times.tobytes() == rows.times.tobytes()
        assert columns.heights.tobytes() == rows.heights.tobytes()

    @given(position=st.integers(0, len(CANONICAL_TEXT) - 1), value=st.integers(0, 255))
    def test_a_changed_byte_is_declined_or_read_as_row_by_row(
        self, tmp_path_factory, position, value
    ):
        data = bytearray(CANONICAL_TEXT.encode())
        data[position] = value
        columns = relsha.ingest._read_canonical(bytes(data))
        if columns is None:
            return
        path = tmp_path_factory.mktemp("gauge") / "gauge.csv"
        path.write_bytes(data)
        with mock.patch.object(relsha.ingest, "_read_canonical", return_value=None):
            rows = load_water_levels(path)
        assert columns.times.tobytes() == rows.times.tobytes()
        assert columns.heights.tobytes() == rows.heights.tobytes()

    def test_crlf_copy_gives_the_lf_series(self, tmp_path, caplog):
        lf = load_water_levels(write(tmp_path, CANONICAL_TEXT))
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(CANONICAL_TEXT.replace("\n", "\r\n").encode())
        assert relsha.ingest._read_canonical(crlf.read_bytes()) is not None
        assert _assert_matches_reference(crlf, caplog) == []
        series = load_water_levels(crlf)
        assert series.times.tobytes() == lf.times.tobytes()
        assert series.heights.tobytes() == lf.heights.tobytes()


def _reference_load_altimetry(path):
    """The row-by-row altimetry loader, kept as the oracle of the new one."""
    warn = logging.getLogger("relsha.ingest").warning
    lines = _reference_data_lines(path)
    rows = []
    for number, line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        try:
            cycle = int(parts[0])
            stamp = parse_timestamp(parts[1])
            value = float(parts[2]) if parts[2] else math.nan
            flag = int(parts[3]) if len(parts) > 3 and parts[3] else FLAG_GOOD
        except (ValueError, IndexError):
            warn("%s:%d: unparseable row %r dropped", path, number, line)
            continue
        if not math.isfinite(value):
            warn("%s:%d: missing/non-finite height dropped", path, number)
            continue
        rows.append((cycle, stamp, value, flag))
    rows.sort(key=lambda r: r[1])
    return (
        np.array([r[0] for r in rows]),
        np.array([(r[1] - EPOCH).total_seconds() / 3600.0 for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[3] for r in rows]),
    )


def _reference_median_per_cycle(path, cycles, times, heights, flags):
    """The per-cycle median reduction that pass files once went through
    separately, kept as the oracle of the one inside load_water_levels."""
    good = flags == FLAG_GOOD
    reduced = []
    for cycle in np.unique(cycles[good]):
        mask = good & (cycles == cycle)
        reduced.append((float(np.median(times[mask])), float(np.median(heights[mask])), cycle))
    reduced.sort(key=lambda r: r[0])
    kept_t, kept_h = [], []
    for t, h, cycle in reduced:
        if kept_t and t == kept_t[-1]:
            logging.getLogger("relsha.ingest").warning(
                "%s: cycle %d dropped: same median time as a lower cycle", path, cycle)
            continue
        kept_t.append(t)
        kept_h.append(h)
    return np.array(kept_t), np.array(kept_h)


class TestAltimetryGolden:
    def test_matches_row_by_row_loader_bit_for_bit(self, tmp_path, caplog):
        rng = np.random.default_rng(6)
        stamps, heights = _six_minute_year(rng)
        flags = rng.integers(0, 3, len(stamps))
        rows = [f"{i // 240},{s},{format_number(h)},{f}"
                for i, (s, h, f) in enumerate(zip(stamps, heights, flags))]
        rows[15] = "x,2021-01-03T03:36:00Z,1.0,0"                            # bad cycle
        rows[25] = "0,2021-01-03T04:36:00Z,0.5,"                             # flag defaults to good
        rows[35] = "0,2021-01-03T05:36:00Z"                                  # no height
        rows[45] = "0,2021-01-03T11:36:00+05:30,0.5"                         # no flag column
        rows[55] = rows[54].rsplit(",", 2)[0] + ",3.0,1"                     # duplicate stamp kept
        rows[65] = rows[65].rsplit(",", 2)[0] + ",inf,0"                     # non-finite height
        rows.insert(60, "# pass 288")
        rows.append("9,2021-01-02T00:00:00,2.5,0")                            # naive, early
        rows.append("9,2021-01-02T01:00:00+05:30,2.5,1")                      # flagged, earliest
        rows += ["1000" + row[row.index(","):]                                # cycle 5 again
                 for row in rows if row.startswith("5,")]
        path = write(tmp_path, "cycle,timestamp,ssh_m,flag\n" + "\n".join(rows) + "\n")
        with caplog.at_level(logging.WARNING):
            columns = _reference_load_altimetry(path)
            times, kept = _reference_median_per_cycle(path, *columns)
        expected_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            series = load_water_levels(path)
        assert series.times.tobytes() == times.tobytes()
        assert series.heights.tobytes() == kept.tobytes()
        assert [r.getMessage() for r in caplog.records] == expected_log
        assert len(expected_log) == 4
        assert expected_log[-1] == f"{path}: cycle 1000 dropped: same median time as a lower cycle"
        assert len(series) == 366


def _reference_stamp(hours):
    """The row-by-row stamp of the writers, kept as the oracle of the
    vectorized one: timedelta arithmetic, rounding and strftime per row."""
    stamp = EPOCH + timedelta(hours=float(hours))
    stamp = (stamp + timedelta(microseconds=500_000)).replace(microsecond=0)
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _reference_water_levels_to_text(series):
    lines = ["timestamp,height_m"]
    for t, h in zip(series.times, series.heights):
        lines.append(f"{_reference_stamp(t)},{format_number(h)}")
    return "\n".join(lines) + "\n"


def _half_microsecond_hours():
    """Hours below one whose fraction times 3.6e9 is exactly
    j * 1e6 + 499 999.5 microseconds, one for most seconds j."""
    micros = np.arange(3600) * 1e6 + 499_999.5
    hours = micros / 3.6e9
    return hours[hours * 3.6e9 == micros]


class TestWriterGolden:
    @pytest.mark.parametrize(
        "times",
        [
            # a 6-min leap year from EPOCH
            np.arange(0.0, 8784.0, 0.1),
            # irregular times from an IST stamp with microseconds
            _hours_after_epoch(datetime(2020, 2, 29, 23, 59, 59, 123457, tzinfo=IST))
            + np.cumsum(np.random.default_rng(7).uniform(1e-3, 3.0, 2000)),
            # whole hours and a half second: every stamp rounds up
            np.arange(0.0, 500.0) + 0.5 / 3600.0,
            # quarter hours from one microsecond before midnight, New Year
            _hours_after_epoch(datetime(2021, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc))
            + np.arange(0.0, 100.0, 0.25),
            # hours whose product with 3.6e9 is j seconds and 499 999.5 us:
            # rounded half to even that is 500 000 us, which lands on a half
            # second and so decides the stamp's second
            _half_microsecond_hours(),
            # negative hours from a UTC-7 stamp
            _hours_after_epoch(datetime(1999, 6, 1, 12, 0, 0, 250_000, tzinfo=timezone(timedelta(hours=-7))))
            + np.sort(np.random.default_rng(8).uniform(-5000.0, 5000.0, 2000)),
        ],
        ids=["6min-year", "ist-microseconds", "half-second", "before-midnight", "half-microsecond", "negative-hours"],
    )
    def test_water_levels_match_row_by_row_writer(self, times):
        heights = np.random.default_rng(9).normal(size=times.size)
        series = relsha.WaterLevelSeries(times, heights)
        assert water_levels_to_text(series) == _reference_water_levels_to_text(series)

    @given(st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=30, unique=True),
           st.integers(0, 999_999))
    def test_any_hours_match_row_by_row_writer(self, hours, microsecond):
        start = _hours_after_epoch(datetime(2021, 6, 30, 23, 59, 59, microsecond, tzinfo=IST))
        times = np.unique(start + np.array(hours))
        series = relsha.WaterLevelSeries(times, np.zeros(times.size))
        expected = _reference_water_levels_to_text(series)
        seen = set()
        stamps = [row.split(",")[0] for row in expected.splitlines()[1:]]
        repeated = next((stamp for stamp in stamps if stamp in seen or seen.add(stamp)), None)
        if repeated is None:
            assert water_levels_to_text(series) == expected
        else:
            with pytest.raises(ValueError, match=f"share the stamp {re.escape(repeated)},"):
                water_levels_to_text(series)

    @pytest.mark.parametrize("times, stamp", [
        (np.array([0.0, 1.192092896e-07]), "2021-01-01T00:00:00Z"),
        # the pair straddles two blocks of the writer
        (np.append(np.arange(8192.0), 8191.2) / 3600.0, "2021-01-01T02:16:31Z"),
    ])
    def test_samples_sharing_a_stamp_raise(self, times, stamp):
        series = relsha.WaterLevelSeries(times, np.zeros(times.size))
        with pytest.raises(ValueError) as excinfo:
            water_levels_to_text(series)
        assert str(excinfo.value) == (
            f"two samples would share the stamp {stamp}, since stamps are whole seconds"
        )


ALTIMETRY_TEXT = (
    "cycle,timestamp,ssh_m,flag\n"
    "1,2021-01-01T00:00:00Z,1.0,0\n"
    "1,2021-01-01T00:00:01Z,1.2,0\n"
    "1,2021-01-01T00:00:02Z,5.0,0\n"
    "2,2021-01-10T21:36:00Z,0.9,0\n"
    "2,2021-01-10T21:36:01Z,1.1,0\n"
    "3,2021-01-20T19:12:00Z,2.0,1\n"
    "3,2021-01-20T19:12:01Z,2.1,1\n"
    "4,2021-01-30T16:48:00Z,0.7,0\n"
)


class TestAltimetry:
    def test_load_and_reduce(self, tmp_path):
        path = write(tmp_path, ALTIMETRY_TEXT)
        series = load_water_levels(path)
        # cycle 3 is all-bad: gap preserved, cycles 1, 2, 4 remain
        assert len(series) == 3
        assert series.heights[0] == pytest.approx(1.2)  # median of (1.0, 1.2, 5.0)
        assert series.heights[1] == pytest.approx(1.0)  # even count: mid-mean
        assert series.heights[2] == pytest.approx(0.7)
        assert series.times.tolist() == [1 / 3600, 237.6 + 0.5 / 3600, 712.8]

    def test_sample_count_never_grows(self, tmp_path):
        path = write(tmp_path, ALTIMETRY_TEXT)
        assert len(load_water_levels(path)) <= ALTIMETRY_TEXT.count("\n") - 1

    def test_flagged_row_adds_no_sample(self, tmp_path):
        # a flagged row an hour before the first good one neither adds a
        # sample nor shifts a time
        path = write(tmp_path, ALTIMETRY_TEXT + "0,2020-12-31T23:00:00Z,9.0,1\n")
        series = load_water_levels(path)
        assert series.heights.tolist() == [1.2, 1.0, 0.7]
        assert series.times[0] == 1 / 3600

    def test_all_bad_rejected_on_reduce(self, tmp_path):
        path = write(tmp_path, "cycle,timestamp,ssh_m,flag\n1,2021-01-01T00:00:00Z,1.0,2\n")
        with pytest.raises(ValueError, match="no good-flag"):
            load_water_levels(path)

    @given(
        heights=st.lists(st.floats(-2, 2), min_size=1, max_size=12),
        cycle_count=st.integers(1, 4),
    )
    def test_pass_file_satisfies_series_invariants(self, tmp_path_factory, heights, cycle_count):
        count = len(heights)
        cycles = np.sort(np.arange(count) % cycle_count)
        epoch = datetime(2021, 1, 1, tzinfo=timezone.utc)
        rows = [f"{c},{(epoch + timedelta(hours=10.0 * i)).isoformat()},{format_number(h)},0"
                for i, (c, h) in enumerate(zip(cycles, heights))]
        path = tmp_path_factory.mktemp("pass") / "pass.csv"
        path.write_text("cycle,timestamp,ssh_m,flag\n" + "\n".join(rows) + "\n")
        series = load_water_levels(path)
        assert np.all(np.diff(series.times) > 0)
        assert len(series) == len(set(cycles))
        # a median lies within its samples (heights are written to 9 digits)
        assert np.all(series.heights >= min(heights) - 1e-8)
        assert np.all(series.heights <= max(heights) + 1e-8)


class TestHarmonics:
    def test_unknown_constituent_rejected(self, tmp_path, catalog):
        path = write(tmp_path, "constituent_name,amplitude_m,phase_deg\nZZ9,0.5,0\n")
        with pytest.raises(ValueError, match="ZZ9"):
            load_harmonics(path, catalog)

    def test_missing_constituents_default_zero_with_warning(self, tmp_path, catalog, caplog):
        path = write(tmp_path, "constituent_name,amplitude_m,phase_deg\nM2,0.64,249.1\n")
        with caplog.at_level(logging.WARNING):
            solution, _ = load_harmonics(path, catalog)
        assert solution.amplitudes[catalog.index_of("M2")] == 0.64
        assert solution.amplitudes.sum() == pytest.approx(0.64)
        assert sum("missing" in r.message for r in caplog.records) == catalog.n - 1

    def test_phase_column_optional(self, tmp_path, catalog):
        path = write(tmp_path, "constituent_name,amplitude_m\nM2,0.5\n")
        solution, _ = load_harmonics(path, catalog)
        assert solution.phases[catalog.index_of("M2")] == 0.0

    def test_duplicate_rejected(self, tmp_path, catalog):
        path = write(tmp_path, "constituent_name,amplitude_m,phase_deg\nM2,0.5,0\nM2,0.6,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_harmonics(path, catalog)

    def test_negative_amplitude_rejected(self, tmp_path, catalog):
        path = write(tmp_path, "constituent_name,amplitude_m,phase_deg\nM2,-0.5,0\n")
        with pytest.raises(ValueError, match="non-negative"):
            load_harmonics(path, catalog)

    @pytest.mark.parametrize("row, field", [
        ("M2,nan,0", "amplitude"), ("M2,inf,0", "amplitude"),
        ("M2,0.5,nan", "phase"), ("M2,0.5,-inf", "phase"),
    ])
    def test_non_finite_value_rejected_with_its_line(self, tmp_path, catalog, row, field):
        path = write(tmp_path, f"constituent_name,amplitude_m,phase_deg\nS2,0.2,10\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {field} must be finite")):
            load_harmonics(path, catalog)

    def test_metadata_headers(self, tmp_path, catalog):
        path = write(tmp_path, "# mean_m = 1.25\n# trend_m_per_hour = -0.001\n"
                               "# method = ha\n"
                               "constituent_name,amplitude_m,phase_deg\nM2,0.64,180\n")
        solution, metadata = load_harmonics(path, catalog)
        assert solution.mean == 1.25
        assert solution.trend == -0.001
        assert metadata["method"] == "ha"
        assert solution.phases[0] == pytest.approx(math.pi)

    def test_solution_round_trip(self, tmp_path, truth, catalog):
        out = tmp_path / "solution.csv"
        out.write_text(solution_to_text(truth, diagnostics={"method": "synthetic"}))
        again, metadata = load_harmonics(out, catalog)
        assert metadata["method"] == "synthetic"
        assert np.allclose(again.amplitudes, truth.amplitudes, rtol=1e-8, atol=1e-12)
        assert np.allclose(again.phases, truth.phases, atol=1e-9)
        assert again.mean == pytest.approx(truth.mean)

    def test_empty_file_rejected(self, tmp_path, catalog):
        path = write(tmp_path, "constituent_name,amplitude_m,phase_deg\n")
        with pytest.raises(ValueError, match="no harmonic rows"):
            load_harmonics(path, catalog)

    def test_text_is_reference_compatible(self, catalog):
        solution = HarmonicSolution(
            0.5, 0.001, np.linspace(0, 1, catalog.n), np.zeros(catalog.n), catalog
        )
        text = solution_to_text(solution)
        assert "constituent_name,amplitude_m,phase_deg" in text
        assert text.startswith("# mean_m = 0.5")
