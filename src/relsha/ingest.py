"""File ingestion and export.

All formats are comma-separated UTF-8 text with a header row; lines
starting with ``#`` are comments. Timestamps are ISO-8601 (UTC assumed
when no offset is given) and are converted to hours since
series.EPOCH, 2021-01-01T00:00Z, wherever a file starts, so phases in
every file refer to that one instant. Bad rows are dropped with a logged
warning, never interpolated.

load_water_levels reads both kinds of water-level file, told apart by
the header: tide-gauge records (``timestamp,height_m``) and altimetry
pass files (``cycle,timestamp,ssh_m,flag``), which it reduces to one
sample per repeat cycle.

A file is read with one ``read_text``. A gauge file in exactly the
layout water_levels_to_text writes (what ``relsha synth`` and ``relsha
resample`` produce: the ``timestamp,height_m`` header, then LF-ended
``YYYY-MM-DDTHH:MM:SSZ,<height>`` rows with finite heights and strictly
increasing times) is read column-wise: every stamp is decoded in one
numpy pass and every height by float() in one np.fromiter pass. Any
other file is read row by row: each row is parsed once into an aware
datetime and a float, and sorting, duplicate detection and the
conversion to hours run on one int64 array of microseconds. Both paths
give the same series, bit for bit, on a file the first one accepts.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator, Sequence
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path

import numpy as np

from .constituents import TWO_PI, ConstituentCatalog
from .series import EPOCH, HarmonicSolution, WaterLevelSeries

log = logging.getLogger(__name__)

FLAG_GOOD = 0

_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_EPOCH_MICROS = (EPOCH - _UNIX_EPOCH) // _MICROSECOND
_STAMP_BLOCK = 8192


def parse_timestamp(text: str) -> datetime:
    """An aware datetime from ISO-8601 text; no offset means UTC."""
    text = text.strip()
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        # Python 3.10's fromisoformat rejects the 'Z' suffix.
        if not text.endswith("Z"):
            raise
        stamp = datetime.fromisoformat(text[:-1] + "+00:00")
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def _stamp_seconds(hours: np.ndarray) -> np.ndarray:
    """Seconds since the Unix epoch that the stamp of each of ``hours``
    after EPOCH names: (EPOCH + timedelta(hours=h)) rounded to the second.

    Each offset gets the microseconds CPython gives timedelta(hours=h):
    the whole hours exactly, the fraction's whole microseconds by modf,
    and the leftover part of a microsecond rounded half to even on the
    total. Adding EPOCH's microseconds since the Unix epoch and half a
    second, then flooring to seconds, rounds to the second.
    """
    fraction, whole = np.modf(hours)
    leftover, micros = np.modf(fraction * 3.6e9)
    micros = whole.astype(np.int64) * 3_600_000_000 + micros.astype(np.int64)
    rounded = np.rint(leftover).astype(np.int64)
    halfway = np.abs(leftover) == 0.5
    rounded[halfway] = (micros[halfway] & 1) * np.sign(leftover[halfway]).astype(np.int64)
    return (micros + rounded + (_EPOCH_MICROS + 500_000)) // 1_000_000


def stamped_hours(hours: np.ndarray) -> np.ndarray:
    """Hours since EPOCH of the whole-second instants that
    ``water_levels_to_text`` stamps for ``hours``, as the loaders read
    those stamps back."""
    return _hours_since_epoch(_stamp_seconds(hours) * 1_000_000)


def _utc_stamps(hours: np.ndarray) -> Iterator[str]:
    """ISO-8601 UTC stamps, to the nearest second, of hours after EPOCH,
    without the 'Z' suffix. Blocks of _STAMP_BLOCK rows keep the
    temporary arrays small.
    """
    for i in range(0, len(hours), _STAMP_BLOCK):
        seconds = _stamp_seconds(hours[i : i + _STAMP_BLOCK])
        yield from np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s").tolist()


def format_number(value: float) -> str:
    return format(float(value), ".9g")


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of every non-blank, non-comment line.

    read_text turns CRLF and CR line ends into LF, so splitting on LF
    numbers the lines as iterating the file would; str.splitlines would
    also split on form feeds and other separators.
    """
    return [
        (number, line)
        for number, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip()) and line[0] != "#"
    ]


def _hours_since_epoch(micros: np.ndarray) -> np.ndarray:
    """Hours since EPOCH of int64 microseconds since the Unix epoch.

    (us - us_EPOCH) / 1e6 / 3600 is the same IEEE operations as
    (stamp - EPOCH).total_seconds() / 3600 while |us - us_EPOCH| stays
    below 2**53 (about 285 years), where int64 to float is exact.
    """
    return (micros - _EPOCH_MICROS) / 1e6 / 3600.0


def _time_order(stamps: Sequence[datetime]) -> tuple[np.ndarray, np.ndarray]:
    """Stable time order of aware stamps, and their hours since EPOCH in
    that order."""
    micros = np.fromiter(((s - _UNIX_EPOCH) // _MICROSECOND for s in stamps), np.int64, len(stamps))
    order = np.argsort(micros, kind="stable")
    return order, _hours_since_epoch(micros[order])


# A row as water_levels_to_text writes it, up to the height: "0" marks a
# digit, every other byte must match exactly.
_ROW_START = np.frombuffer(b"0000-00-00T00:00:00Z,", dtype=np.uint8)
_ROW_LIMIT = np.where(_ROW_START == ord("0"), 9, 0).astype(np.uint8)
_YEAR_ONE = np.datetime64("0001-01-01", "s")
_START_FIELD = itemgetter(slice(None, _ROW_START.size))
_HEIGHT_FIELD = itemgetter(slice(_ROW_START.size, None))


def _read_canonical(text: str) -> WaterLevelSeries | None:
    """The series of a gauge file in exactly the layout water_levels_to_text
    writes, decoded column-wise; None for any other file.

    The header must be ``timestamp,height_m`` and every row
    ``YYYY-MM-DDTHH:MM:SSZ,<height>``, LF-ended, with a stamp from year 1
    on that numpy's ISO-8601 parser reads (so a valid calendar date, hour
    below 24, second below 60), a height float() reads as finite, and a
    time strictly after the row before. Such a file has no row the
    row-by-row reader drops, sorts or warns about, so both give the same
    series.
    """
    lines = text.split("\n")
    rows = lines[1:-1]
    if lines[0] != "timestamp,height_m" or lines[-1] or not rows:
        return None
    starts = "".join(map(_START_FIELD, rows))
    if not starts.isascii() or len(starts) != len(rows) * _ROW_START.size:
        return None
    raw = starts.encode("ascii")
    offsets = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), -1)
    offsets = offsets - _ROW_START  # uint8: a byte below its template wraps above 9
    if not (offsets <= _ROW_LIMIT).all():
        return None
    try:
        stamps = np.frombuffer(raw, "S21").astype("S19").astype("datetime64[s]")
    except ValueError:  # not a calendar date and time
        return None
    # numpy reads year 0, which datetime, and so the row-by-row reader, does not
    if not (stamps[1:] > stamps[:-1]).all() or stamps[0] < _YEAR_ONE:
        return None
    micros = stamps.astype(np.int64) * 1_000_000
    try:
        heights = np.fromiter(map(float, map(_HEIGHT_FIELD, rows)), dtype=float, count=len(rows))
    except ValueError:
        return None
    if not np.isfinite(heights).all():
        return None
    return WaterLevelSeries(_hours_since_epoch(micros), heights)


def load_water_levels(path: str | Path) -> WaterLevelSeries:
    """Load a gauge file or an altimetry pass file into a WaterLevelSeries.

    The header tells the two apart: a pass file's first column is the
    repeat cycle (``cycle,timestamp,ssh_m,flag``), a gauge file's is the
    timestamp (``timestamp,height_m``). Rows with missing or non-finite
    heights are dropped with a warning. Times are hours since EPOCH.

    A gauge file gives one sample per row; of rows with the same instant,
    the first in the file is kept. A pass file gives one sample per cycle,
    at the median time and the median height of the cycle's good (flag 0,
    or no flag) rows; a cycle with no good row leaves a gap, and of cycles
    with the same median time the lower-numbered is kept.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    series = _read_canonical(text)
    if series is not None:
        return series
    lines = _data_lines(text)
    header = lines[0][1].lower() if lines else ""
    if "cycle" in header.partition(",")[0]:
        return _load_pass(path, lines[1:])
    if "timestamp" not in header:
        raise ValueError(f"{path}: header names neither a 'timestamp' nor a leading 'cycle' column")
    stamps: list[datetime] = []
    heights: list[float] = []
    for number, line in lines[1:]:
        stamp_text, _, rest = line.partition(",")
        height_text = rest.partition(",")[0].strip()
        try:
            stamp = parse_timestamp(stamp_text)
            value = float(height_text) if height_text else math.nan
        except ValueError:
            log.warning("%s:%d: unparseable row %r dropped", path, number, line)
            continue
        if not math.isfinite(value):
            log.warning("%s:%d: missing/non-finite height dropped", path, number)
            continue
        stamps.append(stamp)
        heights.append(value)
    if not stamps:
        raise ValueError(f"{path}: no valid rows")

    order, times = _time_order(stamps)
    keep = np.concatenate(([True], times[1:] != times[:-1]))
    for i in order[~keep]:
        log.warning("%s: duplicate timestamp %s dropped", path, stamps[i].isoformat())
    return WaterLevelSeries(times[keep], np.array(heights)[order[keep]])


def _load_pass(path: Path, lines: list[tuple[int, str]]) -> WaterLevelSeries:
    rows: list[tuple[int, datetime, float, int]] = []
    for number, line in lines:
        parts = [p.strip() for p in line.split(",")]
        try:
            cycle = int(parts[0])
            stamp = parse_timestamp(parts[1])
            value = float(parts[2]) if parts[2] else math.nan
            flag = int(parts[3]) if len(parts) > 3 and parts[3] else FLAG_GOOD
        except (ValueError, IndexError):
            log.warning("%s:%d: unparseable row %r dropped", path, number, line)
            continue
        if not math.isfinite(value):
            log.warning("%s:%d: missing/non-finite height dropped", path, number)
            continue
        rows.append((cycle, stamp, value, flag))
    if not rows:
        raise ValueError(f"{path}: no valid rows")
    cycles, stamps, heights, flags = zip(*rows)
    order, times = _time_order(stamps)
    heights = np.array(heights)[order]
    cycles = np.array(cycles)[order]
    good = np.array(flags)[order] == FLAG_GOOD
    kept = np.unique(cycles[good])
    if kept.size == 0:
        raise ValueError(f"{path}: no good-flag samples")
    cycle_times = np.empty(kept.size)
    cycle_heights = np.empty(kept.size)
    for i, cycle in enumerate(kept):
        mask = good & (cycles == cycle)
        cycle_times[i] = np.median(times[mask])
        cycle_heights[i] = np.median(heights[mask])
    order = np.argsort(cycle_times, kind="stable")
    sorted_times = cycle_times[order]
    keep = np.concatenate(([True], sorted_times[1:] != sorted_times[:-1]))
    for i in order[~keep]:
        log.warning("%s: cycle %d dropped: same median time as a lower cycle", path, kept[i])
    return WaterLevelSeries(cycle_times[order[keep]], cycle_heights[order[keep]])


def water_levels_to_text(series: WaterLevelSeries) -> str:
    stamps = _utc_stamps(series.times)
    lines = ["timestamp,height_m"]
    lines.extend(f"{stamp}Z,{format_number(h)}" for stamp, h in zip(stamps, series.heights))
    return "\n".join(lines) + "\n"


def load_harmonics(
    path: str | Path, catalog: ConstituentCatalog
) -> tuple[HarmonicSolution, dict[str, str]]:
    """Load a ``constituent_name,amplitude_m[,phase_deg]`` harmonics file.

    Rows are aligned to the catalog order. Unknown constituent names are
    rejected; constituents missing from the file default to amplitude 0,
    phase 0 with a warning. ``# key = value`` comment headers (mean_m,
    trend_m_per_hour, diagnostics from the CLI) are returned as metadata.
    """
    path = Path(path)
    metadata: dict[str, str] = {}
    amplitudes = np.zeros(catalog.n)
    phases = np.zeros(catalog.n)
    seen = np.zeros(catalog.n, dtype=bool)
    data_seen = False
    with path.open("r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if "constituent_name" in stripped.lower():
                continue
            parts = [p.strip() for p in stripped.split(",")]
            if len(parts) < 2 or not parts[0]:
                raise ValueError(f"{path}:{number}: expected 'name, amplitude_m[, phase_deg]'")
            name = parts[0]
            try:
                k = catalog.index_of(name)
            except KeyError:
                raise ValueError(
                    f"{path}:{number}: constituent {name!r} is not in the catalog"
                ) from None
            try:
                amplitude = float(parts[1])
                phase_deg = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
            except ValueError:
                raise ValueError(f"{path}:{number}: non-numeric field") from None
            if not (math.isfinite(amplitude) and amplitude >= 0):
                raise ValueError(f"{path}:{number}: amplitude must be finite and non-negative")
            if not math.isfinite(phase_deg):
                raise ValueError(f"{path}:{number}: phase must be finite")
            if seen[k]:
                raise ValueError(f"{path}:{number}: duplicate constituent {name!r}")
            amplitudes[k] = amplitude
            phases[k] = math.radians(phase_deg) % TWO_PI
            seen[k] = True
            data_seen = True
    if not data_seen:
        raise ValueError(f"{path}: no harmonic rows")
    for k, present in enumerate(seen):
        if not present:
            log.warning(
                "%s: constituent %s missing, defaulting to amplitude 0", path, catalog.names[k]
            )
    solution = HarmonicSolution(
        mean=float(metadata.get("mean_m", 0.0)),
        trend=float(metadata.get("trend_m_per_hour", 0.0)),
        amplitudes=amplitudes,
        phases=phases,
        catalog=catalog,
        time_reference=float(metadata.get("time_reference_hours", 0.0)),
    )
    return solution, metadata


def solution_to_text(solution: HarmonicSolution, diagnostics: dict[str, object] | None = None) -> str:
    """Render a solution in the harmonics file format, with mean/trend and
    any diagnostics as ``# key = value`` headers: a bool as true or false,
    a float through format_number, anything else as str() gives it."""
    lines = [
        f"# mean_m = {format_number(solution.mean)}",
        f"# trend_m_per_hour = {format_number(solution.trend)}",
        f"# time_reference_hours = {format_number(solution.time_reference)}",
    ]
    for key, value in (diagnostics or {}).items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = format_number(value)
        lines.append(f"# {key} = {value}")
    lines.append("constituent_name,amplitude_m,phase_deg")
    for name, amplitude, phase in zip(solution.catalog.names, solution.amplitudes, solution.phases):
        lines.append(f"{name},{format_number(amplitude)},{format_number(math.degrees(phase))}")
    return "\n".join(lines) + "\n"
