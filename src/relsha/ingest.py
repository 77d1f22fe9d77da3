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

A gauge file in exactly the layout water_levels_to_text writes (what
``relsha synth`` and ``relsha resample`` produce: the
``timestamp,height_m`` header, then ``YYYY-MM-DDTHH:MM:SSZ,<height>``
rows ended by LF or CRLF, printable ASCII only, with no blank line,
finite heights and strictly increasing times) is tokenized once by
numpy's C loadtxt: its stamps are decoded by numpy's calendar and its
heights by the same string-to-double routine float() uses. Any other
file is read row by row: each row is parsed once into an aware datetime
and a float, and sorting, duplicate detection and the conversion to
hours run on one int64 array of microseconds. Both paths give the same
series, bit for bit, on a file the first one accepts.
"""

from __future__ import annotations

import io
import logging
import math
from collections.abc import Sequence
from datetime import datetime, timedelta, timezone
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


# A stamp as water_levels_to_text writes it, in a field one byte wider:
# "0" marks a digit, every other byte must match exactly, and the last
# byte must stay NUL, since the field truncates what overflows it.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z\0", dtype=np.uint8)
_STAMP_LIMIT = np.where(_STAMP == ord("0"), 9, 0).astype(np.uint8)
_CANONICAL_ROW = np.dtype([("stamp", f"S{_STAMP.size}"), ("height", "f8")])
_YEAR_ONE = np.datetime64("0001-01-01", "s")


def _read_canonical(data: bytes) -> WaterLevelSeries | None:
    """The series of a gauge file's bytes in exactly the layout
    water_levels_to_text writes, tokenized by numpy's C loadtxt; None for
    any other file.

    The header must be ``timestamp,height_m`` and every row
    ``YYYY-MM-DDTHH:MM:SSZ,<height>``, ended by LF or CRLF, with a stamp
    from year 1 on that numpy's calendar reads (so a valid date, hour
    below 24, second below 60), a finite height, and a time strictly
    after the row before. Such a file has no row the row-by-row reader
    drops, sorts or warns about, so both give the same series.

    loadtxt is laxer than float() in places, so the file must also be
    printable ASCII apart from its line ends (loadtxt strips control
    bytes such as 0x1C around a number, where float() rejects them) and
    have no blank line (loadtxt skips it). A height float() reads but
    loadtxt does not, such as ``1_000.5``, declines the file.
    """
    if b"\r" in data:  # CRLF counts as LF; any other CR declines below
        data = data.replace(b"\r\n", b"\n")
    if not data.startswith(b"timestamp,height_m\n") or not data.isascii() or b"\x7f" in data:
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    # every control byte must be an LF, one of them the last byte, with a
    # row after the header and no two LFs adjacent (a blank line)
    ends = np.flatnonzero(codes < 0x20)
    if (ends.size < 2 or ends[-1] != codes.size - 1 or (codes[ends] != 0x0A).any()
            or (np.diff(ends) == 1).any()):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(data), dtype=_CANONICAL_ROW, comments=None,
                          delimiter=",", skiprows=1, ndmin=1)
    except ValueError:  # a field loadtxt cannot convert, or a column too many or few
        return None
    fields = rows["stamp"].view(np.dtype((np.uint8, _STAMP.size)))
    if not (fields - _STAMP <= _STAMP_LIMIT).all():  # uint8: a byte below its template wraps above 9
        return None
    try:
        stamps = rows["stamp"].astype("S19").astype("datetime64[s]")
    except ValueError:  # not a calendar date and time
        return None
    # numpy reads year 0, which datetime, and so the row-by-row reader, does not
    if not (stamps[1:] > stamps[:-1]).all() or stamps[0] < _YEAR_ONE:
        return None
    heights = rows["height"]
    if not np.isfinite(heights).all():
        return None
    return WaterLevelSeries(_hours_since_epoch(stamps.astype(np.int64) * 1_000_000), heights)


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
    series = _read_canonical(path.read_bytes())
    if series is not None:
        return series
    # read again as text, so that the bytes are not held beside it
    lines = _data_lines(path.read_text(encoding="utf-8"))
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
    """The ``timestamp,height_m`` file of a series: one row a sample,
    stamped in UTC to the nearest second, height by format_number.

    Rows are formatted and joined _STAMP_BLOCK at a time, so no string
    of a single row outlives its block. Raises ValueError, naming the
    stamp, when two samples under a second apart would share one: the
    loaders would keep only the first of those rows.
    """
    blocks = ["timestamp,height_m\n"]
    previous = np.empty(0, dtype=np.int64)
    for i in range(0, len(series), _STAMP_BLOCK):
        seconds = _stamp_seconds(series.times[i : i + _STAMP_BLOCK])
        joined = np.concatenate([previous, seconds])
        shared = joined[1:][joined[1:] == joined[:-1]]
        if shared.size:
            raise ValueError(f"two samples would share the stamp {shared[0].astype('datetime64[s]')}Z, "
                             "since stamps are whole seconds")
        previous = seconds[-1:]
        stamps = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s").tolist()
        heights = map(format_number, series.heights[i : i + _STAMP_BLOCK].tolist())
        blocks.append("".join([f"{stamp}Z,{height}\n" for stamp, height in zip(stamps, heights)]))
    return "".join(blocks)


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
