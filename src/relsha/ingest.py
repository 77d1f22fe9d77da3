"""File ingestion and export.

All formats are comma-separated UTF-8 text with a header row; lines
starting with ``#`` are comments. Timestamps are ISO-8601 (UTC assumed
when no offset is given) and are converted to hours since the first
valid sample. Bad rows are dropped with a logged warning, never
interpolated.

A file is read with one ``read_text`` and each row is parsed once into
an aware datetime and a float; sorting, duplicate detection and the
conversion to hours then run on one int64 array of microseconds.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

import numpy as np

from .constituents import TWO_PI, ConstituentCatalog
from .series import HarmonicSolution, WaterLevelSeries

log = logging.getLogger(__name__)

FLAG_GOOD = 0

_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
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


def _utc_stamps(epoch: datetime, hours: np.ndarray) -> Iterator[str]:
    """ISO-8601 UTC stamps, to the nearest second, of hours after epoch,
    without the 'Z' suffix.

    Each offset gets the microseconds CPython gives timedelta(hours=h):
    the whole hours exactly, the fraction's whole microseconds by modf,
    and the leftover part of a microsecond rounded half to even on the
    total. Adding the epoch's microseconds since the Unix epoch and half a
    second, then flooring to seconds, gives the stamps of
    (epoch + timedelta(hours=h)) rounded to the second and shown in UTC,
    for an epoch whose UTC offset is fixed and a whole number of seconds.
    Blocks of _STAMP_BLOCK rows keep the temporary arrays small.
    """
    start = epoch.astimezone(timezone.utc) - _UNIX_EPOCH
    start_micros = (start.days * 86_400 + start.seconds) * 1_000_000 + start.microseconds
    for i in range(0, len(hours), _STAMP_BLOCK):
        fraction, whole = np.modf(hours[i : i + _STAMP_BLOCK])
        leftover, micros = np.modf(fraction * 3.6e9)
        micros = whole.astype(np.int64) * 3_600_000_000 + micros.astype(np.int64)
        rounded = np.rint(leftover).astype(np.int64)
        halfway = np.abs(leftover) == 0.5
        rounded[halfway] = (micros[halfway] & 1) * np.sign(leftover[halfway]).astype(np.int64)
        seconds = (micros + rounded + (start_micros + 500_000)) // 1_000_000
        yield from np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s").tolist()


def format_number(value: float) -> str:
    return format(float(value), ".9g")


def _data_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, stripped text) of every non-blank, non-comment line.

    read_text turns CRLF and CR line ends into LF, so splitting on LF
    numbers the lines as iterating the file would; str.splitlines would
    also split on form feeds and other separators.
    """
    text = path.read_text(encoding="utf-8")
    return [
        (number, line)
        for number, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip()) and line[0] != "#"
    ]


def _time_order(stamps: Sequence[datetime]) -> tuple[np.ndarray, np.ndarray, datetime]:
    """Stable time order of aware stamps, their hours since the earliest
    in that order, and the earliest (the epoch, keeping its tzinfo).

    The hours are (us - us0) / 1e6 / 3600 on int64 microseconds, the same
    IEEE operations as timedelta.total_seconds() / 3600 while us - us0
    stays below 2**53 (about 285 years), where int64 to float is exact.
    """
    deltas = [stamp - _UNIX_EPOCH for stamp in stamps]

    def field(name: str) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), deltas), dtype=np.int64, count=len(deltas))

    micros = (field("days") * 86_400 + field("seconds")) * 1_000_000 + field("microseconds")
    order = np.argsort(micros, kind="stable")
    micros = micros[order]
    return order, (micros - micros[0]) / 1e6 / 3600.0, stamps[order[0]]


def load_water_levels(path: str | Path) -> WaterLevelSeries:
    """Load a ``timestamp,height_m`` file into a WaterLevelSeries.

    Rows with missing or non-finite heights are dropped with a warning;
    duplicate timestamps keep the first occurrence. Times are hours since
    the first valid sample, which becomes the series epoch.
    """
    path = Path(path)
    lines = _data_lines(path)
    if not lines or "timestamp" not in lines[0][1].lower():
        raise ValueError(f"{path}: missing 'timestamp,height_m' header")
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

    order, times, epoch = _time_order(stamps)
    keep = np.concatenate(([True], times[1:] != times[:-1]))
    for i in order[~keep]:
        log.warning("%s: duplicate timestamp %s dropped", path, stamps[i].isoformat())
    return WaterLevelSeries(times[keep], np.array(heights)[order[keep]], epoch)


def water_levels_to_text(series: WaterLevelSeries) -> str:
    stamps = _utc_stamps(series.epoch, series.times)
    lines = ["timestamp,height_m"]
    lines.extend(f"{stamp}Z,{format_number(h)}" for stamp, h in zip(stamps, series.heights))
    return "\n".join(lines) + "\n"


def write_water_levels(series: WaterLevelSeries, path: str | Path) -> None:
    Path(path).write_text(water_levels_to_text(series), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class AltimetrySeries:
    """Along-track altimetry samples grouped by repeat cycle.

    Gaps (missing cycles) are permitted and preserved; flagged-bad samples
    stay in the container but are excluded from analysis views.
    """

    pass_id: str
    cycles: np.ndarray
    times: np.ndarray
    heights: np.ndarray
    flags: np.ndarray
    epoch: datetime

    def __post_init__(self) -> None:
        cycles = np.array(self.cycles, dtype=int)
        times = np.array(self.times, dtype=float)
        heights = np.array(self.heights, dtype=float)
        flags = np.array(self.flags, dtype=int)
        if not (cycles.size == times.size == heights.size == flags.size):
            raise ValueError("cycle/time/height/flag arrays must have equal length")
        if times.size == 0:
            raise ValueError("altimetry series must contain at least one sample")
        if np.any(np.diff(times) < 0):
            raise ValueError("altimetry times must be non-decreasing")
        for name, arr in (("cycles", cycles), ("times", times), ("heights", heights), ("flags", flags)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.times.size)


def load_altimetry(path: str | Path, pass_id: str | None = None) -> AltimetrySeries:
    """Load a ``cycle,timestamp,ssh_m,flag`` file (flag 0 = good)."""
    path = Path(path)
    lines = _data_lines(path)
    if not lines or "cycle" not in lines[0][1].lower():
        raise ValueError(f"{path}: missing 'cycle,timestamp,ssh_m,flag' header")
    rows: list[tuple[int, datetime, float, int]] = []
    for number, line in lines[1:]:
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
    order, times, epoch = _time_order(stamps)
    return AltimetrySeries(
        pass_id=pass_id if pass_id is not None else path.stem,
        cycles=np.array(cycles)[order],
        times=times,
        heights=np.array(heights)[order],
        flags=np.array(flags)[order],
        epoch=epoch,
    )


def to_series(altimetry: AltimetrySeries, reducer: str = "median") -> WaterLevelSeries:
    """Reduce each cycle's good-flag samples to one representative height.

    reducer: "median" (default), "mean", or "nearest" (the sample closest
    to the cycle's mean time). Cycles with no good samples are absent from
    the output, preserving the gap.
    """
    if reducer not in ("median", "mean", "nearest"):
        raise ValueError(f"unknown reducer {reducer!r}")
    good = altimetry.flags == FLAG_GOOD
    times, heights = [], []
    for cycle in np.unique(altimetry.cycles[good]):
        mask = good & (altimetry.cycles == cycle)
        t = altimetry.times[mask]
        h = altimetry.heights[mask]
        if reducer == "median":
            value = float(np.median(h))
        elif reducer == "mean":
            value = float(np.mean(h))
        else:
            value = float(h[np.argmin(np.abs(t - t.mean()))])
        times.append(float(np.median(t)))
        heights.append(value)
    if not times:
        raise ValueError("no good-flag samples to reduce")
    order = np.argsort(times, kind="stable")
    kept_t, kept_h = [], []
    for i in order:
        if kept_t and times[i] == kept_t[-1]:
            log.warning("pass %s: coincident cycle time %.6f dropped", altimetry.pass_id, times[i])
            continue
        kept_t.append(times[i])
        kept_h.append(heights[i])
    return WaterLevelSeries(np.array(kept_t), np.array(kept_h), altimetry.epoch)


def write_altimetry(altimetry: AltimetrySeries, path: str | Path) -> None:
    stamps = _utc_stamps(altimetry.epoch, altimetry.times)
    lines = ["cycle,timestamp,ssh_m,flag"]
    for cycle, stamp, h, flag in zip(altimetry.cycles, stamps, altimetry.heights, altimetry.flags):
        lines.append(f"{cycle},{stamp}Z,{format_number(h)},{flag}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    any diagnostics as ``# key = value`` headers."""
    lines = [
        f"# mean_m = {format_number(solution.mean)}",
        f"# trend_m_per_hour = {format_number(solution.trend)}",
        f"# time_reference_hours = {format_number(solution.time_reference)}",
    ]
    for key, value in (diagnostics or {}).items():
        if isinstance(value, float):
            value = format_number(value)
        lines.append(f"# {key} = {value}")
    lines.append("constituent_name,amplitude_m,phase_deg")
    for name, amplitude, phase in zip(solution.catalog.names, solution.amplitudes, solution.phases):
        lines.append(f"{name},{format_number(amplitude)},{format_number(math.degrees(phase))}")
    return "\n".join(lines) + "\n"


def write_solution(
    solution: HarmonicSolution,
    path: str | Path,
    diagnostics: dict[str, object] | None = None,
) -> None:
    Path(path).write_text(solution_to_text(solution, diagnostics), encoding="utf-8")
