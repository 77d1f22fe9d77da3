"""Water-level time series: detrending, resampling, and tide synthesis.

Times are hours since EPOCH, 2021-01-01T00:00Z, throughout, so a phase
means the same thing in every record; heights are meters. All
operations are pure functions on immutable inputs; SynthesizedSeries
alone fills a memo as it is read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .constituents import TWO_PI, ConstituentCatalog

EPOCH = datetime(2021, 1, 1, tzinfo=timezone.utc)

# synthesize evaluates its cos table this many samples at a time, so its
# scratch stays small. Each value is formed from its own time alone, with
# no BLAS call, so a sample has the same bits in any block at any position:
# synthesize(sol, t)[idx] equals synthesize(sol, t[idx])
# (tests/test_series.py::TestBlocks).
_BLOCK = 4096


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _checked_times(values) -> np.ndarray:
    t = _frozen_array(values)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if t.size == 0:
        raise ValueError("series must contain at least one sample")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("times must be strictly increasing")
    return t


class _Sampled:
    """A record's length and spacing, from its ``times``: strictly
    increasing hours, set by the subclass."""

    def __len__(self) -> int:
        return int(self.times.size)

    @cached_property
    def native_spacing(self) -> float:
        """Median sample spacing in hours; requires at least 2 samples.

        Computed once per series: the grid resamples one base record for
        every cell."""
        if len(self) < 2:
            raise ValueError("native spacing undefined for a single sample")
        return float(np.median(np.diff(self.times)))


@dataclass(frozen=True, eq=False)
class WaterLevelSeries(_Sampled):
    """Irregularly sampled water levels: strictly increasing times, finite heights."""

    times: np.ndarray
    heights: np.ndarray

    def __post_init__(self) -> None:
        t = _checked_times(self.times)
        h = _frozen_array(self.heights)
        if h.ndim != 1:
            raise ValueError("times and heights must be one-dimensional")
        if t.size != h.size:
            raise ValueError(f"times ({t.size}) and heights ({h.size}) must have equal length")
        if not np.all(np.isfinite(h)):
            raise ValueError("heights must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "heights", h)

    def heights_at(self, indices) -> np.ndarray:
        return self.heights[indices]


@dataclass(frozen=True, eq=False)
class HarmonicSolution:
    """Mean, trend, and per-constituent amplitude/phase for one catalog.

    phases hold theta_k in [0, 2*pi), the phase of A_k f_k cos(w_k t + theta_k)
    with t in hours since EPOCH, in every file the CLI reads or writes.
    The mean applies at ``time_reference`` hours since EPOCH, so the
    modeled level is mean + trend*(t - time_reference) + harmonics; a
    solution built directly from constants uses time_reference = 0.
    """

    mean: float
    trend: float
    amplitudes: np.ndarray
    phases: np.ndarray
    catalog: ConstituentCatalog
    time_reference: float = 0.0

    def __post_init__(self) -> None:
        a = _frozen_array(self.amplitudes)
        p = np.asarray(self.phases, dtype=float)
        if a.shape != (self.catalog.n,) or p.shape != (self.catalog.n,):
            raise ValueError(
                f"amplitudes/phases must have length {self.catalog.n}, got {a.size}/{p.size}"
            )
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError("amplitudes must be finite and non-negative")
        if not np.all(np.isfinite(p)):
            raise ValueError("phases must be finite")
        p = p % TWO_PI
        p[p == TWO_PI] = 0.0  # where a tiny negative phase rounds up to 2 pi itself
        p.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "phases", p)
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "trend", float(self.trend))
        object.__setattr__(self, "time_reference", float(self.time_reference))


@dataclass(frozen=True)
class SamplingPlan:
    """Resampling controls: spacing and record length in hours, plus a seed
    for the random record start."""

    interval: float
    record_length: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.interval > 0):
            raise ValueError(f"interval must be positive, got {self.interval}")
        if not (self.record_length >= self.interval):
            raise ValueError("record_length must be at least one interval")


def detrend(series: WaterLevelSeries) -> tuple[WaterLevelSeries, float, float]:
    """Remove the least-squares mean and linear trend from a series.

    Returns (residual, mean, trend) where mean is the average water level
    (the fitted line's value at the mean sample time) and trend the slope
    in meters/hour; residual = heights - (mean + trend*(t - t_mean)). The
    residual has zero mean and zero linear correlation with time.
    """
    if len(series) < 2:
        raise ValueError("detrend requires at least 2 samples")
    t = series.times
    h = series.heights
    tc = t - t.mean()
    trend = float((tc @ h) / (tc @ tc))
    mean = float(h.mean())
    residual = h - (mean + trend * tc)
    return WaterLevelSeries(t, residual), mean, trend


def synthesize(solution: HarmonicSolution, times) -> np.ndarray:
    """Evaluate mean + trend*(t - t_ref) + sum_k A_k f_k cos(w_k t + theta_k).

    The sum runs in blocks of _BLOCK samples. Each block forms its
    w_k t + theta_k table, n rows of block samples, in one scratch array,
    takes its cosine in place, and adds the rows times A_k f_k one
    constituent after another, k = 0 first. So no m x n array is formed,
    and each value depends on its own time alone: not on the block, where
    the block starts, or the BLAS thread count.
    """
    t = np.asarray(times, dtype=float)
    flat = t.ravel()
    cat = solution.catalog
    weights = (solution.amplitudes * cat.nodal_factors)[:, None]
    phases = solution.phases[:, None]
    harmonics = np.empty(flat.size)
    table = np.empty((cat.n, min(flat.size, _BLOCK)))
    for start in range(0, flat.size, _BLOCK):
        stop = min(start + _BLOCK, flat.size)
        terms = np.multiply.outer(cat.speeds, flat[start:stop], out=table[:, : stop - start])
        terms += phases
        np.cos(terms, out=terms)
        terms *= weights
        total = harmonics[start:stop]
        total[...] = terms[0]
        for row in terms[1:]:
            total += row
    return solution.mean + solution.trend * (t - solution.time_reference) + harmonics.reshape(t.shape)


def synthesize_series(solution: HarmonicSolution, times) -> WaterLevelSeries:
    return WaterLevelSeries(np.asarray(times, dtype=float), synthesize(solution, times))


class SynthesizedSeries(_Sampled):
    """A solution's water levels at given times, plus apply_noise's draw
    when sigma > 0, each sample synthesized the first time heights_at asks
    for it.

    heights_at(i) has the bits of heights[i] of the record that
    synthesize_series and then apply_noise(sigma, seed) would build whole,
    since synthesize forms each value from its own time alone. The
    experiment's 6-min base record is resampled at cadences of up to 11
    days, so most of its samples are never read. Safe to share between
    threads: one lock guards the memo.
    """

    def __init__(self, solution: HarmonicSolution, times, sigma: float = 0.0, seed: int = 0) -> None:
        self.times = _checked_times(times)
        self._solution = solution
        self._noise = _noise(sigma, seed, self.times.size) if sigma != 0 else None
        self._heights = np.empty(self.times.size)
        self._known = np.zeros(self.times.size, dtype=bool)
        self._lock = threading.Lock()

    @property
    def synthesized(self) -> int:
        """How many samples heights_at has synthesized so far."""
        with self._lock:
            return int(np.count_nonzero(self._known))

    def heights_at(self, indices) -> np.ndarray:
        with self._lock:
            new = indices[~self._known[indices]]
            if new.size:
                heights = synthesize(self._solution, self.times[new])
                if self._noise is not None:
                    heights += self._noise[new]
                self._heights[new] = heights
                self._known[new] = True
            return self._heights[indices]


def resample(series: WaterLevelSeries | SynthesizedSeries, plan: SamplingPlan) -> WaterLevelSeries:
    """Cut a record of plan.record_length starting at a seeded random offset
    and keep the existing sample nearest each target time, reading only the
    kept samples' heights.

    Target times are offset + j*interval for j = 0..floor(record_length /
    interval). A target is dropped when no sample lies within half the
    native spacing; duplicates (two targets snapping to one sample) are
    kept once. Deterministic for a given seed.
    """
    t = series.times
    native = series.native_spacing
    rng = np.random.default_rng(plan.seed)
    start_max = max(float(t[0]), float(t[-1]) - plan.record_length)
    offset = float(rng.uniform(t[0], start_max)) if start_max > t[0] else float(t[0])
    count = int(math.floor(plan.record_length / plan.interval)) + 1
    targets = offset + plan.interval * np.arange(count)

    right = np.clip(np.searchsorted(t, targets), 1, t.size - 1)
    left = right - 1
    pick = np.where(np.abs(t[right] - targets) < np.abs(t[left] - targets), right, left)
    within = np.abs(t[pick] - targets) <= 0.5 * native
    # pick never decreases, since the targets increase, so a sample two
    # targets snap to appears twice in a row and np.unique's sort is not needed
    kept = pick[within]
    selected = kept[np.diff(kept, prepend=-1) != 0]
    if selected.size == 0:
        raise ValueError(
            f"resampling selected no samples (interval={plan.interval}, "
            f"record_length={plan.record_length}, offset={offset:.3f})"
        )
    return WaterLevelSeries(t[selected], series.heights_at(selected))


def _noise(sigma: float, seed: int, count: int) -> np.ndarray:
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return np.random.default_rng(seed).normal(0.0, sigma, count)


def apply_noise(series: WaterLevelSeries, sigma: float, seed: int = 0) -> WaterLevelSeries:
    """Add zero-mean Gaussian noise of standard deviation sigma (meters)."""
    noisy = series.heights + _noise(sigma, seed, len(series))
    return WaterLevelSeries(series.times, noisy)
