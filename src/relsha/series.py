"""Water-level time series: detrending, resampling, and tide synthesis.

Times are hours since the series epoch throughout; heights are meters.
All operations are pure functions on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .constituents import TWO_PI, ConstituentCatalog

DEFAULT_EPOCH = datetime(2021, 1, 1, tzinfo=timezone.utc)

# synthesize evaluates its cos table this many samples at a time, so its
# scratch stays small. The blocks start at multiples of _BLOCK from the
# first sample, and on that fixed grid the sum equals the one-shot product
# at one OpenBLAS thread bit for bit (tests/test_series.py::TestBlocks).
# Where a block starts can move a bit: synthesize(sol, t[2:]) differs from
# synthesize(sol, t)[2:] by 1 ulp in 2 of the 92 231 values of the 0.1-h
# experiment base.
_BLOCK = 4096


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class WaterLevelSeries:
    """Irregularly sampled water levels: strictly increasing times, finite heights."""

    times: np.ndarray
    heights: np.ndarray
    epoch: datetime = DEFAULT_EPOCH

    def __post_init__(self) -> None:
        t = _frozen_array(self.times)
        h = _frozen_array(self.heights)
        if t.ndim != 1 or h.ndim != 1:
            raise ValueError("times and heights must be one-dimensional")
        if t.size != h.size:
            raise ValueError(f"times ({t.size}) and heights ({h.size}) must have equal length")
        if t.size == 0:
            raise ValueError("series must contain at least one sample")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(h)):
            raise ValueError("heights must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "heights", h)

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
class HarmonicSolution:
    """Mean, trend, and per-constituent amplitude/phase for one catalog.

    phases hold theta_k in [0, 2*pi), the phase of A_k f_k cos(w_k t + theta_k).
    The mean applies at ``time_reference`` hours since epoch, so the
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
        p.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "phases", p)
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "trend", float(self.trend))
        object.__setattr__(self, "time_reference", float(self.time_reference))

    def amplitude_of(self, name: str) -> float:
        return float(self.amplitudes[self.catalog.index_of(name)])


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
    return WaterLevelSeries(t, residual, series.epoch), mean, trend


def synthesize(solution: HarmonicSolution, times) -> np.ndarray:
    """Evaluate mean + trend*(t - t_ref) + sum_k A_k f_k cos(w_k t + theta_k).

    The sum runs in blocks of _BLOCK samples. Each block forms its
    cos(w_k t + theta_k) table in one scratch array and writes the table
    times A_k f_k into its slice of the sum, so no m x n array is formed
    and the bits do not depend on the BLAS thread count.
    """
    t = np.asarray(times, dtype=float)
    flat = t.ravel()
    cat = solution.catalog
    weights = solution.amplitudes * cat.nodal_factors
    harmonics = np.empty(flat.size)
    table = np.empty((min(flat.size, _BLOCK), cat.n))
    for start in range(0, flat.size, _BLOCK):
        stop = min(start + _BLOCK, flat.size)
        arg = np.outer(flat[start:stop], cat.speeds, out=table[: stop - start])
        arg += solution.phases
        np.cos(arg, out=arg)
        np.dot(arg, weights, out=harmonics[start:stop])
    return solution.mean + solution.trend * (t - solution.time_reference) + harmonics


def synthesize_series(
    solution: HarmonicSolution, times, epoch: datetime = DEFAULT_EPOCH
) -> WaterLevelSeries:
    return WaterLevelSeries(np.asarray(times, dtype=float), synthesize(solution, times), epoch)


def resample(series: WaterLevelSeries, plan: SamplingPlan) -> WaterLevelSeries:
    """Cut a record of plan.record_length starting at a seeded random offset
    and keep the existing sample nearest each target time.

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
    selected = np.unique(pick[within])
    if selected.size == 0:
        raise ValueError(
            f"resampling selected no samples (interval={plan.interval}, "
            f"record_length={plan.record_length}, offset={offset:.3f})"
        )
    return WaterLevelSeries(t[selected], series.heights[selected], series.epoch)


def apply_noise(series: WaterLevelSeries, sigma: float, seed: int = 0) -> WaterLevelSeries:
    """Add zero-mean Gaussian noise of standard deviation sigma (meters)."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = np.random.default_rng(seed)
    noisy = series.heights + rng.normal(0.0, sigma, len(series))
    return WaterLevelSeries(series.times, noisy, series.epoch)
