"""Constrained harmonic analysis: interpolate between two reference gauges.

Per-constituent amplitudes are blended linearly, A_k(w) = (1-w) A_k^A +
w A_k^B, and phases move along the shortest angular arc from gauge A to
gauge B. A single global weight w in [0, 1] is fitted to the detrended
observations by a dense grid scan with local parabolic refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constituents import TWO_PI, ConstituentCatalog
from .design import PreparedRecord, prepare
from .series import HarmonicSolution, WaterLevelSeries

GRID_STEP = 0.001


@dataclass(frozen=True, eq=False)
class GaugeHarmonics:
    """Published constituent amplitudes/phases for one reference station."""

    station: str
    solution: HarmonicSolution


@dataclass(frozen=True, eq=False)
class ChaResult:
    weight: float
    solution: HarmonicSolution
    objective: float
    identifiable: bool
    sample_count: int


def shortest_arc(from_angle: np.ndarray, to_angle: np.ndarray) -> np.ndarray:
    """Signed arc in (-pi, pi] from one angle to another; exact antipodes
    resolve toward increasing angle (+pi) for determinism."""
    delta = np.asarray(to_angle, dtype=float) - np.asarray(from_angle, dtype=float)
    return math.pi - (math.pi - delta) % TWO_PI


def _check_alignment(ref: GaugeHarmonics, catalog: ConstituentCatalog) -> None:
    if ref.solution.catalog.names != catalog.names:
        raise ValueError(
            f"reference gauge {ref.station!r} is not aligned with the analysis catalog"
        )


def _state_for_weights(
    weights: np.ndarray,
    amp_a: np.ndarray,
    amp_b: np.ndarray,
    phase_a: np.ndarray,
    arc: np.ndarray,
    nodal_factors: np.ndarray,
) -> np.ndarray:
    """Stack of state vectors, one column per candidate weight."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    amp = (1.0 - w)[None, :] * amp_a[:, None] + w[None, :] * amp_b[:, None]
    amp = amp * nodal_factors[:, None]
    phase = phase_a[:, None] + w[None, :] * arc[:, None]
    return np.vstack([amp * np.cos(phase), -amp * np.sin(phase)])


def cha_fit(
    series: WaterLevelSeries,
    ref_a: GaugeHarmonics,
    ref_b: GaugeHarmonics,
    catalog: ConstituentCatalog,
) -> ChaResult:
    """Fit the interpolation weight w* in [0, 1] to the observed series.

    Weight 0 reproduces gauge A's harmonics and weight 1 gauge B's. The
    returned solution carries the interpolated amplitudes/phases at w*
    together with the series' own mean and trend. When the scanned
    objective is flat, its range within 1e-9 (1 + its minimum), the weight
    is unidentifiable and flagged as such: the gauges are identical or
    differ by less than the series can resolve.
    """
    return cha_solve(prepare(series, catalog), ref_a, ref_b)


def cha_solve(record: PreparedRecord, ref_a: GaugeHarmonics, ref_b: GaugeHarmonics) -> ChaResult:
    """cha_fit on a prepared record."""
    catalog = record.catalog
    _check_alignment(ref_a, catalog)
    _check_alignment(ref_b, catalog)
    # Gram form keeps the w scan cheap: ||Hx - h||^2 = x'Gx - 2b'x + c.
    gram = record.a.T @ record.a
    b = record.a.T @ record.b
    c = float(record.b @ record.b) + record.rest

    amp_a = ref_a.solution.amplitudes
    amp_b = ref_b.solution.amplitudes
    phase_a = ref_a.solution.phases
    arc = shortest_arc(phase_a, ref_b.solution.phases)
    nodal = catalog.nodal_factors

    def objective(weights: np.ndarray) -> np.ndarray:
        x = _state_for_weights(weights, amp_a, amp_b, phase_a, arc, nodal)
        quad = np.einsum("ij,ij->j", x, gram @ x)
        return quad - 2.0 * (b @ x) + c

    grid = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
    values = objective(grid)
    best = int(np.argmin(values))
    w_star = float(grid[best])
    j_star = float(values[best])

    if 0 < best < grid.size - 1:
        # Parabola through the best grid point and its neighbors.
        j_left, j_mid, j_right = values[best - 1], values[best], values[best + 1]
        denom = j_left - 2.0 * j_mid + j_right
        if denom > 0:
            w_refined = w_star + GRID_STEP * 0.5 * (j_left - j_right) / denom
            w_refined = float(np.clip(w_refined, grid[best - 1], grid[best + 1]))
            j_refined = float(objective(np.array([w_refined]))[0])
            if j_refined < j_star:
                w_star, j_star = w_refined, j_refined

    # A flat scan leaves w to rounding: gauges equal, or too close to tell apart.
    identifiable = bool(values.max() - values.min() > 1e-9 * (1.0 + abs(values.min())))

    amp = (1.0 - w_star) * amp_a + w_star * amp_b
    phase = (phase_a + w_star * arc) % TWO_PI
    return ChaResult(
        weight=w_star,
        solution=record.solution(amp, phase),
        objective=j_star,
        identifiable=identifiable,
        sample_count=record.sample_count,
    )
