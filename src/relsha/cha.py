"""Constrained harmonic analysis: interpolate between two reference gauges.

Per-constituent amplitudes are blended linearly, A_k(w) = (1-w) A_k^A +
w A_k^B, and phases move along the shortest angular arc from gauge A to
gauge B. A single global weight w in [0, 1] is fitted to the detrended
observations by a dense grid scan with local parabolic refinement. A
candidate state x scores its misfit ||H x - h||^2 as ||a x - b||^2 + rest
on the prepared record (design.prepare), as ReLSHA's data term does.
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


class GaugePair:
    """Two reference gauges on one catalog, with CHA's weight scan over them.

    Built once and shared by every record fitted against the gauges: it
    checks that both gauges are aligned with the catalog and holds the
    candidate states of the whole scan, one column per weight in
    ``weights``. Its arrays are read-only, since pool threads share a pair.
    """

    def __init__(self, ref_a: GaugeHarmonics, ref_b: GaugeHarmonics, catalog: ConstituentCatalog):
        for ref in (ref_a, ref_b):
            if ref.solution.catalog.names != catalog.names:
                raise ValueError(
                    f"reference gauge {ref.station!r} is not aligned with the analysis catalog"
                )
        self.catalog = catalog
        self.amp_a = ref_a.solution.amplitudes
        self.amp_b = ref_b.solution.amplitudes
        self.phase_a = ref_a.solution.phases
        self.arc = shortest_arc(self.phase_a, ref_b.solution.phases)
        self.nodal_factors = catalog.nodal_factors
        self.weights = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
        self.states = self.states_for(self.weights)
        for array in (self.arc, self.weights, self.states):
            array.setflags(write=False)

    def states_for(self, weights) -> np.ndarray:
        """Stack of state vectors, one column per candidate weight."""
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        amp = (1.0 - w)[None, :] * self.amp_a[:, None] + w[None, :] * self.amp_b[:, None]
        amp = amp * self.nodal_factors[:, None]
        phase = self.phase_a[:, None] + w[None, :] * self.arc[:, None]
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
    pair = GaugePair(ref_a, ref_b, catalog)
    return cha_solve(prepare(series, catalog), pair)


def cha_solve(record: PreparedRecord, pair: GaugePair) -> ChaResult:
    """cha_fit on a prepared record, against a pair built on its catalog."""
    if record.catalog.names != pair.catalog.names:
        raise ValueError("record and gauge pair are on different catalogs")

    def objective(x: np.ndarray) -> np.ndarray:
        residual = record.a @ x - record.b[:, None]
        return np.einsum("ij,ij->j", residual, residual) + record.rest

    grid = pair.weights
    values = objective(pair.states)
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
            j_refined = float(objective(pair.states_for(w_refined))[0])
            if j_refined < j_star:
                w_star, j_star = w_refined, j_refined

    # A flat scan leaves w to rounding: gauges equal, or too close to tell apart.
    identifiable = bool(values.max() - values.min() > 1e-9 * (1.0 + abs(values.min())))

    amp = (1.0 - w_star) * pair.amp_a + w_star * pair.amp_b
    phase = (pair.phase_a + w_star * pair.arc) % TWO_PI
    return ChaResult(
        weight=w_star,
        solution=record.solution(amp, phase),
        objective=j_star,
        identifiable=identifiable,
        sample_count=record.sample_count,
    )
