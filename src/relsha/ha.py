"""Classical least-squares harmonic analysis."""

from __future__ import annotations

from dataclasses import dataclass

from .constituents import ConstituentCatalog
# RANK_RCOND is HA's rank cut-off; it lives with the solve in design.
from .design import RANK_RCOND, PreparedRecord, classify_regime, prepare, unpack_state  # noqa: F401
from .series import HarmonicSolution, WaterLevelSeries


@dataclass(frozen=True, eq=False)
class HaResult:
    solution: HarmonicSolution
    regime: str
    sample_count: int
    rank: int


def ha_fit(series: WaterLevelSeries, catalog: ConstituentCatalog) -> HaResult:
    """Fit mean, trend, and the 2n harmonic coefficients by least squares.

    prepare detrends and compresses the series; the harmonic coefficients
    are its least_squares, the SVD solve of min ||H x - residual||_2. With
    fewer samples than 2n unknowns (or a rank-deficient H) the minimum-norm
    solution is returned and the regime flag reports the underdetermined case.
    """
    return ha_solve(prepare(series, catalog))


def ha_solve(record: PreparedRecord) -> HaResult:
    """ha_fit on a prepared record: its least-squares state and rank."""
    x, rank = record.least_squares
    catalog = record.catalog
    return HaResult(
        solution=record.solution(*unpack_state(x, catalog)),
        regime=classify_regime(record.sample_count, catalog.n),
        sample_count=record.sample_count,
        rank=rank,
    )
