"""Classical least-squares harmonic analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constituents import ConstituentCatalog
from .design import PreparedRecord, classify_regime, prepare, unpack_state
from .series import HarmonicSolution, WaterLevelSeries

# Singular values below RANK_RCOND * (largest singular value) are treated
# as zero; near-resonant sampling (~12 h, ~24 h intervals) genuinely
# collapses the rank and must yield the minimum-norm solution, not a crash.
RANK_RCOND = 1e-10


@dataclass(frozen=True, eq=False)
class HaResult:
    solution: HarmonicSolution
    regime: str
    sample_count: int
    rank: int


def ha_fit(series: WaterLevelSeries, catalog: ConstituentCatalog) -> HaResult:
    """Fit mean, trend, and the 2n harmonic coefficients by least squares.

    The series is detrended first; the harmonic coefficients then solve
    min ||H x - residual||_2 via SVD. With fewer samples than 2n unknowns
    (or a rank-deficient H) the minimum-norm solution is returned and the
    regime flag reports the underdetermined case.
    """
    return ha_solve(prepare(series, catalog))


def ha_solve(record: PreparedRecord) -> HaResult:
    """ha_fit on a prepared record.

    The SVD runs on the compressed (a, b), whose singular values are those
    of H, so the rank cut and the minimum-norm solution are H's own.
    """
    x, _, rank, _ = np.linalg.lstsq(record.a, record.b, rcond=RANK_RCOND)
    catalog = record.catalog
    return HaResult(
        solution=record.solution(*unpack_state(x, catalog)),
        regime=classify_regime(record.sample_count, catalog.n),
        sample_count=record.sample_count,
        rank=int(rank),
    )
