import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from relsha.constituents import Constituent, ConstituentCatalog
from relsha.design import UNDERDETERMINED, build_design_matrix
from relsha.evaluation import rrmse
from relsha.ha import RANK_RCOND, ha_fit
from relsha.series import (
    EPOCH,
    HarmonicSolution,
    SamplingPlan,
    WaterLevelSeries,
    detrend,
    resample,
    synthesize,
    synthesize_series,
)

TWO_PI = 2.0 * math.pi


def test_dense_noiseless_recovery(hourly_year, truth):
    result = ha_fit(hourly_year, truth.catalog)
    assert result.regime == "overdetermined"
    assert rrmse(result.solution.amplitudes, truth.amplitudes) < 0.1


def test_zero_series_gives_zero_amplitudes(catalog):
    series = WaterLevelSeries(np.arange(0.0, 100.0), np.zeros(100))
    result = ha_fit(series, catalog)
    assert np.allclose(result.solution.amplitudes, 0.0, atol=1e-12)
    assert result.solution.mean == pytest.approx(0.0)


def test_underdetermined_regime_flag(base_series, catalog):
    sampled = resample(base_series, SamplingPlan(237.6, 8766.0, seed=1))
    result = ha_fit(sampled, catalog)
    assert result.sample_count == 37 < 2 * catalog.n
    assert result.regime == UNDERDETERMINED


def test_residual_orthogonality(hourly_year, catalog, pack_state):
    result = ha_fit(hourly_year, catalog)
    residual, _, _ = detrend(hourly_year)
    h_matrix = build_design_matrix(residual.times, catalog)
    x = pack_state(result.solution)
    misfit = h_matrix @ x - residual.heights
    scale = np.linalg.norm(residual.heights)
    assert np.abs(h_matrix.T @ misfit).max() < 1e-8 * scale


def test_constant_offset_moves_only_the_mean(hourly_year, catalog):
    shifted = WaterLevelSeries(hourly_year.times, hourly_year.heights + 2.5)
    base = ha_fit(hourly_year, catalog)
    moved = ha_fit(shifted, catalog)
    assert moved.solution.mean - base.solution.mean == pytest.approx(2.5, abs=1e-9)
    assert np.allclose(moved.solution.amplitudes, base.solution.amplitudes, atol=1e-12)
    assert moved.solution.trend == pytest.approx(base.solution.trend, abs=1e-12)


def test_recovery_of_random_solutions():
    # detrending couples weakly with the harmonics, so recovery is exact
    # only to the leakage level, well inside the 0.1% contract
    cat = ConstituentCatalog(
        (
            Constituent("A", TWO_PI / 12.42),
            Constituent("B", TWO_PI / 12.0),
            Constituent("C", TWO_PI / 23.93),
        )
    )
    times = np.arange(0.0, 600.0, 0.5)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        solution = HarmonicSolution(
            0.8, 0.002, rng.uniform(0.05, 1.0, 3), rng.uniform(0, TWO_PI, 3), cat
        )
        series = synthesize_series(solution, times)
        recovered = ha_fit(series, cat).solution
        assert rrmse(recovered.amplitudes, solution.amplitudes) < 0.1
        delta = np.abs((recovered.phases - solution.phases + math.pi) % TWO_PI - math.pi)
        assert np.all(delta < 1e-2)


def test_near_resonant_sampling_does_not_crash(base_series, catalog):
    # 12-h sampling aliases the semidiurnal band onto itself: H loses rank
    sampled = resample(base_series, SamplingPlan(12.0, 8766.0, seed=2))
    result = ha_fit(sampled, catalog)
    assert result.rank < 2 * catalog.n
    assert np.all(np.isfinite(result.solution.amplitudes))


def test_rank_collapsed_solution_matches_full_design_lstsq(base_series, catalog, pack_state):
    # the SVD runs on the compressed design; rank and minimum-norm
    # solution must be those of the full m x 2n design
    sampled = resample(base_series, SamplingPlan(12.0, 8766.0, seed=2))
    residual, _, _ = detrend(sampled)
    h_matrix = build_design_matrix(residual.times, catalog)
    x, _, rank, _ = np.linalg.lstsq(h_matrix, residual.heights, rcond=RANK_RCOND)
    result = ha_fit(sampled, catalog)
    assert result.rank == rank < 2 * catalog.n
    assert np.abs(pack_state(result.solution) - x).max() < 1e-8


def test_insufficient_data():
    cat = ConstituentCatalog((Constituent("A", 1.0),))
    with pytest.raises(ValueError, match="at least 2 samples"):
        ha_fit(WaterLevelSeries([0.0], [1.0]), cat)


@pytest.mark.parametrize("interval", [0.1, 1.0, 237.6], ids=["6min", "hourly", "9.9d"])
def test_times_shifted_by_decades_keep_the_amplitudes(truth, catalog, interval):
    # shifting every time of a year by the same hours rotates each phase,
    # not an amplitude
    times = np.arange(0.0, 8784.0, interval)
    heights = synthesize(truth, times)
    expected = ha_fit(WaterLevelSeries(times, heights), catalog).solution.amplitudes
    for year in (1985, 2040):
        shift = (datetime(year, 1, 1, tzinfo=timezone.utc) - EPOCH) / timedelta(hours=1)
        shifted = ha_fit(WaterLevelSeries(times + shift, heights), catalog).solution.amplitudes
        np.testing.assert_allclose(shifted, expected, rtol=0, atol=1e-10)
