import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import relsha.cha
from relsha.cha import GaugeHarmonics, GaugePair, cha_fit, cha_solve, shortest_arc
from relsha.constituents import Constituent, ConstituentCatalog
from relsha.design import build_design_matrix, prepare
from relsha.evaluation import rrmse
from relsha.series import HarmonicSolution, WaterLevelSeries, detrend, synthesize_series

TWO_PI = 2.0 * math.pi
DENSE_T = np.arange(0.0, 8766.0, 1.0)


@pytest.fixture(scope="module")
def gauges(reference_nearby, reference_offshore):
    return (
        GaugeHarmonics("nearby", reference_nearby),
        GaugeHarmonics("offshore", reference_offshore),
    )


def interpolant(ref_a, ref_b, w, catalog):
    amps = (1 - w) * ref_a.solution.amplitudes + w * ref_b.solution.amplitudes
    phases = ref_a.solution.phases + w * shortest_arc(
        ref_a.solution.phases, ref_b.solution.phases
    )
    return HarmonicSolution(0.0, 0.0, amps, phases % TWO_PI, catalog)


class TestShortestArc:
    def test_simple_cases(self):
        assert shortest_arc(0.0, 0.5) == pytest.approx(0.5)
        assert shortest_arc(0.5, 0.0) == pytest.approx(-0.5)
        assert shortest_arc(0.1, TWO_PI - 0.1) == pytest.approx(-0.2)

    def test_antipode_resolves_toward_increasing_angle(self):
        assert shortest_arc(0.0, math.pi) == pytest.approx(math.pi)
        assert shortest_arc(1.0, 1.0 + math.pi) == pytest.approx(math.pi)

    @given(a=st.floats(0, TWO_PI), b=st.floats(0, TWO_PI))
    def test_bounded_and_consistent(self, a, b):
        arc = shortest_arc(a, b)
        assert -math.pi < arc <= math.pi + 1e-12
        circular_gap = abs((a + arc - b + math.pi) % TWO_PI - math.pi)
        assert circular_gap < 1e-9


class TestEndpoints:
    def test_series_from_gauge_a(self, gauges, catalog):
        ref_a, ref_b = gauges
        series = synthesize_series(ref_a.solution, DENSE_T)
        result = cha_fit(series, ref_a, ref_b, catalog)
        assert result.weight == 0.0
        assert rrmse(result.solution.amplitudes, ref_a.solution.amplitudes) < 0.1
        assert result.identifiable

    def test_series_from_gauge_b(self, gauges, catalog):
        ref_a, ref_b = gauges
        series = synthesize_series(ref_b.solution, DENSE_T)
        result = cha_fit(series, ref_a, ref_b, catalog)
        assert result.weight == 1.0
        assert rrmse(result.solution.amplitudes, ref_b.solution.amplitudes) < 0.1

    def test_series_from_midpoint(self, gauges, catalog):
        ref_a, ref_b = gauges
        series = synthesize_series(interpolant(ref_a, ref_b, 0.5, catalog), DENSE_T)
        result = cha_fit(series, ref_a, ref_b, catalog)
        assert abs(result.weight - 0.5) <= 0.002


class TestProperties:
    def test_objective_no_worse_than_endpoints(self, gauges, catalog, pack_state):
        ref_a, ref_b = gauges
        series = synthesize_series(interpolant(ref_a, ref_b, 0.3, catalog), DENSE_T)
        result = cha_fit(series, ref_a, ref_b, catalog)
        residual, _, _ = detrend(series)
        h_matrix = build_design_matrix(residual.times, catalog)
        for endpoint in (ref_a, ref_b):
            misfit = h_matrix @ pack_state(endpoint.solution) - residual.heights
            assert result.objective <= misfit @ misfit + 1e-9

    def test_objective_is_the_misfit_at_the_fitted_weight(self, gauges, catalog):
        ref_a, ref_b = gauges
        series = synthesize_series(interpolant(ref_a, ref_b, 0.3, catalog), DENSE_T)
        result = cha_fit(series, ref_a, ref_b, catalog)
        residual, _, _ = detrend(series)
        state = GaugePair(ref_a, ref_b, catalog).states_for(result.weight)[:, 0]
        misfit = build_design_matrix(residual.times, catalog) @ state - residual.heights
        assert result.objective == pytest.approx(misfit @ misfit, rel=1e-11, abs=0)

    def test_swap_reverses_weight(self, gauges, catalog):
        ref_a, ref_b = gauges
        series = synthesize_series(interpolant(ref_a, ref_b, 0.3, catalog), DENSE_T)
        forward = cha_fit(series, ref_a, ref_b, catalog)
        swapped = cha_fit(series, ref_b, ref_a, catalog)
        assert abs(swapped.weight - (1.0 - forward.weight)) <= 0.001
        assert np.allclose(
            swapped.solution.amplitudes, forward.solution.amplitudes, atol=5e-4
        )

    def test_identical_gauges_flagged(self, gauges, catalog):
        ref_a, _ = gauges
        twin = GaugeHarmonics("twin", ref_a.solution)
        series = synthesize_series(ref_a.solution, np.arange(0.0, 400.0, 0.5))
        result = cha_fit(series, ref_a, twin, catalog)
        assert not result.identifiable
        assert np.allclose(result.solution.amplitudes, ref_a.solution.amplitudes)

    def test_gauges_apart_by_rounding_flagged(self, gauges, catalog):
        ref_a, _ = gauges
        a = ref_a.solution
        shifted = HarmonicSolution(a.mean, a.trend, a.amplitudes, a.phases + 1e-13, catalog)
        series = synthesize_series(a, np.arange(0.0, 400.0, 0.5))
        result = cha_fit(series, ref_a, GaugeHarmonics("shifted", shifted), catalog)
        assert not result.identifiable

    def test_solution_keeps_series_mean_and_trend(self, gauges, catalog):
        ref_a, ref_b = gauges
        base = synthesize_series(ref_a.solution, np.arange(0.0, 800.0, 0.5))
        lifted = WaterLevelSeries(base.times, base.heights + 3.0 + 0.001 * base.times)
        result = cha_fit(lifted, ref_a, ref_b, catalog)
        _, mean, trend = detrend(lifted)
        assert result.solution.mean == pytest.approx(mean)
        assert result.solution.trend == pytest.approx(trend)


class TestGaugePair:
    def test_solve_on_a_prepared_record_is_the_fit(self, gauges, catalog):
        ref_a, ref_b = gauges
        series = synthesize_series(interpolant(ref_a, ref_b, 0.3, catalog), np.arange(0.0, 800.0, 3.7))
        solved = cha_solve(prepare(series, catalog), GaugePair(ref_a, ref_b, catalog))
        fitted = cha_fit(series, ref_a, ref_b, catalog)
        assert solved.weight == fitted.weight
        assert solved.objective == fitted.objective
        assert solved.solution.amplitudes.tobytes() == fitted.solution.amplitudes.tobytes()
        assert solved.solution.phases.tobytes() == fitted.solution.phases.tobytes()

    @pytest.mark.parametrize("step", [3.7, 100.0])
    def test_fit_runs_no_least_squares_solve(self, gauges, catalog, lstsq_calls, step):
        # CHA scores the compressed misfit and never reads the SVD solve
        ref_a, ref_b = gauges
        series = synthesize_series(interpolant(ref_a, ref_b, 0.3, catalog), np.arange(0.0, 800.0, step))
        assert cha_fit(series, ref_a, ref_b, catalog).identifiable
        assert lstsq_calls == []

    def test_states_are_read_only(self, gauges, catalog):
        pair = GaugePair(*gauges, catalog)
        assert pair.states.shape == (2 * catalog.n, pair.weights.size)
        for array in (pair.states, pair.weights, pair.arc):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestValidation:
    def test_misaligned_reference_rejected(self, gauges, monkeypatch):
        ref_a, ref_b = gauges
        other = ConstituentCatalog((Constituent("A", 1.0),))
        stranger = GaugeHarmonics(
            "stranger",
            HarmonicSolution(0, 0, np.array([1.0]), np.array([0.0]), other),
        )
        series = synthesize_series(ref_a.solution, np.arange(0.0, 100.0, 0.5))
        prepared = []
        monkeypatch.setattr(relsha.cha, "prepare", lambda *args: prepared.append(args))
        with pytest.raises(ValueError, match="'stranger' is not aligned"):
            cha_fit(series, stranger, ref_b, ref_a.solution.catalog)
        assert prepared == []

    def test_record_on_another_catalog_rejected(self, gauges, catalog):
        ref_a, _ = gauges
        other = ConstituentCatalog(tuple(reversed(catalog.constituents)))
        record = prepare(synthesize_series(ref_a.solution, np.arange(0.0, 100.0, 0.5)), other)
        with pytest.raises(ValueError, match="different catalogs"):
            cha_solve(record, GaugePair(*gauges, catalog))

    def test_requires_two_samples(self, gauges, catalog):
        ref_a, ref_b = gauges
        with pytest.raises(ValueError, match="at least 2 samples"):
            cha_fit(WaterLevelSeries([0.0], [1.0]), ref_a, ref_b, catalog)
