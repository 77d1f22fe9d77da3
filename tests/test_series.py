import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsha import evaluation, series
from relsha.constituents import Constituent, ConstituentCatalog
from relsha.design import build_design_matrix
from relsha.series import (
    HarmonicSolution,
    SamplingPlan,
    SynthesizedSeries,
    WaterLevelSeries,
    apply_noise,
    detrend,
    resample,
    synthesize,
    synthesize_series,
)

TWO_PI = 2.0 * math.pi

CAT1 = ConstituentCatalog((Constituent("A", TWO_PI / 12.0),))
CAT2 = ConstituentCatalog(
    (Constituent("A", TWO_PI / 12.0), Constituent("B", TWO_PI / 10.0))
)


def flat_series(value, count=10, spacing=1.0):
    t = spacing * np.arange(count)
    return WaterLevelSeries(t, np.full(count, float(value)))


class TestWaterLevelSeries:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            WaterLevelSeries([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="equal length"):
            WaterLevelSeries([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            WaterLevelSeries([0.0, 1.0], [1.0, np.nan])
        with pytest.raises(ValueError, match="at least one"):
            WaterLevelSeries([], [])

    def test_arrays_are_read_only(self):
        s = flat_series(1.0)
        with pytest.raises(ValueError):
            s.heights[0] = 2.0

    def test_native_spacing_is_median_gap(self):
        s = WaterLevelSeries([0.0, 1.0, 2.0, 10.0], np.zeros(4))
        assert s.native_spacing == 1.0


class TestHarmonicSolution:
    @pytest.mark.parametrize("phase", [np.nan, np.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="phases must be finite"):
            HarmonicSolution(0.0, 0.0, [0.5, 0.1], [0.0, phase], CAT2)


class TestDetrend:
    def test_constant_series(self):
        residual, mean, trend = detrend(flat_series(1.5))
        assert mean == pytest.approx(1.5)
        assert trend == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(residual.heights, 0.0, atol=1e-14)

    def test_noiseless_line(self):
        t = np.arange(0.0, 101.0)
        series = WaterLevelSeries(t, 2.0 + 0.001 * t)
        residual, mean, trend = detrend(series)
        assert mean == pytest.approx(2.0 + 0.001 * 50.0, abs=1e-12)
        assert trend == pytest.approx(0.001, abs=1e-15)
        assert np.allclose(residual.heights, 0.0, atol=1e-12)

    def test_sinusoid_over_full_periods(self):
        # 20 full 12-h periods, uniform sampling. The discrete sum against
        # the ramp vanishes exactly only for a phase symmetric about the
        # record center; continuous orthogonality is approximate at O(1/N^2).
        t = np.arange(0.0, 240.0, 0.5)
        series = WaterLevelSeries(t, np.cos(TWO_PI / 12.0 * (t - t.mean())))
        _, mean, trend = detrend(series)
        assert abs(mean) < 1e-10
        assert abs(trend) < 1e-10
        generic = WaterLevelSeries(t, np.cos(TWO_PI / 12.0 * t))
        _, mean_g, trend_g = detrend(generic)
        assert abs(mean_g) < 1e-10
        assert abs(trend_g) < 1e-3

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            detrend(WaterLevelSeries([0.0], [1.0]))

    def test_residual_statistics(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 100, 200))
        series = WaterLevelSeries(t, rng.normal(3.0, 1.0, 200))
        residual, _, _ = detrend(series)
        assert abs(residual.heights.mean()) < 1e-12
        tc = t - t.mean()
        assert abs(tc @ residual.heights) / (np.abs(tc).max() * 200) < 1e-12

    def test_reconstructs_removed_line(self):
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0, 50, 80))
        h = rng.normal(0, 0.3, 80) + 1.2 - 0.01 * t
        series = WaterLevelSeries(t, h)
        residual, mean, trend = detrend(series)
        line = mean + trend * (t - t.mean())
        assert np.allclose(residual.heights + line, h, atol=1e-12)


class TestSynthesize:
    def test_zero_amplitudes_give_mean(self):
        solution = HarmonicSolution(1.0, 0.0, np.zeros(1), np.zeros(1), CAT1)
        assert np.allclose(synthesize(solution, [0.0, 3.0, 7.5]), 1.0)

    def test_single_constituent_at_origin(self):
        solution = HarmonicSolution(0.25, 0.0, np.array([1.0]), np.array([0.0]), CAT1)
        values = synthesize(solution, [0.0])
        assert values[0] == pytest.approx(0.25 + 1.0)

    def test_two_constituents_hand_value(self):
        solution = HarmonicSolution(
            0.5, 0.0, np.array([1.0, 0.5]), np.array([0.0, math.pi / 2]), CAT2
        )
        # at t=0 both angular arguments reduce to the phases
        assert synthesize(solution, [0.0])[0] == pytest.approx(0.5 + 1.0 + 0.5 * math.cos(math.pi / 2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            HarmonicSolution(0.0, 0.0, np.zeros(3), np.zeros(3), CAT2)

    def test_trend_uses_time_reference(self):
        solution = HarmonicSolution(2.0, 0.5, np.zeros(1), np.zeros(1), CAT1, time_reference=10.0)
        assert synthesize(solution, [10.0])[0] == pytest.approx(2.0)
        assert synthesize(solution, [12.0])[0] == pytest.approx(3.0)

    @given(scale=st.floats(0.1, 5.0), extra=st.floats(0.0, 2.0))
    def test_linear_in_amplitudes_at_fixed_phases(self, scale, extra):
        t = np.linspace(0.0, 40.0, 50)
        amps = np.array([0.7, 0.2])
        phases = np.array([0.3, 1.1])
        a = HarmonicSolution(0.0, 0.0, scale * amps, phases, CAT2)
        b = HarmonicSolution(0.0, 0.0, np.full(2, extra), phases, CAT2)
        combined = HarmonicSolution(0.0, 0.0, scale * amps + extra, phases, CAT2)
        assert np.allclose(
            synthesize(combined, t), synthesize(a, t) + synthesize(b, t), atol=1e-12
        )

    def test_scalar_time_gives_one_value(self):
        solution = HarmonicSolution(0.5, 0.1, np.array([1.0, 0.5]), np.array([0.3, 1.1]), CAT2)
        assert synthesize(solution, 5.0).tobytes() == synthesize(solution, [5.0]).tobytes()
        assert build_design_matrix(5.0, CAT2).tobytes() == build_design_matrix([5.0], CAT2).tobytes()


@contextmanager
def blas_threads(count):
    """Each loaded bundled OpenBLAS at count threads, restored on exit."""
    controls = evaluation._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled scipy-openblas library is loaded")
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(count)
        yield
    finally:
        for (_, set_), saved_count in zip(controls, saved):
            set_(saved_count)


class TestBlocks:
    """synthesize evaluates its cos table in blocks of samples; the blocks
    must not move a bit."""

    # three whole blocks and a ragged tail
    TIMES = 0.1 * np.arange(3 * series._BLOCK + 123)

    def test_times_of_any_shape_give_values_of_that_shape(self, truth):
        t = 0.7 * np.arange(12.0)
        flat = synthesize(truth, t)
        assert synthesize(truth, t.reshape(3, 4)).tobytes() == flat.tobytes()
        assert synthesize(truth, t.reshape(3, 4)).shape == (3, 4)
        assert np.shape(synthesize(truth, 5.0)) == ()

    def test_synthesize_equals_the_fixed_order_formula(self, truth):
        t, cat = self.TIMES, truth.catalog
        weights = truth.amplitudes * cat.nodal_factors
        # the sum over constituents in catalog order, on the whole record at once
        harmonics = weights[0] * np.cos(cat.speeds[0] * t + truth.phases[0])
        for k in range(1, cat.n):
            harmonics = harmonics + weights[k] * np.cos(cat.speeds[k] * t + truth.phases[k])
        expected = truth.mean + truth.trend * (t - truth.time_reference) + harmonics
        assert synthesize(truth, t).tobytes() == expected.tobytes()

    @given(start=st.floats(0.0, 1e4), length=st.integers(1, 3 * series._BLOCK + 123),
           fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_a_sample_has_the_same_bits_at_any_position(self, truth, start, length, fraction, seed):
        rng = np.random.default_rng(seed)
        t = start + np.cumsum(rng.uniform(0.01, 3.0, length))
        idx = np.flatnonzero(rng.random(length) < fraction)
        assert synthesize(truth, t)[idx].tobytes() == synthesize(truth, t[idx]).tobytes()

    def test_synthesize_bits_do_not_depend_on_blas_threads(self, truth):
        # the dense base record of the default experiment
        t = 0.1 * np.arange(92_233)
        with blas_threads(2):
            at_two = synthesize(truth, t)
        with evaluation._one_blas_thread():
            at_one = synthesize(truth, t)
        assert at_two.tobytes() == at_one.tobytes()


class TestResample:
    def test_every_other_sample(self):
        t = 0.1 * np.arange(100)  # 6-min spacing
        series = WaterLevelSeries(t, np.sin(t))
        plan = SamplingPlan(interval=0.2, record_length=t[-1] - t[0])
        picked = resample(series, plan)
        assert np.array_equal(picked.times, t[::2])
        assert np.array_equal(picked.heights, np.sin(t)[::2])

    def test_year_at_jason_revisit_interval(self, base_series):
        plan = SamplingPlan(interval=237.6, record_length=8766.0, seed=0)
        picked = resample(base_series, plan)
        assert len(picked) == math.floor(8766.0 / 237.6) + 1 == 37

    def test_deterministic_given_seed(self, base_series):
        plan = SamplingPlan(interval=50.0, record_length=4000.0, seed=123)
        a = resample(base_series, plan)
        b = resample(base_series, plan)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.heights, b.heights)

    def test_different_seeds_move_the_window(self, base_series):
        a = resample(base_series, SamplingPlan(50.0, 4000.0, seed=1))
        b = resample(base_series, SamplingPlan(50.0, 4000.0, seed=2))
        assert not np.array_equal(a.times, b.times)

    def test_empty_selection_raises(self):
        # tight cluster plus one far sample: median spacing keeps the snap
        # tolerance at 0.05 h, and the seeded offset (~318.5) puts both
        # targets far from every sample
        series = WaterLevelSeries([0.0, 0.1, 0.2, 1000.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="no samples"):
            resample(series, SamplingPlan(interval=500.0, record_length=500.0, seed=0))

    @given(seed=st.integers(0, 1000), interval=st.floats(0.3, 40.0),
           length=st.floats(40.0, 900.0))
    def test_subset_and_count_bound(self, seed, interval, length):
        t = 0.25 * np.arange(4000)  # 1000 h of 15-min samples
        series = WaterLevelSeries(t, np.cos(0.5 * t))
        plan = SamplingPlan(interval=interval, record_length=length, seed=seed)
        picked = resample(series, plan)
        assert np.all(np.isin(picked.times, t))
        assert len(picked) <= math.floor(length / interval) + 1
        assert np.all(np.diff(picked.times) > 0)

    @given(seed=st.integers(0, 1000), interval=st.floats(0.05, 60.0),
           length=st.floats(1.0, 150.0))
    @settings(max_examples=60)
    def test_keeps_what_np_unique_of_the_snapped_samples_keeps(self, seed, interval, length):
        # intervals below the 0.25-h native spacing snap several targets
        # to one sample
        t = 0.25 * np.arange(480) + np.random.default_rng(seed).uniform(-0.05, 0.05, 480)
        series = WaterLevelSeries(t, np.cos(0.5 * t))
        plan = SamplingPlan(interval=interval, record_length=max(length, interval), seed=seed)
        rng = np.random.default_rng(plan.seed)
        start_max = max(t[0], t[-1] - plan.record_length)
        offset = float(rng.uniform(t[0], start_max)) if start_max > t[0] else float(t[0])
        targets = offset + plan.interval * np.arange(math.floor(plan.record_length / plan.interval) + 1)
        nearest = np.abs(t[:, None] - targets[None, :]).argmin(axis=0)
        within = np.abs(t[nearest] - targets) <= 0.5 * series.native_spacing
        expected = np.unique(nearest[within])
        try:
            picked = resample(series, plan)
        except ValueError:
            assert expected.size == 0
        else:
            assert picked.times.tobytes() == t[expected].tobytes()

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingPlan(interval=0.0, record_length=1.0)
        with pytest.raises(ValueError, match="record_length"):
            SamplingPlan(interval=2.0, record_length=1.0)


class TestSynthesizedSeries:
    TIMES = 0.1 * np.arange(20_000)

    def test_heights_are_the_eager_records(self, truth):
        lazy = SynthesizedSeries(truth, self.TIMES, 0.02, seed=3)
        eager = apply_noise(synthesize_series(truth, self.TIMES), 0.02, seed=3)
        picked = np.array([7, 8, 4096, 19_999])
        assert lazy.heights_at(picked).tobytes() == eager.heights[picked].tobytes()
        assert lazy.synthesized == 4
        every = np.arange(len(lazy))
        assert lazy.heights_at(every).tobytes() == eager.heights.tobytes()
        assert lazy.synthesized == len(eager)
        assert lazy.native_spacing == eager.native_spacing

    def test_negative_sigma_rejected(self, truth):
        with pytest.raises(ValueError, match="sigma"):
            SynthesizedSeries(truth, self.TIMES, -0.01)

    def test_threads_synthesize_each_sample_once(self, truth, monkeypatch):
        synthesized = []
        synthesize = series.synthesize

        def counted(solution, times):
            synthesized.append(np.array(times))
            return synthesize(solution, times)

        monkeypatch.setattr(series, "synthesize", counted)
        lazy = SynthesizedSeries(truth, self.TIMES)
        rng = np.random.default_rng(5)
        subsets = [np.flatnonzero(rng.random(len(lazy)) < 0.2) for _ in range(32)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lazy.heights_at, subset) for subset in subsets]
                heights = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        kept = np.unique(np.concatenate(subsets))
        times = np.concatenate(synthesized)
        assert times.size == kept.size
        assert np.array_equal(np.sort(times), self.TIMES[kept])
        eager = synthesize(truth, self.TIMES)
        for subset, values in zip(subsets, heights):
            assert values.tobytes() == eager[subset].tobytes()


class TestApplyNoise:
    def test_zero_sigma_is_identity(self):
        series = flat_series(1.0, count=50)
        noisy = apply_noise(series, 0.0, seed=9)
        assert np.array_equal(noisy.heights, series.heights)

    def test_sample_std_matches_sigma(self):
        series = flat_series(0.0, count=20000, spacing=0.1)
        noisy = apply_noise(series, 0.02, seed=11)
        measured = np.std(noisy.heights - series.heights)
        assert abs(measured - 0.02) / 0.02 < 0.10

    def test_seeds_differ(self):
        series = flat_series(0.0, count=100)
        assert not np.array_equal(
            apply_noise(series, 0.01, seed=1).heights,
            apply_noise(series, 0.01, seed=2).heights,
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            apply_noise(flat_series(0.0), -0.1)
