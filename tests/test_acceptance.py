"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The synthetic-truth protocol mirrors the error-grid study: a dense
noiseless record synthesized from the bundled 37-constituent truth, cut and
resampled at satellite-like revisit intervals, with reference amplitudes
perturbed per seed.
"""

import math
import time

import numpy as np
import pytest

import relsha
from relsha.cha import GaugeHarmonics, cha_fit, shortest_arc
from relsha.cli import main
from relsha.evaluation import rrmse, run_grid
from relsha.ha import ha_fit
from relsha.regularized import RelshaConfig, _value_and_gradient, relsha_fit
from relsha.series import HarmonicSolution, SamplingPlan, WaterLevelSeries, apply_noise, resample

YEAR = 8766.0
JASON_INTERVAL = 237.6
SWOT_INTERVAL = 264.0


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {description}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def perturbed_reference(truth_amplitudes: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(10_000 + seed)
    return truth_amplitudes * (1.0 + rng.uniform(-0.1, 0.1, truth_amplitudes.size))


def test_criterion_1_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    lams = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst = 0.0
    for case in range(100):
        m = int(rng.integers(5, 51))
        n = int(rng.integers(1, 38))
        lam = lams[case % len(lams)]
        design = rng.normal(size=(m, 2 * n))
        heights = rng.normal(size=m)
        ref_squares = rng.uniform(0.0, 4.0, n)
        x = rng.normal(size=2 * n)
        # the solver's weights and data term: w_data = 1 - lam, w_reg = lam, rest = 0
        weights = (1.0 - lam, lam, 0.0)
        analytic = _value_and_gradient(x, design, heights, ref_squares, *weights)[1]
        numeric = np.empty_like(x)
        for j in range(x.size):
            step = 1e-6 * (1.0 + abs(x[j]))
            forward, backward = x.copy(), x.copy()
            forward[j] += step
            backward[j] -= step
            numeric[j] = (
                _value_and_gradient(forward, design, heights, ref_squares, *weights)[0]
                - _value_and_gradient(backward, design, heights, ref_squares, *weights)[0]
            ) / (2.0 * step)
        worst = max(worst, float((np.abs(analytic - numeric) / (1.0 + np.abs(numeric))).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        "analytic gradient matches central differences on 100 random instances",
        worst < 1e-6 and elapsed < 10.0,
        f"(max relative deviation {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_lambda_endpoints(hourly_year, truth, catalog):
    start = time.perf_counter()
    ha_amplitudes = ha_fit(hourly_year, catalog).solution.amplitudes
    at_zero = relsha_fit(hourly_year, truth.amplitudes * 1.05, catalog, RelshaConfig(lam=0.0))
    zero_gap = float(np.abs(at_zero.solution.amplitudes - ha_amplitudes).max())

    reference = truth.amplitudes * 0.95
    at_one = relsha_fit(hourly_year, reference, catalog, RelshaConfig(lam=1.0))
    recovered_product = at_one.solution.amplitudes * catalog.nodal_factors
    one_gap = float(np.abs(recovered_product - reference).max())
    elapsed = time.perf_counter() - start
    report(
        2,
        "lambda endpoints reproduce plain least squares and the reference",
        zero_gap < 1e-6 and one_gap < 1e-6 and elapsed < 5.0,
        f"(lam=0 gap {zero_gap:.2e}, lam=1 gap {one_gap:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_3_dense_sampling_recovery(base_series, truth, catalog):
    start = time.perf_counter()
    sampled = resample(base_series, SamplingPlan(0.1, YEAR, seed=3))
    clean_error = rrmse(ha_fit(sampled, catalog).solution.amplitudes, truth.amplitudes)
    noisy = apply_noise(sampled, 0.02, seed=31)
    noisy_error = rrmse(ha_fit(noisy, catalog).solution.amplitudes, truth.amplitudes)
    elapsed = time.perf_counter() - start
    report(
        3,
        "6-min/1-year harmonic analysis recovers the truth",
        clean_error < 0.1 and noisy_error < 1.0 and elapsed < 30.0,
        f"(noiseless {clean_error:.4f}%, 2cm noise {noisy_error:.4f}%, {elapsed:.1f}s)",
    )


def test_criterion_4_undersampled_superiority(base_series, truth, catalog):
    start = time.perf_counter()
    details = []
    ok = True
    for interval in (JASON_INTERVAL, SWOT_INTERVAL):
        relsha_errors, ha_errors = [], []
        for seed in range(20):
            reference = perturbed_reference(truth.amplitudes, seed)
            sampled = resample(base_series, SamplingPlan(interval, YEAR, seed=seed))
            assert len(sampled) < 2 * catalog.n
            fit = relsha_fit(sampled, reference, catalog, RelshaConfig(lam=0.5))
            relsha_errors.append(rrmse(fit.solution.amplitudes, truth.amplitudes))
            ha_errors.append(rrmse(ha_fit(sampled, catalog).solution.amplitudes, truth.amplitudes))
        relsha_median = float(np.median(relsha_errors))
        ha_median = float(np.median(ha_errors))
        ok = ok and relsha_median <= 5.0 and ha_median >= 2.0 * relsha_median
        details.append(f"{interval}h: relsha {relsha_median:.2f}% vs ha {ha_median:.2f}%")
    elapsed = time.perf_counter() - start
    report(
        4,
        "undersampled regularized fit beats plain least squares 2x at <=5% error",
        ok and elapsed < 120.0,
        f"({'; '.join(details)}, {elapsed:.1f}s)",
    )


def test_criterion_5_cha_endpoint_identification(reference_nearby, reference_offshore, catalog):
    start = time.perf_counter()
    ref_a = GaugeHarmonics("nearby", reference_nearby)
    ref_b = GaugeHarmonics("offshore", reference_offshore)
    dense_times = np.arange(0.0, YEAR, 1.0)

    from_a = cha_fit(relsha.synthesize_series(reference_nearby, dense_times), ref_a, ref_b, catalog)
    error_a = rrmse(from_a.solution.amplitudes, reference_nearby.amplitudes)
    from_b = cha_fit(relsha.synthesize_series(reference_offshore, dense_times), ref_a, ref_b, catalog)

    mid_amps = 0.5 * (reference_nearby.amplitudes + reference_offshore.amplitudes)
    mid_phases = (
        reference_nearby.phases
        + 0.5 * shortest_arc(reference_nearby.phases, reference_offshore.phases)
    ) % (2 * math.pi)
    midpoint = HarmonicSolution(0.0, 0.0, mid_amps, mid_phases, catalog)
    from_mid = cha_fit(relsha.synthesize_series(midpoint, dense_times), ref_a, ref_b, catalog)
    elapsed = time.perf_counter() - start
    report(
        5,
        "constrained fit identifies the generating weight",
        from_a.weight == 0.0
        and error_a < 0.1
        and from_b.weight == 1.0
        and abs(from_mid.weight - 0.5) <= 0.002
        and elapsed < 10.0,
        f"(w_A={from_a.weight}, w_B={from_b.weight}, w_mid={from_mid.weight:.4f}, "
        f"rrmse_A={error_a:.4f}%, {elapsed:.1f}s)",
    )


def test_criterion_6_regime_boundary(base_series, truth, catalog):
    counts = np.arange(70, 79)
    intervals = [YEAR / (c - 1) * 0.9999 for c in counts]
    grid = run_grid(base_series, truth.amplitudes, catalog,
                    intervals=intervals, lengths=[YEAR], methods=("ha",))
    regimes = []
    ok = True
    for i, expected_count in enumerate(counts):
        cell = grid.cells[(i, 0, "ha")]
        ok = ok and cell.sample_count == expected_count
        ok = ok and cell.regime == ("underdetermined" if cell.sample_count < 74 else "overdetermined")
        regimes.append(cell.regime[0])
    ok = ok and "u" in regimes and "o" in regimes and sorted(regimes, reverse=True) == regimes
    report(
        6,
        "regime flag flips exactly where the sample count crosses 74",
        ok,
        f"(counts {counts[0]}..{counts[-1]} -> {''.join(regimes)})",
    )


def test_criterion_7_rrmse_examples():
    exact = rrmse([1.0, 0.5], [1.0, 0.5]) == 0.0
    hand = abs(rrmse([1.0, 1.0], [1.0, 0.0]) - 100.0 * math.sqrt(0.5)) < 1e-9
    est = np.array([0.4, 0.1, 0.2])
    tru = np.array([0.5, 0.1, 0.15])
    scaled = abs(rrmse(3.7 * est, 3.7 * tru) - rrmse(est, tru)) < 1e-12
    report(
        7,
        "RRMSE metric: exactness, hand value 70.71%, scale invariance",
        exact and hand and scaled,
    )


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for name, threads in (("run1", 1), ("run2", 1), ("run3", 4)):
        out = tmp_path / f"{name}.csv"
        code = main([
            "experiment", "--intervals", "1.0,237.6", "--lengths", "720,2190",
            "--methods", "ha,cha,relsha", "--seed", "7", "--threads", str(threads),
            "--output", str(out),
        ])
        assert code == 0
        slice_path = tmp_path / f"{name}_slice_9.9day.csv"
        outputs.append(out.read_bytes() + slice_path.read_bytes())
    report(
        8,
        "experiment output is byte-identical across runs and thread counts {1, 4}",
        outputs[0] == outputs[1] == outputs[2],
    )


def test_criterion_9_gappy_undersampled_record(base_series, truth, catalog):
    start = time.perf_counter()
    errors, converged = [], []
    for seed in range(20):
        reference = perturbed_reference(truth.amplitudes, 500 + seed)
        sampled = resample(base_series, SamplingPlan(JASON_INTERVAL, YEAR, seed=seed))
        rng = np.random.default_rng(20_000 + seed)
        keep = rng.random(len(sampled)) > 0.2
        gappy = WaterLevelSeries(sampled.times[keep], sampled.heights[keep])
        fit = relsha_fit(gappy, reference, catalog, RelshaConfig(lam=0.5))
        errors.append(rrmse(fit.solution.amplitudes, truth.amplitudes))
        converged.append(fit.diagnostics.converged)
    median_error = float(np.median(errors))
    elapsed = time.perf_counter() - start
    report(
        9,
        "20% dropped cycles: solver still converges with median error <= 8%",
        all(converged) and median_error <= 8.0,
        f"(median {median_error:.2f}%, converged {sum(converged)}/20, {elapsed:.1f}s)",
    )
