import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relsha.regularized
from relsha.constituents import ConstituentCatalog
from relsha.design import _pair_squares, build_design_matrix, prepare
from relsha.evaluation import cell_seed, default_intervals, default_lengths, rrmse
from relsha.ha import ha_fit
from relsha.regularized import (
    _GRADIENT_TOLERANCE,
    RelshaConfig,
    RelshaDiagnostics,
    _bracket,
    _hessian,
    _initial_state,
    _newton,
    _step,
    _value_and_gradient,
    relsha_fit,
    relsha_solve,
)
from relsha.series import SamplingPlan, WaterLevelSeries, resample, synthesize_series

TWO_PI = 2.0 * math.pi


def value_and_gradient(x, a, b, ref_squares, lam, rest=0.0):
    """The solver's objective and gradient at regularization weight lam."""
    return _value_and_gradient(x, a, b, ref_squares, 1.0 - lam, lam, rest)


def objective(*args):
    return value_and_gradient(*args)[0]


def gradient(*args):
    return value_and_gradient(*args)[1]


def finite_difference_gradient(x, design, heights, ref_squares, lam):
    grad = np.empty_like(x)
    for j in range(x.size):
        step = 1e-6 * (1.0 + abs(x[j]))
        forward = x.copy()
        backward = x.copy()
        forward[j] += step
        backward[j] -= step
        grad[j] = (
            objective(forward, design, heights, ref_squares, lam)
            - objective(backward, design, heights, ref_squares, lam)
        ) / (2.0 * step)
    return grad


def random_instance(seed, m=5, n=3):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(m, 2 * n))
    heights = rng.normal(size=m)
    ref_squares = rng.uniform(0.0, 4.0, n)
    x = rng.normal(size=2 * n)
    return design, heights, ref_squares, x


class TestObjective:
    def test_pure_data_term(self):
        design = np.array([[1.0, 0.0]])
        value = objective(np.array([1.0, 0.0]), design, np.array([2.0]), np.array([0.0]), 0.0)
        assert value == pytest.approx(1.0)

    def test_pure_penalty_term(self):
        design = np.array([[1.0, 0.0]])
        value = objective(np.zeros(2), design, np.array([0.0]), np.array([4.0]), 1.0)
        assert value == pytest.approx(16.0)

    def test_balanced_hand_value(self):
        design = np.array([[1.0, 0.0]])
        value = objective(
            np.array([1.0, 1.0]), design, np.array([0.0]), np.array([1.0]), 0.5
        )
        # data term 1^2 = 1; pair magnitude squared 2, penalty (2-1)^2 = 1
        assert value == pytest.approx(1.0)


class TestGradient:
    def test_reduces_to_least_squares_at_lam_zero(self):
        design, heights, ref_squares, x = random_instance(0)
        grad = gradient(x, design, heights, ref_squares, 0.0)
        assert np.allclose(grad, 2.0 * design.T @ (design @ x - heights), atol=1e-12)

    def test_zero_at_joint_solution(self):
        # x solving Hx = h with pair magnitudes matching q zeroes both terms
        x = np.array([3.0, 0.0, 4.0, 1.0])
        design = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        heights = design @ x
        ref_squares = np.array([3.0**2 + 4.0**2, 0.0**2 + 1.0**2])
        for lam in (0.0, 0.3, 1.0):
            grad = gradient(x, design, heights, ref_squares, lam)
            assert np.allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        design, heights, ref_squares, x = random_instance(7, m=5, n=3)
        analytic = gradient(x, design, heights, ref_squares, 0.3)
        numeric = finite_difference_gradient(x, design, heights, ref_squares, 0.3)
        relative = np.abs(analytic - numeric) / (1.0 + np.abs(numeric))
        assert relative.max() < 1e-6

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        lam=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_directional_derivative_consistency(self, seed, lam):
        design, heights, ref_squares, x = random_instance(seed, m=6, n=2)
        rng = np.random.default_rng(seed + 1)
        direction = rng.normal(size=x.size)
        direction /= np.linalg.norm(direction)
        eps = 1e-6
        slope = (
            objective(x + eps * direction, design, heights, ref_squares, lam)
            - objective(x - eps * direction, design, heights, ref_squares, lam)
        ) / (2.0 * eps)
        analytic = gradient(x, design, heights, ref_squares, lam) @ direction
        assert abs(analytic - slope) / (1.0 + abs(slope)) < 1e-6


class TestFit:
    def test_lam_zero_matches_ha(self, hourly_year, truth, catalog):
        ha_amplitudes = ha_fit(hourly_year, catalog).solution.amplitudes
        config = RelshaConfig(lam=0.0)
        result = relsha_fit(hourly_year, truth.amplitudes * 1.05, catalog, config)
        assert result.diagnostics.converged
        assert np.abs(result.solution.amplitudes - ha_amplitudes).max() < 1e-6

    def test_lam_one_returns_reference(self, hourly_year, truth, catalog):
        reference = truth.amplitudes * 0.93
        result = relsha_fit(hourly_year, reference, catalog, RelshaConfig(lam=1.0))
        assert result.diagnostics.converged
        assert np.abs(result.solution.amplitudes - reference).max() < 1e-6

    def test_undersampled_beats_plain_least_squares(self, base_series, truth, catalog):
        rng = np.random.default_rng(99)
        reference = truth.amplitudes * (1 + rng.uniform(-0.1, 0.1, catalog.n))
        sampled = resample(base_series, SamplingPlan(237.6, 8766.0, seed=4))
        result = relsha_fit(sampled, reference, catalog)
        relsha_error = rrmse(result.solution.amplitudes, truth.amplitudes)
        ha_error = rrmse(ha_fit(sampled, catalog).solution.amplitudes, truth.amplitudes)
        assert result.diagnostics.regime == "underdetermined"
        assert relsha_error <= 5.0
        assert relsha_error < ha_error

    def test_non_convergence_is_flagged_not_raised(self, base_series, truth, catalog, monkeypatch):
        sampled = resample(base_series, SamplingPlan(237.6, 8766.0, seed=5))
        monkeypatch.setattr(relsha.regularized, "_MAX_ITERATIONS", 1)
        result = relsha_fit(sampled, truth.amplitudes, catalog, RelshaConfig(lam=0.5))
        assert not result.diagnostics.converged
        assert result.diagnostics.iterations <= 1
        assert np.all(np.isfinite(result.solution.amplitudes))

    def test_monotone_descent(self, base_series, truth, catalog):
        from relsha.series import detrend

        sampled = resample(base_series, SamplingPlan(264.0, 8766.0, seed=6))
        values = []
        residual, _, _ = detrend(sampled)
        design = build_design_matrix(residual.times, catalog)
        ref_squares = truth.amplitudes**2

        def record(x):
            values.append(objective(x, design, residual.heights, ref_squares, 0.5))

        relsha_fit(sampled, truth.amplitudes, catalog, callback=record)
        values = np.array(values)
        assert values.size > 1
        assert np.all(np.diff(values) <= 1e-9 * (1.0 + np.abs(values[:-1])))

    def test_start_puts_the_pair_magnitude_at_the_reference(self, hourly_year, truth, catalog):
        # the penalty pulls A f to the reference, so with every f = 1.2 the
        # start is already the lam = 1 minimizer
        scaled = ConstituentCatalog(tuple(replace(c, nodal_factor=1.2) for c in catalog.constituents))
        result = relsha_fit(hourly_year, truth.amplitudes, scaled, RelshaConfig(lam=1.0))
        assert result.diagnostics.iterations == 0
        product = result.solution.amplitudes * scaled.nodal_factors
        assert np.abs(product - truth.amplitudes).max() < 1e-9

    def test_scaling_data_and_reference_scales_amplitudes(self, hourly_year, truth, catalog):
        # joint zero of both terms: scaling heights and reference by c
        # scales the recovered amplitudes by c
        doubled = WaterLevelSeries(hourly_year.times, 2.0 * hourly_year.heights)
        one = relsha_fit(hourly_year, truth.amplitudes, catalog)
        two = relsha_fit(doubled, 2.0 * truth.amplitudes, catalog)
        assert np.allclose(
            two.solution.amplitudes, 2.0 * one.solution.amplitudes, atol=2e-6
        )

    def test_amplitudes_always_non_negative(self, base_series, truth, catalog):
        sampled = resample(base_series, SamplingPlan(100.0, 3000.0, seed=8))
        result = relsha_fit(sampled, truth.amplitudes, catalog)
        assert np.all(result.solution.amplitudes >= 0.0)

    def test_missing_reference_rejected(self, hourly_year, catalog):
        with pytest.raises(ValueError, match="missing prior"):
            relsha_fit(hourly_year, np.array([]), catalog)

    def test_wrong_length_reference_rejected(self, hourly_year, catalog):
        with pytest.raises(ValueError, match="length"):
            relsha_fit(hourly_year, np.ones(3), catalog)

    def test_negative_reference_rejected(self, hourly_year, catalog):
        bad = np.ones(catalog.n)
        bad[0] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            relsha_fit(hourly_year, bad, catalog)

    def test_requires_two_samples(self, truth, catalog):
        with pytest.raises(ValueError, match="at least 2 samples"):
            relsha_fit(WaterLevelSeries([0.0], [1.0]), truth.amplitudes, catalog)


def _problem(record, reference, lam=0.5):
    """The objective, Hessian, start point and tolerance relsha_solve uses."""
    ref_squares = reference**2
    gram = record.a.T @ record.a

    def fg(x):
        return value_and_gradient(x, record.a, record.b, ref_squares, lam, record.rest)

    def hessian(x):
        return _hessian(x, gram, ref_squares, 1.0 - lam, lam)

    x0 = _initial_state(record.least_squares[0], reference)
    f0, g0 = fg(x0)
    return fg, hessian, x0, f0, g0, _GRADIENT_TOLERANCE * (1.0 + abs(f0))


def _one_year(base_series, catalog, interval):
    return prepare(resample(base_series, SamplingPlan(interval, 8766.0, seed=0)), catalog)


class TestNewtonLoop:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("interval", [264.0, 1.0])
    def test_hessian_matches_finite_differences(self, base_series, reference_nearby, catalog, interval, lam):
        record = _one_year(base_series, catalog, interval)
        fg, hessian, x0, _, _, _ = _problem(record, reference_nearby.amplitudes, lam)
        x = x0 + np.random.default_rng(3).normal(scale=0.05, size=x0.size)
        numeric = np.empty((x.size, x.size))
        for j in range(x.size):
            step = np.zeros_like(x)
            step[j] = 1e-6
            numeric[:, j] = (fg(x + step)[1] - fg(x - step)[1]) / 2e-6
        analytic = hessian(x)
        assert np.array_equal(analytic, analytic.T)
        assert np.abs(analytic - numeric).max() <= 1e-6 * (1.0 + np.abs(numeric).max())

    @pytest.mark.parametrize("interval", [264.0, 237.6, 1.0])
    def test_reaches_tolerance(self, base_series, reference_nearby, catalog, interval):
        record = _one_year(base_series, catalog, interval)
        fg, hessian, x0, f0, g0, tolerance = _problem(record, reference_nearby.amplitudes)
        x, f, g, iterations, factorizations = _newton(fg, hessian, x0, f0, g0, tolerance, None)
        assert np.abs(g).max() <= tolerance
        f_at_x, g_at_x = fg(x)
        assert f == f_at_x and np.array_equal(g, g_at_x)
        assert 0 < iterations < 2000
        assert factorizations >= iterations

    # budgets well below the 21 steps this record takes to converge
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_iteration_budget_is_exact(self, base_series, reference_nearby, catalog, monkeypatch, k):
        sampled = resample(base_series, SamplingPlan(264.0, 8766.0, seed=0))
        monkeypatch.setattr(relsha.regularized, "_MAX_ITERATIONS", k)
        states = []
        result = relsha_fit(sampled, reference_nearby.amplitudes, catalog, RelshaConfig(), states.append)
        assert result.diagnostics.iterations == k
        assert not result.diagnostics.converged
        assert len(states) == k
        assert len({state.tobytes() for state in states}) == k

    def test_indefinite_start_still_descends(self, base_series, reference_nearby, catalog):
        # a near-zero state under a tenfold reference: the penalty's
        # curvature 4 lam (|x_k|^2 - q_k) is negative on every pair
        record = _one_year(base_series, catalog, 237.6)
        fg, hessian, x0, _, _, _ = _problem(record, 10.0 * reference_nearby.amplitudes)
        x = 1e-3 * x0
        assert np.linalg.eigvalsh(hessian(x)).min() < 0.0
        f, g = fg(x)
        tolerance = _GRADIENT_TOLERANCE * (1.0 + abs(f))
        values = [f]
        x, f, g, iterations, _ = _newton(
            fg, hessian, x, f, g, tolerance, lambda state: values.append(fg(state)[0])
        )
        assert np.abs(g).max() <= tolerance
        assert 0 < iterations == len(values) - 1
        assert np.all(np.diff(values) < 0.0)


def _dense_hessian(x, gram, ref_squares, w_data, w_reg):
    """The Hessian as the full-matrix sum of its formula."""
    s = _pair_squares(x) - ref_squares
    pairs = np.tile(np.eye(s.size), (2, 2))
    curvature = np.diag(4.0 * w_reg * np.concatenate([s, s]))
    return 2.0 * w_data * gram + curvature + 8.0 * w_reg * np.outer(x, x) * pairs


@pytest.fixture
def dpotrf_calls(monkeypatch):
    """Counts the Cholesky factorizations the solver tries."""
    calls = []
    factor = relsha.regularized.dpotrf

    def counting(*args, **kwargs):
        calls.append(None)
        return factor(*args, **kwargs)

    monkeypatch.setattr(relsha.regularized, "dpotrf", counting)
    return calls


def _hard_case():
    """An indefinite B, its lowest eigenvector orthogonal to g, and a radius
    that ||(B + mu I)^-1 g|| stays inside however close mu gets to 1."""
    return np.diag([2.0, -1.0, 3.0, 1.0]), np.array([0.5, 0.0, 0.5, 0.5]), 1.0


class TestHessianBits:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("interval", [264.0, 237.6, 1.0])
    def test_matches_the_full_matrix_sum_bit_for_bit(self, base_series, reference_nearby, catalog, interval, lam):
        record = _one_year(base_series, catalog, interval)
        gram = record.a.T @ record.a
        for scale in (1.0, 10.0):
            reference = scale * reference_nearby.amplitudes
            x0 = _initial_state(record.least_squares[0], reference)
            noisy = x0 + np.random.default_rng(3).normal(scale=0.05, size=x0.size)
            for x in (x0, 1e-3 * x0, noisy, np.zeros_like(x0)):
                args = (x, gram, reference**2, 1.0 - lam, lam)
                assert _hessian(*args).tobytes() == _dense_hessian(*args).tobytes()


class TestStep:
    def test_interior_newton_step_takes_one_factorization(self, dpotrf_calls):
        b = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        g = np.array([0.1, -0.2, 0.3])
        p, mu, tries = _step(b, g, 1.0, 0.0, _bracket(b))
        assert np.allclose(p, -np.linalg.solve(b, g), rtol=1e-14, atol=0.0)
        assert mu == 0.0 and tries == 1 and len(dpotrf_calls) == 1

    def test_hard_case_reaches_the_radius(self, dpotrf_calls):
        b, g, radius = _hard_case()
        p, mu, tries = _step(b, g, radius, 0.0, _bracket(b))
        assert abs(np.linalg.norm(p) - radius) <= 0.1 * radius
        assert tries == len(dpotrf_calls) <= 6
        # within More and Sorensen's tolerance of the model's minimum on the
        # sphere: p* = (B + I)^+ (-g) plus the lowest eigenvector to the radius
        model = g @ p + 0.5 * p @ b @ p
        interior = -np.linalg.pinv(b + np.eye(4)) @ g
        lowest = np.linalg.eigh(b)[1][:, 0]
        best = interior + math.sqrt(radius**2 - interior @ interior) * lowest
        optimum = g @ best + 0.5 * best @ b @ best
        assert optimum < model <= (1.0 - 0.1 * (2.0 - 0.1)) * optimum

    @pytest.mark.parametrize("mu", [1e6, 1e-9])
    def test_warm_start_outside_the_bracket_is_clamped(self, mu):
        b, g, radius = _hard_case()
        p, _, _ = _step(b, g, radius, mu, _bracket(b))
        assert abs(np.linalg.norm(p) - radius) <= 0.1 * radius

    def test_newton_below_zero_still_finds_the_interior_step(self):
        # warm-started above the answer, Newton overshoots below mu = 0
        b = np.diag([1.0, 2.0, 3.0])
        g = np.array([0.1, 0.1, 0.1])
        p, mu, _ = _step(b, g, 1.0, 5.0, _bracket(b))
        assert mu == 0.0
        assert np.allclose(p, -g / np.diag(b), rtol=1e-14, atol=0.0)

    def test_failed_pivot_raises_low_by_the_rayleigh_quotient_and_no_further(self, monkeypatch):
        # a factorization of B + mu I that fails at pivot k raises low to
        # mu - v^T (B + mu I) v / ||v||^2 for v = (A^-1 a, -1) on the leading
        # k x k block [[A, a], [a^T, d]], a bound on -lambda_min(B)
        gap = relsha.regularized._failed_pivot_gap
        raised = []

        def recording(hess, diagonal, mu, k):
            value, refactored = gap(hess, diagonal, mu, k)
            raised.append((mu, mu + value, k))
            return value, refactored

        monkeypatch.setattr(relsha.regularized, "_failed_pivot_gap", recording)
        rng = np.random.default_rng(5)
        failures = gained = 0
        for _ in range(200):
            q = np.linalg.qr(rng.normal(size=(74, 74)))[0]
            b = (q * rng.uniform(-10.0, 10.0, 74)) @ q.T
            b = 0.5 * (b + b.T)  # symmetric bit for bit, as the Hessian is
            top = -np.linalg.eigvalsh(b)[0]
            norm = np.abs(b).sum(axis=0).max()
            raised.clear()
            _step(b, rng.normal(size=74), rng.uniform(0.1, 10.0), 0.0, _bracket(b))
            for mu, low, k in raised:
                block = b[:k, :k] + mu * np.eye(k)
                v = np.append(np.linalg.solve(block[:-1, :-1], block[:-1, -1]), -1.0)
                assert low == pytest.approx(mu - v @ block @ v / (v @ v), abs=1e-10 * norm)
                assert low <= top + 1e-12 * norm
            failures += len(raised)
            gained += sum(low > mu for mu, low, _ in raised)
        assert failures >= 200 and gained >= 0.9 * failures


class TestConvergence:
    @pytest.mark.parametrize("seed, i, j", [(0, 28, 6), (1, 26, 10)])
    def test_lattice_cell_at_rounding_level_converges(self, truth, reference_nearby, catalog, seed, i, j):
        # relsha experiment's base record and cell seeds; these cells end a
        # step above tolerance with a predicted decrease below J's rounding
        lengths = default_lengths()
        base = synthesize_series(truth, np.arange(0.0, 1.05 * lengths.max() + 0.05, 0.1))
        plan = SamplingPlan(default_intervals()[i], lengths[j], seed=cell_seed(seed, i, j))
        record = prepare(resample(base, plan), catalog)
        assert relsha_solve(record, reference_nearby.amplitudes).diagnostics.converged

    def test_factorizations_counts_every_cholesky_attempt(self, base_series, reference_nearby, catalog, dpotrf_calls):
        record = _one_year(base_series, catalog, 264.0)
        d = relsha_solve(record, reference_nearby.amplitudes).diagnostics
        assert d.factorizations == len(dpotrf_calls) > d.iterations


class TestCompressedObjective:
    def test_compressed_and_raw_paths_agree(self, hourly_year, truth, catalog, pack_state):
        from relsha.series import detrend

        record = prepare(hourly_year, catalog)
        residual, _, _ = detrend(hourly_year)
        design = build_design_matrix(residual.times, catalog)
        ref_squares = (0.9 * truth.amplitudes) ** 2
        rng = np.random.default_rng(12)
        for lam in (0.0, 0.4, 1.0):
            x = pack_state(truth) + rng.normal(scale=0.01, size=2 * catalog.n)
            raw = value_and_gradient(x, design, residual.heights, ref_squares, lam)
            compressed = value_and_gradient(x, record.a, record.b, ref_squares, lam, record.rest)
            assert compressed[0] == pytest.approx(raw[0], rel=1e-10)
            assert np.allclose(compressed[1], raw[1], rtol=1e-8, atol=1e-12)

    def test_fit_objective_is_the_raw_objective(self, hourly_year, truth, catalog, pack_state):
        from relsha.series import detrend

        reference = 1.05 * truth.amplitudes
        result = relsha_fit(hourly_year, reference, catalog, RelshaConfig(lam=0.5))
        assert result.diagnostics.converged
        residual, _, _ = detrend(hourly_year)
        design = build_design_matrix(residual.times, catalog)
        raw, _ = value_and_gradient(
            pack_state(result.solution), design, residual.heights, reference**2, 0.5
        )
        assert result.diagnostics.final_objective == pytest.approx(raw, rel=1e-8)


class TestDiagnostics:
    def test_restarts_is_a_property_reading_zero(self):
        diagnostics = RelshaDiagnostics(
            iterations=3, factorizations=4, initial_objective=2.0, final_objective=1.0,
            gradient_norm=1e-9, gradient_tolerance=3e-8, converged=True,
            regime="overdetermined", sample_count=100,
        )
        assert diagnostics.restarts == 0
        assert "restarts" not in [field.name for field in fields(RelshaDiagnostics)]


class TestConfig:
    def test_lam_range_enforced(self):
        with pytest.raises(ValueError, match="lam"):
            RelshaConfig(lam=1.5)
        with pytest.raises(ValueError, match="lam"):
            RelshaConfig(lam=-0.1)
