import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork

from relsha import design
from relsha.constituents import ConstituentCatalog, Constituent
from relsha.design import (
    OVERDETERMINED,
    UNDERDETERMINED,
    _pair_squares,
    build_design_matrix,
    classify_regime,
    compress_design,
    prepare,
    unpack_state,
)
from relsha.ha import RANK_RCOND, ha_fit
from relsha.series import (
    HarmonicSolution,
    SamplingPlan,
    WaterLevelSeries,
    detrend,
    resample,
    synthesize,
)

TWO_PI = 2.0 * math.pi


class TestDesignMatrix:
    def test_single_time_zero(self):
        cat = ConstituentCatalog((Constituent("A", 1.0),))
        assert np.allclose(build_design_matrix([0.0], cat), [[1.0, 0.0]])

    def test_quarter_period(self):
        cat = ConstituentCatalog((Constituent("A", math.pi / 6.0),))
        row = build_design_matrix([3.0], cat)[0]
        assert row == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_shape_is_m_by_2n(self):
        cat = ConstituentCatalog((Constituent("A", 0.5), Constituent("B", 0.7)))
        assert build_design_matrix([0.0, 1.0, 2.0], cat).shape == (3, 4)

    def test_entries_bounded(self):
        cat = ConstituentCatalog(
            (Constituent("A", 0.3), Constituent("B", 1.7), Constituent("C", 2.9))
        )
        h = build_design_matrix(np.linspace(0, 500, 200), cat)
        assert np.all(np.abs(h) <= 1.0)

    def test_empty_times_rejected(self):
        cat = ConstituentCatalog((Constituent("A", 1.0),))
        with pytest.raises(ValueError, match="at least one"):
            build_design_matrix([], cat)

    def test_empty_catalog_rejected_at_construction(self):
        with pytest.raises(ValueError, match="at least one constituent"):
            ConstituentCatalog(())


class TestPairingMatrix:
    def test_pairs_squares(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])  # (a, b, c, d)
        assert np.allclose(_pair_squares(x), [1.0 + 9.0, 4.0 + 16.0])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=20).filter(lambda v: len(v) % 2 == 0))
    def test_amplitude_squares_matches_explicit_k(self, values):
        x = np.array(values)
        n = x.size // 2
        # K is n x 2n with ones at columns k and n+k of row k
        k = np.hstack([np.eye(n), np.eye(n)])
        assert np.allclose(_pair_squares(x), k @ (x * x), atol=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20).filter(lambda v: len(v) % 2 == 0))
    def test_one_norm_identity(self, values):
        x = np.array(values)
        assert np.sum(_pair_squares(x)) == pytest.approx(x @ x, rel=1e-12)


class TestPackUnpack:
    def test_three_four_five(self):
        cat = ConstituentCatalog((Constituent("A", 1.0),))
        amplitudes, _ = unpack_state(np.array([3.0, 4.0]), cat)
        assert amplitudes[0] == pytest.approx(5.0)

    def test_zero_state(self):
        cat = ConstituentCatalog((Constituent("A", 1.0), Constituent("B", 2.0)))
        amplitudes, phases = unpack_state(np.zeros(4), cat)
        assert np.array_equal(amplitudes, [0.0, 0.0])
        assert np.array_equal(phases, [0.0, 0.0])

    def test_dimension_checked(self):
        cat = ConstituentCatalog((Constituent("A", 1.0),))
        with pytest.raises(ValueError, match="length 2"):
            unpack_state(np.zeros(4), cat)

    def test_nodal_factor_division(self, pack_state):
        cat = ConstituentCatalog((Constituent("A", 1.0, nodal_factor=2.0),))
        amplitudes, _ = unpack_state(np.array([3.0, 4.0]), cat)
        assert amplitudes[0] == pytest.approx(2.5)
        solution = HarmonicSolution(0, 0, np.array([2.5]), np.array([0.3]), cat)
        packed = pack_state(solution)
        assert np.hypot(packed[0], packed[1]) == pytest.approx(5.0)

    @given(
        amps=st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
        phases=st.lists(st.floats(0.0, TWO_PI - 1e-9), min_size=3, max_size=3),
    )
    def test_round_trip(self, pack_state, amps, phases):
        cat = ConstituentCatalog(
            (Constituent("A", 0.3), Constituent("B", 0.9), Constituent("C", 2.0))
        )
        solution = HarmonicSolution(0, 0, np.array(amps), np.array(phases), cat)
        amplitudes, recovered = unpack_state(pack_state(solution), cat)
        assert np.allclose(amplitudes, amps, atol=1e-12)
        delta = np.abs((recovered - np.array(phases) + math.pi) % TWO_PI - math.pi)
        assert np.all(delta < 1e-9)

    @given(angle=st.floats(0.0, TWO_PI))
    def test_amplitude_invariant_under_pair_rotation(self, angle):
        x = np.array([0.6, -1.2, 0.8, 0.5])
        c, s = np.cos(angle), np.sin(angle)
        rotated = np.concatenate([c * x[:2] - s * x[2:], s * x[:2] + c * x[2:]])
        assert np.allclose(_pair_squares(rotated), _pair_squares(x), atol=1e-9)


class TestReconstructionIdentity:
    """H @ pack(solution) must reproduce the signal model exactly; this
    pins the sign convention of the sine block."""

    @given(seed=st.integers(0, 500))
    def test_matches_synthesize(self, pack_state, seed):
        rng = np.random.default_rng(seed)
        cat = ConstituentCatalog(
            (Constituent("A", 0.23), Constituent("B", 0.51), Constituent("C", 1.93))
        )
        solution = HarmonicSolution(
            0.0, 0.0, rng.uniform(0, 2, 3), rng.uniform(0, TWO_PI, 3), cat
        )
        times = np.sort(rng.uniform(0.0, 200.0, 40))
        direct = synthesize(solution, times)
        via_matrix = build_design_matrix(times, cat) @ pack_state(solution)
        scale = np.abs(direct).max() + 1.0
        assert np.allclose(via_matrix, direct, atol=1e-12 * scale)


class TestRegime:
    def test_boundary(self):
        assert classify_regime(74, 37) == OVERDETERMINED
        assert classify_regime(73, 37) == UNDERDETERMINED
        assert classify_regime(0, 1) == UNDERDETERMINED


class TestPreparedRecord:
    @pytest.mark.parametrize("offset", [-73, -1, 0, 1, 2, 5000 - 74])
    def test_compressed_misfit_equals_raw_misfit(self, catalog, offset):
        m = 2 * catalog.n + offset  # 1, 2n-1, 2n, 2n+1, 2n+2, 5000
        rng = np.random.default_rng(m)
        times = np.sort(rng.uniform(0.0, 8766.0, m))
        heights = rng.normal(size=m)
        design = build_design_matrix(times, catalog)
        a, b, rest = compress_design(times, heights, catalog)
        if m <= 2 * catalog.n + 1:
            assert np.array_equal(a, design) and np.array_equal(b, heights) and rest == 0.0
        else:
            assert a.shape == (2 * catalog.n, 2 * catalog.n) and np.array_equal(a, np.triu(a))
        for _ in range(5):
            x = rng.normal(size=2 * catalog.n)
            raw = design @ x - heights
            compressed = a @ x - b
            assert compressed @ compressed + rest == pytest.approx(raw @ raw, rel=1e-10)

    def test_prepare_keeps_detrend_and_sample_count(self, hourly_year, catalog):
        record = prepare(hourly_year, catalog)
        _, mean, trend = detrend(hourly_year)
        assert (record.mean, record.trend) == (mean, trend)
        assert record.sample_count == len(hourly_year)
        assert record.time_reference == float(hourly_year.times.mean())
        assert record.a.shape == (2 * catalog.n, 2 * catalog.n)

    def test_prepare_rejects_a_single_sample(self, catalog):
        with pytest.raises(ValueError, match="at least 2"):
            prepare(WaterLevelSeries([0.0], [1.0]), catalog)

    def test_least_squares_computed_once_per_record(self, hourly_year, catalog, lstsq_calls):
        # prepare only compresses; the SVD runs on the first read, never again
        record = prepare(hourly_year, catalog)
        assert lstsq_calls == []
        x, rank = record.least_squares
        assert len(lstsq_calls) == 1
        assert rank == 2 * catalog.n
        assert record.least_squares[0] is x
        assert len(lstsq_calls) == 1
        assert np.array_equal(x, np.linalg.lstsq(record.a, record.b, rcond=RANK_RCOND)[0])
        assert not any(array.flags.writeable for array in (record.a, record.b, x))
        for name, value in (("least_squares", (x, rank)), ("a", record.a), ("rest", 0.0)):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        assert record.least_squares[0] is x


class TestGramPath:
    """compress_design takes the Cholesky factor of H^T H on a
    well-conditioned lattice record and dgeqrf otherwise; which one ran is
    seen by spying on design.dgeqrf.

    The hourly-year tests run three records: the evenly spaced year, whose
    H^T H has a closed form; the year with a seeded 1% of its samples
    dropped, on the same lattice with gaps, whose H^T H is accumulated
    block by block from phasor tables; and the year with every time
    jittered off the lattice, whose filled [H | h] goes straight to dgeqrf.
    A spy on design._blocked_gram sees the second alone, and the dgeqrf
    spy the third alone."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return dgeqrf(*args, **kwargs)

        monkeypatch.setattr(design, "dgeqrf", spy)
        return calls

    @pytest.fixture
    def blocked_calls(self, monkeypatch):
        calls, blocked_gram = [], design._blocked_gram

        def spy(coarse, fine, k):
            calls.append(k.size)
            return blocked_gram(coarse, fine, k)

        monkeypatch.setattr(design, "_blocked_gram", spy)
        return calls

    @staticmethod
    def _kept(size):
        """The indices of size samples less a seeded 1% of them."""
        dropped = np.random.default_rng(17).choice(size, size // 100, replace=False)
        return np.delete(np.arange(size), dropped)

    @staticmethod
    def _jittered(times):
        """times each moved by a seeded draw of up to 0.01 h."""
        return times + np.random.default_rng(19).uniform(-0.01, 0.01, times.size)

    @pytest.fixture
    def hourly_years(self, hourly_year, truth):
        keep = self._kept(len(hourly_year))
        jittered = self._jittered(hourly_year.times)
        return (
            hourly_year,
            WaterLevelSeries(hourly_year.times[keep], hourly_year.heights[keep]),
            WaterLevelSeries(jittered, synthesize(truth, jittered)),
        )

    @staticmethod
    def _augmented(residual, catalog):
        return np.column_stack([build_design_matrix(residual.times, catalog), residual.heights])

    @staticmethod
    def _assert_dgeqrf_bit_for_bit(compressed, augmented, two_n):
        """compressed is a dgeqrf of the filled [H | h], bit for bit."""
        a, b, rest = compressed
        lwork, _ = dgeqrf_lwork(*augmented.shape)
        qr, _, _, info = dgeqrf(np.asfortranarray(augmented), lwork=int(lwork))
        assert info == 0
        assert np.array_equal(a, np.triu(qr[:two_n, :two_n]))
        assert np.array_equal(b, qr[:two_n, two_n])
        assert rest == qr[two_n, two_n] ** 2

    @pytest.mark.parametrize("interval, length, count, declines", [
        # aliases the semidiurnal band: cond(H) ~ 1e16, dpotrf fails
        pytest.param(12.0, 8766.0, None, True, id="12.0-8766.0"),
        # 30 days: dpotrf succeeds, dtrcon estimates cond(R) ~ 2e6
        pytest.param(1.0, 720.0, None, True, id="1.0-720.0"),
        # evenly spaced records long enough for the closed-form Gram
        pytest.param(12.0, None, 1463, True, id="even 12 h x 1463"),
        pytest.param(12.0, None, 2000, True, id="even 12 h x 2000"),
        pytest.param(24.0, None, 1100, True, id="even 24 h x 1100"),
        pytest.param(6.0, None, 4000, True, id="even 6 h x 4000"),
        pytest.param(23.934, None, 1500, True, id="even 23.934 h x 1500"),  # cond(R) >= 1e4
        pytest.param(0.5, None, 3000, False, id="even 0.5 h x 3000"),
        pytest.param(0.1, None, 20_000, False, id="even 0.1 h x 20000"),
    ])
    def test_ill_conditioned_record_falls_back_to_dgeqrf_bit_for_bit(
        self, base_series, truth, catalog, qr_calls, interval, length, count, declines
    ):
        """compress_design runs dgeqrf exactly when _cholesky_factor of the
        filled design's H^T H declines, and then equals a dgeqrf of the
        filled [H | h] bit for bit."""
        if count is None:
            record = resample(base_series, SamplingPlan(interval, length, seed=0))
        else:
            times = interval * np.arange(count)
            noise = 0.02 * np.random.default_rng(count).normal(size=count)
            record = WaterLevelSeries(times, synthesize(truth, times) + noise)
        residual, _, _ = detrend(record)
        compressed = compress_design(residual.times, residual.heights, catalog)
        augmented = self._augmented(residual, catalog)
        two_n = 2 * catalog.n
        factor = design._cholesky_factor(augmented[:, :two_n].T @ augmented[:, :two_n])
        assert (factor is None) == declines
        assert len(qr_calls) == declines
        if declines:
            self._assert_dgeqrf_bit_for_bit(compressed, augmented, two_n)
            return
        a, _, rest = compressed
        assert np.abs(a.T @ a - factor.T @ factor).max() < 1e-10 * count
        r = scipy.linalg.qr(augmented, mode="r")[0]
        assert rest == pytest.approx(r[two_n, two_n] ** 2, rel=1e-10)

    def test_off_lattice_record_goes_straight_to_dgeqrf_bit_for_bit(self, hourly_years, catalog, qr_calls):
        # the jittered year is well conditioned, but off every lattice
        residual, _, _ = detrend(hourly_years[2])
        compressed = compress_design(residual.times, residual.heights, catalog)
        assert qr_calls == [(len(residual), 2 * catalog.n + 1)]
        self._assert_dgeqrf_bit_for_bit(compressed, self._augmented(residual, catalog), 2 * catalog.n)

    @pytest.mark.parametrize("name", ["even 12 h x 1463", "declined gapped cut"])
    def test_declined_lattice_record_stops_at_the_verdict(self, truth, catalog, qr_calls, monkeypatch, name):
        """A lattice record whose Cholesky factor declines never solves with
        it (dtrtrs) nor forms H^T h (the einsum over the coarse table)."""
        if name == "even 12 h x 1463":
            times = 12.0 * np.arange(1463)
        else:
            # a 720-h cut at 0.491 h of a 6-min record: gaps of 4 or 5 steps
            times = np.round(np.arange(0.0, 720.0, 0.491) * 10) / 10
        heights = synthesize(truth, times)
        calls = []

        def spy_on(module, attribute):
            original = getattr(module, attribute)
            spy = lambda *args, **kwargs: calls.append(attribute) or original(*args, **kwargs)
            monkeypatch.setattr(module, attribute, spy)

        spy_on(design, "dtrtrs")
        spy_on(np, "einsum")
        step, k = design._lattice(times)
        assert (k[-1] == times.size - 1) == (name == "even 12 h x 1463")
        assert design._lattice_compress(times, heights, catalog.speeds, step, k) is None
        compress_design(times, heights, catalog)
        assert calls == [] and len(qr_calls) == 1
        # the spies do see an accepted record's solve
        compress_design(0.5 * np.arange(3000), synthesize(truth, 0.5 * np.arange(3000)), catalog)
        assert calls == ["einsum", "dtrtrs", "dtrtrs"] and len(qr_calls) == 1

    def test_hourly_year_takes_the_gram_path(self, hourly_years, catalog, qr_calls, blocked_calls):
        for year in hourly_years:
            record = prepare(year, catalog)
            assert np.array_equal(record.a, np.triu(record.a))
        assert qr_calls == [(len(hourly_years[2]), 2 * catalog.n + 1)]
        assert blocked_calls == [len(hourly_years[1])]

    def test_gram_rest_matches_qr_rest_on_noise_free_heights(self, hourly_years, catalog, qr_calls, blocked_calls):
        for year in hourly_years:
            residual, _, _ = detrend(year)
            _, _, rest = compress_design(residual.times, residual.heights, catalog)
            r = scipy.linalg.qr(self._augmented(residual, catalog), mode="r")[0]
            two_n = 2 * catalog.n
            assert rest == pytest.approx(r[two_n, two_n] ** 2, rel=1e-8)
        assert len(qr_calls) == 1
        assert blocked_calls == [len(hourly_years[1])]

    def test_gram_rest_survives_a_near_exact_fit(self, catalog, qr_calls, blocked_calls):
        # ||h||^2 - ||Q^T h||^2 would cancel to ~1e-4 relative error here
        rng = np.random.default_rng(5)
        even = np.arange(0.0, 8766.0, 1.0)
        for times in (even, even[self._kept(even.size)], self._jittered(even)):
            design_matrix = build_design_matrix(times, catalog)
            heights = design_matrix @ rng.normal(size=2 * catalog.n) + 1e-6 * rng.normal(size=times.size)
            _, _, rest = compress_design(times, heights, catalog)
            r = scipy.linalg.qr(np.column_stack([design_matrix, heights]), mode="r")[0]
            two_n = 2 * catalog.n
            assert rest == pytest.approx(r[two_n, two_n] ** 2, rel=1e-8)
        assert len(qr_calls) == 1
        assert blocked_calls == [even.size - even.size // 100]

    def test_gram_ha_amplitudes_match_a_qr_of_the_full_design(self, hourly_years, catalog, qr_calls, blocked_calls):
        for year in hourly_years:
            amplitudes = ha_fit(year, catalog).solution.amplitudes
            residual, _, _ = detrend(year)
            r = scipy.linalg.qr(self._augmented(residual, catalog), mode="r")[0]
            two_n = 2 * catalog.n
            x, _, _, _ = np.linalg.lstsq(r[:two_n, :two_n], r[:two_n, two_n], rcond=RANK_RCOND)
            expected, _ = unpack_state(x, catalog)
            assert np.abs(amplitudes - expected).max() < 1e-9
        assert len(qr_calls) == 1
        assert blocked_calls == [len(hourly_years[1])]


def exact_fill(times, catalog):
    """cos/sin(w t) of the stored times and speeds in np.longdouble."""
    arg = np.multiply.outer(times.astype(np.longdouble), catalog.speeds.astype(np.longdouble))
    return np.hstack([np.cos(arg), np.sin(arg)])


def rotation_error_bound(times, catalog):
    """How far angle addition may stray from cos/sin(w t): w_max times the
    check's tolerance on a time, plus the rounding of the anchor's w t_s
    and of the table's w j d, plus that of the product."""
    eps = np.finfo(float).eps
    span = catalog.speeds.max() * np.abs(times).max()
    return (design._SPACING_ULPS + 2) * eps * span + 8 * eps


class TestLatticeCheck:
    """_lattice accepts a record of at least _LATTICE_MIN_SAMPLES times on
    one integer lattice t_0 + k_j d and returns (d, k). compress_design
    then forms H^T H in closed form when k_j = j, seen by a spy on
    design._lattice_gram, and block by block otherwise, seen by a spy on
    design._blocked_gram. Every other record gets None and is left to the
    sin/cos fill, with neither spy called."""

    BLOCK = design._LATTICE_BLOCK
    CUT_OFF = design._LATTICE_MIN_SAMPLES

    @staticmethod
    def _even(times, step):
        return times, step, np.arange(times.size)

    @staticmethod
    def _dropped():
        # an hourly year less a seeded 5% of its samples, some in runs
        dropped = np.random.default_rng(29).choice(8785, 439, replace=False)
        kept = np.delete(np.arange(8785), np.concatenate([dropped, np.arange(4000, 4030)]))
        return 1.0 * kept, 1.0, kept

    @staticmethod
    def _cut(interval):
        # nearest picks from a 6-min record: gaps of q or q + 1 of its steps
        k = np.round(np.arange(0.0, 8784.0, interval) * 10).astype(int)
        return k / 10, 0.1, k

    @staticmethod
    def _shifted_block():
        # every block is evenly spaced at 1 h, but the gaps of 1.5 and 0.5
        # around the second block put it on the half hours: one lattice
        # at d = 0.5 h with gaps of 2, 3 and 1 steps
        k = 2 * np.arange(17 * design._LATTICE_BLOCK)
        k[design._LATTICE_BLOCK : 2 * design._LATTICE_BLOCK] += 1
        return 0.5 * k, 0.5, k

    ACCEPTED = {
        "hourly year": lambda: TestLatticeCheck._even(1.0 * np.arange(8785), 1.0),
        # hours as the gauge reader forms them from 6-min stamps
        "6-min stamps": lambda: TestLatticeCheck._even((np.arange(20_000) * 360_000_000) / 1e6 / 3600.0, 0.1),
        # a 0.2-h cut of the experiment's 6-min base record
        "0.2-h cut": lambda: TestLatticeCheck._even(np.arange(0.0, 9223.3, 0.1)[1234 : 1234 + 2 * 22_000 : 2], 0.2),
        "at the cut-off": lambda: TestLatticeCheck._even(0.5 * np.arange(TestLatticeCheck.CUT_OFF), 0.5),
        "one sample past whole blocks": lambda: TestLatticeCheck._even(3.0 * np.arange(4 * TestLatticeCheck.BLOCK + 1), 3.0),
        "negative, decreasing times": lambda: TestLatticeCheck._even(-100.0 - 0.25 * np.arange(3000), -0.25),
        "1.206-h cut of a 6-min record": lambda: TestLatticeCheck._cut(1.206),
        "hourly year with dropped samples": lambda: TestLatticeCheck._dropped(),
        "blocks off one lattice": lambda: TestLatticeCheck._shifted_block(),
    }

    @staticmethod
    def _jittered(index):
        times = 1.0 * np.arange(8785)
        times[index] += 2 * design._SPACING_ULPS * np.spacing(times[-1])
        return times

    @staticmethod
    def _nan_time():
        times = 1.0 * np.arange(4000)
        times[3999] = np.nan
        return times

    DECLINED = {
        "irregular": lambda: np.sort(np.random.default_rng(3).uniform(0.0, 8784.0, 5000)),
        "jittered past the tolerance": lambda: TestLatticeCheck._jittered(5000),
        "jittered in the last, partial block": lambda: TestLatticeCheck._jittered(8783),
        "short": lambda: 0.5 * np.arange(TestLatticeCheck.CUT_OFF - 1),
        "a NaN time": lambda: TestLatticeCheck._nan_time(),
        # an hourly year with gaps of 41 to 60 h: past _LATTICE_MAX_STRIDE
        "sparser than the stride cut-off": lambda: 1.0 * np.cumsum(np.random.default_rng(5).integers(41, 61, 1500)),
    }

    @pytest.mark.parametrize("name", [*ACCEPTED, *DECLINED])
    def test_lattice_check(self, catalog, monkeypatch, name):
        grams = []
        for spied in ("_lattice_gram", "_blocked_gram"):
            original = getattr(design, spied)
            monkeypatch.setattr(design, spied, lambda *args, _f=original, _n=spied: grams.append(_n) or _f(*args))
        if name in self.ACCEPTED:
            times, step, k = self.ACCEPTED[name]()
        else:
            times = self.DECLINED[name]()
        heights = np.random.default_rng(7).normal(size=times.size)
        lattice = design._lattice(times)
        compress_design(times, heights, catalog)
        if name in self.ACCEPTED:
            assert lattice[0] == pytest.approx(step, rel=1e-12)
            assert np.array_equal(lattice[1], k)
            assert grams == ["_lattice_gram" if k[-1] == times.size - 1 else "_blocked_gram"]
        else:
            assert lattice is None
            assert grams == []


    def test_lattice_check_of_a_6_min_year_stays_small(self):
        times = 0.1 * np.arange(87_841)
        design._lattice(times)
        tracemalloc.start()
        try:
            design._lattice(times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # three arrays of m numbers: the offsets, the rounded k and its
        # integers (2.1 MB); the gaps and their changes are gone by then
        assert peak < 2.5e6


class TestLatticeGram:
    """compress_design of an evenly spaced record forms H^T H from the
    closed-form Dirichlet sums of design._lattice_sums, and that of a
    record with gaps on an integer lattice accumulates it block by block
    from phasor tables (design._blocked_gram). Neither builds H."""

    @given(
        start=st.floats(-1e4, 1e4),
        step=st.floats(1e-3, 50.0),
        extra=st.integers(0, 2 * design._LATTICE_BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_lattice_keeps_the_misfit_identity(self, catalog, start, step, extra, seed):
        rng = np.random.default_rng(seed)
        times = start + step * np.arange(design._LATTICE_MIN_SAMPLES + extra)
        heights = rng.normal(size=times.size)
        a, b, rest = compress_design(times, heights, catalog)
        exact = exact_fill(times, catalog)
        tolerance = times.size * rotation_error_bound(times, catalog)
        assert np.abs(a.T @ a - (exact.T @ exact).astype(float)).max() <= tolerance
        for _ in range(3):
            x = rng.normal(size=2 * catalog.n)
            raw = exact @ x - heights
            compressed = a @ x - b
            assert compressed @ compressed + rest == pytest.approx(float(raw @ raw), rel=1e-10)

    @given(
        start=st.floats(-1e4, 1e4),
        step=st.floats(1e-3, 50.0),
        shortest=st.integers(1, 8),
        spread=st.integers(1, 4),
        extra=st.integers(0, 2 * design._LATTICE_BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_gapped_lattice_keeps_the_misfit_identity(self, catalog, start, step, shortest, spread, extra, seed):
        rng = np.random.default_rng(seed)
        gaps = rng.integers(shortest, shortest + spread + 1, design._LATTICE_MIN_SAMPLES + extra - 1)
        times = start + step * np.concatenate([[0], np.cumsum(gaps)])
        heights = rng.normal(size=times.size)
        a, b, rest = compress_design(times, heights, catalog)
        exact = exact_fill(times, catalog)
        tolerance = times.size * rotation_error_bound(times, catalog)
        assert np.abs(a.T @ a - (exact.T @ exact).astype(float)).max() <= tolerance
        for _ in range(3):
            x = rng.normal(size=2 * catalog.n)
            raw = exact @ x - heights
            compressed = a @ x - b
            assert compressed @ compressed + rest == pytest.approx(float(raw @ raw), rel=1e-10)

    def test_blocks_off_one_lattice_keep_the_dsyrk_gram(self, catalog, monkeypatch):
        # the closed form would get this record wrong: it is one lattice
        # at half the spacing of its blocks, so its Gram is accumulated by
        # dsyrk block by block
        grams = []
        for spied in ("_lattice_gram", "_blocked_gram"):
            original = getattr(design, spied)
            monkeypatch.setattr(design, spied, lambda *args, _f=original, _n=spied: grams.append(_n) or _f(*args))
        times, _, _ = TestLatticeCheck.ACCEPTED["blocks off one lattice"]()
        rng = np.random.default_rng(23)
        heights = rng.normal(size=times.size)
        a, b, rest = compress_design(times, heights, catalog)
        assert grams == ["_blocked_gram"]
        exact = exact_fill(times, catalog)
        for _ in range(3):
            x = rng.normal(size=2 * catalog.n)
            raw = exact @ x - heights
            compressed = a @ x - b
            assert compressed @ compressed + rest == pytest.approx(float(raw @ raw), rel=1e-10)

    @pytest.mark.parametrize("step, start, count", [
        (12.0, 37.0, 1463),  # count - 1 even
        (0.1, -500.0, 20_000),  # count - 1 odd: the sign of an odd turn flips
        (23.934, 1000.0, 1500),
    ])
    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12])
    def test_dirichlet_sum_at_and_near_aliased_speeds(self, step, start, count, offset):
        # w step = 2 pi k (1 + offset): at offset 0 the quotient is 0 / 0
        # unless w step / 2 is reduced first
        omega = TWO_PI * np.arange(-3, 4) / step * (1.0 + offset)
        times = start + step * np.arange(count)
        sums = design._lattice_sums(omega, step, 0.5 * (times[0] + times[-1]), count)
        arg = np.multiply.outer(omega.astype(np.longdouble), start + step * np.arange(count, dtype=np.longdouble))
        direct = np.cos(arg).sum(axis=1).astype(float) + 1j * np.sin(arg).sum(axis=1).astype(float)
        eps = np.finfo(float).eps
        bound = 4 * eps * count * (np.abs(omega) * np.abs(times).max() + count)
        assert np.all(np.abs(sums - direct) <= bound)
        assert np.abs(sums).min() == pytest.approx(count, rel=1e-9)

    def test_prepare_of_a_6_min_year_stays_small(self, truth, catalog):
        series = WaterLevelSeries(0.1 * np.arange(87_841), synthesize(truth, 0.1 * np.arange(87_841)))
        prepare(series, catalog)
        tracemalloc.start()
        try:
            prepare(series, catalog)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 87 841 x 75 [H | h] alone would take 52.7 MB
        assert peak < 8e6

    def test_compress_of_a_gapped_cut_stays_small(self, catalog):
        # a 0.491-h cut of a 6-min year: gaps of 4 and 5 base steps
        times = np.round(np.arange(0.0, 8784.0, 0.491) * 10) / 10
        heights = np.random.default_rng(31).normal(size=times.size)
        compress_design(times, heights, catalog)
        tracemalloc.start()
        try:
            compress_design(times, heights, catalog)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < times.size * (2 * catalog.n + 1) * 8 / 4
