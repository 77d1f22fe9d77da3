
import numpy as np
import pytest
from hypothesis import given, strategies as st

from relsha import evaluation, regularized
from relsha.cha import GaugeHarmonics
from relsha.constituents import Constituent, ConstituentCatalog
from relsha.evaluation import (
    cell_seed,
    default_intervals,
    default_lengths,
    grid_to_text,
    interval_slice,
    rrmse,
    run_grid,
    slice_to_text,
)
from relsha.series import HarmonicSolution

YEAR = 8766.0


class TestRrmse:
    def test_perfect_estimate(self):
        assert rrmse([1.0, 0.5], [1.0, 0.5]) == 0.0

    def test_hand_value(self):
        # sqrt(0.5 * (0 + 1)) / (1 + 0) * 100
        assert rrmse([1.0, 1.0], [1.0, 0.0]) == pytest.approx(70.71067812, abs=1e-6)

    @given(scale=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, scale):
        est = np.array([0.3, 0.8, 0.1])
        tru = np.array([0.25, 0.9, 0.05])
        assert rrmse(scale * est, scale * tru) == pytest.approx(rrmse(est, tru), rel=1e-9)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="undefined"):
            rrmse([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            rrmse([1.0, 2.0], [1.0])


class TestRunGrid:
    def test_dense_ha_cell(self, base_series, truth, catalog):
        grid = run_grid(
            base_series, truth.amplitudes, catalog,
            intervals=[0.1], lengths=[YEAR], methods=("ha",), base_seed=3,
        )
        cell = grid.cells[(0, 0, "ha")]
        assert cell.regime == "overdetermined"
        assert cell.rrmse_percent is not None and cell.rrmse_percent < 0.1

    def test_jason_cell_is_underdetermined(self, base_series, truth, catalog):
        grid = run_grid(
            base_series, truth.amplitudes, catalog,
            intervals=[237.6], lengths=[YEAR], methods=("ha",),
        )
        cell = grid.cells[(0, 0, "ha")]
        assert cell.sample_count < 2 * catalog.n
        assert cell.regime == "underdetermined"

    def test_deterministic_across_runs_and_threads(self, base_series, truth, catalog,
                                                   reference_nearby, reference_offshore):
        kwargs = dict(
            intervals=[1.0, 237.6], lengths=[720.0, 2190.0],
            methods=("ha", "cha", "relsha"), base_seed=11,
            relsha_reference=reference_nearby.amplitudes,
            cha_ref_a=GaugeHarmonics("a", reference_nearby),
            cha_ref_b=GaugeHarmonics("b", reference_offshore),
        )
        first = run_grid(base_series, truth.amplitudes, catalog, threads=1, **kwargs)
        second = run_grid(base_series, truth.amplitudes, catalog, threads=1, **kwargs)
        threaded = run_grid(base_series, truth.amplitudes, catalog, threads=4, **kwargs)
        assert grid_to_text(first) == grid_to_text(second) == grid_to_text(threaded)

    def test_failed_cells_recorded_as_missing(self, base_series, truth, catalog, monkeypatch):
        def no_fit(record):
            raise ValueError("solve failed")

        monkeypatch.setattr(evaluation, "ha_solve", no_fit)
        # record_length below one interval violates the sampling plan, so
        # that cell has no samples; the other cell is cut, and its solve fails
        grid = run_grid(
            base_series, truth.amplitudes, catalog,
            intervals=[10.0], lengths=[5.0, 720.0], methods=("ha",),
        )
        assert [cell.error for cell in grid.rows()] == [
            "record_length must be at least one interval", "solve failed"
        ]
        assert grid_to_text(grid).splitlines()[1:] == [
            "10,5,ha,,,,,", "10,720,ha,73,underdetermined,,,"
        ]

    def test_requires_references_for_methods(self, base_series, truth, catalog):
        with pytest.raises(ValueError, match="reference amplitudes"):
            run_grid(base_series, truth.amplitudes, catalog,
                     intervals=[1.0], lengths=[720.0], methods=("relsha",))
        with pytest.raises(ValueError, match="two reference gauges"):
            run_grid(base_series, truth.amplitudes, catalog,
                     intervals=[1.0], lengths=[720.0], methods=("cha",))

    @pytest.mark.parametrize("method", ["relsha", "cha"])
    def test_bad_prior_fails_before_any_cell(self, base_series, truth, catalog, monkeypatch,
                                             reference_nearby, method):
        # run_grid records a cell's exception as a missing cell, so the
        # calls are counted rather than failed
        resampled = []
        monkeypatch.setattr(evaluation, "resample", lambda *args: resampled.append(args))
        other = ConstituentCatalog((Constituent("A", 1.0),))
        stranger = GaugeHarmonics("stranger", HarmonicSolution(0, 0, [1.0], [0.0], other))
        inputs = {
            "relsha": ({"relsha_reference": np.ones(5)}, "must have length 37, got 5"),
            "cha": ({"cha_ref_a": GaugeHarmonics("a", reference_nearby), "cha_ref_b": stranger},
                    "'stranger' is not aligned"),
        }
        kwargs, message = inputs[method]
        with pytest.raises(ValueError, match=message):
            run_grid(base_series, truth.amplitudes, catalog, intervals=[1.0], lengths=[720.0],
                     methods=("ha", method), **kwargs)
        assert resampled == []

    @pytest.mark.parametrize("intervals, lengths, message", [
        ([237.6, 237.6], [720.0], r"repeated interval in \(237.6, 237.6\)"),
        ([237.6], [720.0, 720.0], r"repeated length in \(720.0, 720.0\)"),
    ], ids=["interval", "length"])
    def test_repeated_interval_or_length_fails_before_any_cell(
        self, base_series, truth, catalog, monkeypatch, intervals, lengths, message
    ):
        # each would write two rows under one (interval, length, method) key
        resampled = []
        monkeypatch.setattr(evaluation, "resample", lambda *args: resampled.append(args))
        with pytest.raises(ValueError, match=message):
            run_grid(base_series, truth.amplitudes, catalog, intervals=intervals,
                     lengths=lengths, methods=("ha",))
        assert resampled == []

    def test_unknown_method_rejected(self, base_series, truth, catalog):
        for methods, message in [(("fourier",), "unknown method 'fourier'"),
                                 (("ha", "ha"), "repeated method")]:
            with pytest.raises(ValueError, match=message):
                run_grid(base_series, truth.amplitudes, catalog,
                         intervals=[1.0], lengths=[720.0], methods=methods)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_gauge_pair_per_grid(self, base_series, truth, catalog, monkeypatch,
                                     reference_nearby, reference_offshore, threads):
        pairs = []

        class CountedPair(evaluation.GaugePair):
            def __init__(self, *args):
                super().__init__(*args)
                pairs.append(self)

        monkeypatch.setattr(evaluation, "GaugePair", CountedPair)
        grid = run_grid(
            base_series, truth.amplitudes, catalog, intervals=[1.0, 237.6],
            lengths=[720.0, 2190.0], methods=("cha",), threads=threads,
            cha_ref_a=GaugeHarmonics("a", reference_nearby),
            cha_ref_b=GaugeHarmonics("b", reference_offshore),
        )
        assert len(pairs) == 1
        assert all(cell.rrmse_percent is not None for cell in grid.rows())

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("methods, solves", [(("cha",), 0), (("ha", "relsha"), 1)])
    def test_least_squares_solved_once_per_record_that_reads_it(
        self, base_series, truth, catalog, lstsq_calls, reference_nearby, reference_offshore,
        methods, solves, threads,
    ):
        # CHA reads only the compressed misfit; HA and ReLSHA's start share one SVD
        grid = run_grid(
            base_series, truth.amplitudes, catalog, intervals=[1.0, 237.6],
            lengths=[720.0, 2190.0], methods=methods, threads=threads,
            relsha_reference=reference_nearby.amplitudes,
            cha_ref_a=GaugeHarmonics("a", reference_nearby),
            cha_ref_b=GaugeHarmonics("b", reference_offshore),
        )
        assert all(cell.rrmse_percent is not None for cell in grid.rows())
        assert len(lstsq_calls) == 4 * solves

    def test_all_methods_vanish_when_truth_is_gauge_a(self, catalog, reference_nearby,
                                                      reference_offshore):
        # the CHA references bracket the truth at w = 0, so every method
        # should drive its error toward zero on dense noiseless data
        import relsha

        base = relsha.synthesize_series(reference_nearby, np.arange(0.0, YEAR, 1.0))
        grid = run_grid(
            base, reference_nearby.amplitudes, catalog,
            intervals=[1.0], lengths=[YEAR - 1.0], methods=("ha", "cha", "relsha"),
            relsha_reference=reference_nearby.amplitudes,
            cha_ref_a=GaugeHarmonics("a", reference_nearby),
            cha_ref_b=GaugeHarmonics("b", reference_offshore),
        )
        for method in ("ha", "cha", "relsha"):
            cell = grid.cells[(0, 0, method)]
            assert cell.rrmse_percent is not None and cell.rrmse_percent < 0.5, method

    def test_regime_boundary_flips_at_twice_n(self, base_series, truth, catalog):
        # counts floor(8766/interval) + 1 straddling 74
        counts = np.arange(70, 79)
        intervals = [YEAR / (c - 1) * 0.9999 for c in counts]
        grid = run_grid(base_series, truth.amplitudes, catalog,
                        intervals=intervals, lengths=[YEAR], methods=("ha",))
        seen = set()
        for i in range(len(intervals)):
            cell = grid.cells[(i, 0, "ha")]
            expected = "underdetermined" if cell.sample_count < 74 else "overdetermined"
            assert cell.regime == expected
            seen.add(cell.regime)
        assert seen == {"underdetermined", "overdetermined"}


def blas_threads():
    return [get() for get, _ in evaluation._openblas_thread_controls()]


@pytest.fixture()
def blas_at_two_threads():
    """Each loaded bundled OpenBLAS at 2 threads, so that a restore to 1
    cannot pass unseen; the counts found are put back afterwards."""
    controls = evaluation._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled scipy-openblas library is loaded")
    saved = blas_threads()
    for _, set_ in controls:
        set_(2)
    yield [2] * len(controls)
    for (_, set_), count in zip(controls, saved):
        set_(count)


class TestBlasThreads:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_runs_on_one_thread_and_restores_the_counts(
        self, base_series, truth, catalog, monkeypatch, blas_at_two_threads, threads
    ):
        seen = []
        solve = evaluation.ha_solve

        def recording(record):
            seen.append(blas_threads())
            return solve(record)

        monkeypatch.setattr(evaluation, "ha_solve", recording)
        run_grid(base_series, truth.amplitudes, catalog, intervals=[1.0, 237.6],
                 lengths=[720.0, 2190.0], methods=("ha",), threads=threads)
        assert seen == [[1] * len(blas_at_two_threads)] * 4
        assert blas_threads() == blas_at_two_threads

    def test_counts_restored_when_an_interrupt_escapes(
        self, base_series, truth, catalog, monkeypatch, blas_at_two_threads
    ):
        def interrupted(record):
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluation, "ha_solve", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_grid(base_series, truth.amplitudes, catalog, intervals=[1.0],
                     lengths=[720.0], methods=("ha",))
        assert blas_threads() == blas_at_two_threads

    def test_grid_is_the_same_without_a_thread_control(
        self, base_series, truth, catalog, monkeypatch, reference_nearby, reference_offshore
    ):
        kwargs = dict(
            intervals=[1.0, 237.6], lengths=[720.0, 2190.0], base_seed=5,
            relsha_reference=reference_nearby.amplitudes,
            cha_ref_a=GaugeHarmonics("a", reference_nearby),
            cha_ref_b=GaugeHarmonics("b", reference_offshore),
        )
        pinned = grid_to_text(run_grid(base_series, truth.amplitudes, catalog, **kwargs))
        monkeypatch.setattr(evaluation, "_openblas_thread_controls", lambda: ())
        unpinned = grid_to_text(run_grid(base_series, truth.amplitudes, catalog, **kwargs))
        assert unpinned == pinned


@pytest.fixture(scope="module")
def small_grid(base_series, truth, catalog):
    return run_grid(
        base_series, truth.amplitudes, catalog,
        intervals=[50.0, 237.6], lengths=[720.0, 2190.0, 4383.0], methods=("ha",),
    )


class TestSlices:

    def test_slice_extracts_one_interval(self, small_grid):
        curves = interval_slice(small_grid, 237.6)
        assert set(curves) == {"ha"}
        assert [c.length for c in curves["ha"]] == [720.0, 2190.0, 4383.0]
        assert all(c.interval == 237.6 for c in curves["ha"])

    def test_slices_reassemble_grid(self, small_grid):
        rebuilt = []
        for interval in small_grid.intervals:
            for cells in interval_slice(small_grid, interval).values():
                rebuilt.extend(cells)
        assert sorted(rebuilt, key=lambda c: (c.interval, c.length, c.method)) == sorted(
            small_grid.rows(), key=lambda c: (c.interval, c.length, c.method)
        )

    def test_absent_interval(self, small_grid):
        with pytest.raises(KeyError, match="not present"):
            interval_slice(small_grid, 99.0)

    def test_empty_method_grid(self, base_series, truth, catalog):
        grid = run_grid(base_series, truth.amplitudes, catalog,
                        intervals=[50.0], lengths=[720.0], methods=())
        assert interval_slice(grid, 50.0) == {}


class TestExport:
    def test_grid_text_schema(self, base_series, truth, catalog):
        grid = run_grid(base_series, truth.amplitudes, catalog,
                        intervals=[50.0], lengths=[720.0], methods=("ha",))
        text = grid_to_text(grid)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "interval_hours,length_hours,method,sample_count,regime,rrmse_percent,"
            "converged,iterations"
        )
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[2] == "ha"
        assert fields[4] in ("overdetermined", "underdetermined")
        float(fields[5])  # parses
        assert fields[6:] == ["", ""]  # solver state is ReLSHA's only

    def test_relsha_solver_state_in_grid_and_slice(self, base_series, truth, catalog, monkeypatch):
        def grid_rows():
            grid = run_grid(base_series, truth.amplitudes, catalog, intervals=[264.0],
                            lengths=[8784.0], methods=("ha", "relsha"),
                            relsha_reference=truth.amplitudes)
            rows = [line.split(",") for line in grid_to_text(grid).strip().split("\n")[1:]]
            assert slice_to_text(interval_slice(grid, 264.0)) == grid_to_text(grid)
            return {row[2]: row for row in rows}

        with monkeypatch.context() as patch:
            patch.setattr(regularized, "_MAX_ITERATIONS", 1)
            stopped = grid_rows()
        assert stopped["relsha"][6:] == ["false", "1"]
        assert stopped["ha"][6:] == ["", ""]
        assert stopped["relsha"][5]  # a stalled fit is flagged, not dropped
        converged = grid_rows()
        assert converged["relsha"][6] == "true"
        assert int(converged["relsha"][7]) > 1

    def test_missing_cell_rendered_empty(self, base_series, truth, catalog):
        grid = run_grid(base_series, truth.amplitudes, catalog,
                        intervals=[10.0], lengths=[5.0], methods=("ha",))
        line = grid_to_text(grid).strip().split("\n")[1]
        assert line.endswith(",")

    def test_slice_text_matches_grid_rows(self, base_series, truth, catalog):
        grid = run_grid(base_series, truth.amplitudes, catalog,
                        intervals=[50.0], lengths=[720.0, 2190.0], methods=("ha",))
        text = slice_to_text(interval_slice(grid, 50.0))
        assert text.startswith("interval_hours")
        assert len(text.strip().split("\n")) == 3


class TestSeeds:
    def test_cell_seed_is_stable_and_distinct(self):
        assert cell_seed(0, 1, 2) == cell_seed(0, 1, 2)
        assert cell_seed(0, 1, 2) != cell_seed(0, 2, 1)
        assert cell_seed(0, 1, 2) != cell_seed(1, 1, 2)

    def test_default_lattice_covers_marks(self):
        intervals = default_intervals()
        for mark in (0.1, 237.6, 264.0):
            assert mark in intervals
        assert intervals.min() == 0.1 and intervals.max() == 264.0
        lengths = default_lengths()
        assert lengths.min() == 720.0 and lengths.max() == 8784.0
        assert lengths.size == 20
