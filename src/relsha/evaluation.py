"""Error metric and the sampling-interval by record-length experiment grid.

The grid runner mirrors the synthetic-data protocol: a densely sampled
base series is resampled per (interval, length) cell with a per-cell
seed, each requested method is fitted to the same resampled record, and
amplitude RRMSE against the known truth is recorded together with the
over/underdetermined regime of the cell. ReLSHA cells also record whether
the solver reached its gradient tolerance and how many iterations it ran,
so a stalled fit is flagged in the grid and slice files rather than
passed off as converged.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from .cha import GaugeHarmonics, GaugePair, cha_solve
from .constituents import ConstituentCatalog
from .design import classify_regime, prepare
from .ha import ha_solve
from .ingest import format_value
from .regularized import RelshaConfig, _check_reference, relsha_solve
from .series import SamplingPlan, WaterLevelSeries, resample

METHOD_HA = "ha"
METHOD_CHA = "cha"
METHOD_RELSHA = "relsha"
KNOWN_METHODS = (METHOD_HA, METHOD_CHA, METHOD_RELSHA)

# The grid marks singled out for slice exports: the densest gauge cadence
# and the revisit intervals of the two altimetry missions of interest.
MARK_INTERVALS = ((0.1, "6min"), (237.6, "9.9day"), (264.0, "11day"))
# Spacing in hours of the base record relsha experiment cuts: the 6-min mark.
BASE_INTERVAL = 0.1

# converged and iterations are ReLSHA's solver state, empty for HA and CHA.
GRID_COLUMNS = "interval_hours,length_hours,method,sample_count,regime,rrmse_percent,converged,iterations"


def rrmse(estimated, truth) -> float:
    """Relative root-mean-square amplitude error in percent.

    sqrt(mean((A_k - A_k,true)^2)) / sum(A_k,true) * 100. The denominator
    uses the truth amplitudes so the yardstick is fixed across methods.
    """
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.ndim != 1 or est.size == 0:
        raise ValueError(f"amplitude vectors must match, got {est.shape} vs {tru.shape}")
    denominator = float(tru.sum())
    if denominator <= 0:
        raise ValueError("RRMSE undefined: truth amplitudes sum to zero")
    return float(np.sqrt(np.mean((est - tru) ** 2)) / denominator * 100.0)


@dataclass(frozen=True)
class GridCell:
    interval: float
    length: float
    method: str
    sample_count: int | None  # None, with regime, when the cut itself failed
    regime: str | None
    rrmse_percent: float | None
    error: str | None = None
    converged: bool | None = None
    iterations: int | None = None


@dataclass(frozen=True)
class ErrorGrid:
    intervals: tuple[float, ...]
    lengths: tuple[float, ...]
    methods: tuple[str, ...]
    cells: dict[tuple[int, int, str], GridCell]

    def rows(self):
        """Cells in deterministic (interval, length, method) order."""
        for i in range(len(self.intervals)):
            for j in range(len(self.lengths)):
                for method in self.methods:
                    yield self.cells[(i, j, method)]


def default_intervals() -> np.ndarray:
    """Log-spaced sampling intervals from 12 minutes to 11 days, plus the
    exact 6-min / 9.9-day / 11-day marks."""
    lattice = np.geomspace(0.2, 264.0, 40)
    marks = np.array([mark for mark, _ in MARK_INTERVALS])
    return np.unique(np.concatenate([lattice, marks]))


def default_lengths() -> np.ndarray:
    """Record lengths from 30 to 366 days."""
    return np.linspace(720.0, 8784.0, 20)


def cell_seed(base_seed: int, interval_index: int, length_index: int) -> int:
    """Fixed per-cell seed mixing; keeps cells independent and reproducible."""
    ss = np.random.SeedSequence([int(base_seed), int(interval_index), int(length_index)])
    return int(ss.generate_state(1, np.uint64)[0])


@cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of numpy's and scipy's bundled
    OpenBLAS: numpy's is ILP64, with a ``64_`` suffix on its symbols.

    Only a library already loaded is opened (``RTLD_NOLOAD``). Any other
    BLAS (MKL, Accelerate, an ``openblas_``-named build) gives none.
    """
    controls = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = lib[f"scipy_openblas_get_num_threads{suffix}"]
                set_ = lib[f"scipy_openblas_set_num_threads{suffix}"]
            except (AttributeError, OSError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded bundled OpenBLAS on one thread.

    The grid's BLAS calls are small or skinny, and a second OpenBLAS
    thread costs them more than it gives. The count is global to the
    process, so the saved counts are put back on exit.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def run_grid(
    series: WaterLevelSeries,
    truth_amplitudes,
    catalog: ConstituentCatalog,
    intervals,
    lengths,
    methods=KNOWN_METHODS,
    base_seed: int = 0,
    relsha_reference=None,
    relsha_config: RelshaConfig = RelshaConfig(),
    cha_ref_a: GaugeHarmonics | None = None,
    cha_ref_b: GaugeHarmonics | None = None,
    threads: int = 1,
) -> ErrorGrid:
    """Evaluate each method on every (interval, length) cell.

    Each cell resamples the base series (a WaterLevelSeries or a
    SynthesizedSeries) once with its derived seed, prepares (detrends and
    factors) that record once, and runs all requested methods on it. A
    repeated method, interval or length, a bad prior or a misaligned
    gauge fails before the first cell; per-cell errors are recorded as
    missing cells (rrmse None plus the error message), never fabricated.
    Output is identical for any thread count. The cells run with each
    bundled OpenBLAS on one thread, its own and any pool worker's alike,
    and the old thread counts are restored on return.
    """
    truth = np.asarray(truth_amplitudes, dtype=float)
    methods = tuple(methods)
    for method in methods:
        if method not in KNOWN_METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {KNOWN_METHODS}")
    intervals = tuple(float(v) for v in np.asarray(intervals, dtype=float))
    lengths = tuple(float(v) for v in np.asarray(lengths, dtype=float))
    # a repeated value would write two rows under one key
    for name, values in (("method", methods), ("interval", intervals), ("length", lengths)):
        if len(set(values)) != len(values):
            raise ValueError(f"repeated {name} in {values}")
    solvers = {METHOD_HA: ha_solve}
    if METHOD_RELSHA in methods:
        if relsha_reference is None:
            raise ValueError("relsha requires reference amplitudes")
        _check_reference(relsha_reference, catalog)
        solvers[METHOD_RELSHA] = lambda record: relsha_solve(record, relsha_reference, relsha_config)
    if METHOD_CHA in methods:
        if cha_ref_a is None or cha_ref_b is None:
            raise ValueError("cha requires two reference gauges")
        pair = GaugePair(cha_ref_a, cha_ref_b, catalog)
        solvers[METHOD_CHA] = lambda record: cha_solve(record, pair)

    def evaluate(indices: tuple[int, int]) -> list[GridCell]:
        i, j = indices
        interval, length = intervals[i], lengths[j]
        base = GridCell(
            interval=interval,
            length=length,
            method="",
            sample_count=None,
            regime=None,
            rrmse_percent=None,
        )
        try:
            plan = SamplingPlan(interval, length, seed=cell_seed(base_seed, i, j))
            sampled = resample(series, plan)
            base = replace(
                base,
                sample_count=len(sampled),
                regime=classify_regime(len(sampled), catalog.n),
            )
            record = prepare(sampled, catalog)
        except Exception as exc:
            return [replace(base, method=m, error=str(exc)) for m in methods]
        out = []
        for method in methods:
            try:
                result = solvers[method](record)
                cell = replace(base, method=method, rrmse_percent=rrmse(result.solution.amplitudes, truth))
                if method == METHOD_RELSHA:
                    d = result.diagnostics
                    cell = replace(cell, converged=d.converged, iterations=d.iterations)
                out.append(cell)
            except Exception as exc:
                out.append(replace(base, method=method, error=str(exc)))
        return out

    coordinates = [(i, j) for i in range(len(intervals)) for j in range(len(lengths))]
    with _one_blas_thread():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(evaluate, coordinates))
        else:
            results = [evaluate(c) for c in coordinates]

    cells: dict[tuple[int, int, str], GridCell] = {}
    for (i, j), cell_list in zip(coordinates, results):
        for cell in cell_list:
            cells[(i, j, cell.method)] = cell
    return ErrorGrid(intervals=intervals, lengths=lengths, methods=methods, cells=cells)


def interval_slice(grid: ErrorGrid, interval: float) -> dict[str, list[GridCell]]:
    """Per-method error curves over record length at one sampling interval."""
    try:
        i = grid.intervals.index(float(interval))
    except ValueError:
        raise KeyError(f"interval {interval} not present in the grid") from None
    return {
        method: [grid.cells[(i, j, method)] for j in range(len(grid.lengths))]
        for method in grid.methods
    }


def _cell_row(cell: GridCell) -> str:
    fields = (cell.interval, cell.length, cell.method, cell.sample_count, cell.regime,
              cell.rrmse_percent, cell.converged, cell.iterations)
    return ",".join(map(format_value, fields))


def _cells_to_text(cells) -> str:
    return "".join(f"{line}\n" for line in [GRID_COLUMNS, *map(_cell_row, cells)])


def grid_to_text(grid: ErrorGrid) -> str:
    return _cells_to_text(grid.rows())


def slice_to_text(curves: dict[str, list[GridCell]]) -> str:
    return _cells_to_text(cell for cells in curves.values() for cell in cells)
