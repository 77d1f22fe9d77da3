"""The benchmark's workloads and how each is run, checked and traced.

A workload runs relsha the way a user does, through the in-process CLI
(``relsha.cli.main``): a grid workload is one ``relsha experiment`` call,
the fit-files workload one pass of ``relsha fit`` calls. The check then
repeats the same work through the public API, one call at a time, and
compares each fit with what the CLI wrote. With tracing on, a second
repeat is the traced run: each call into a module is a span.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relsha import cli, evaluation, ingest
from relsha.cha import GaugeHarmonics, cha_fit
from relsha.constituents import default_catalog_path, load_catalog
from relsha.design import build_design_matrix, classify_regime
from relsha.evaluation import MARK_INTERVALS, ErrorGrid, GridCell
from relsha.ha import RANK_RCOND, ha_fit
from relsha.regularized import RelshaConfig, relsha_fit
from relsha.series import SamplingPlan, apply_noise, detrend, resample, synthesize_series

from hostspeed import HostClock
from tracing import Tracer

CATALOG = default_catalog_path()
TRUTH = CATALOG.with_name("synthetic_truth.csv")
NEARBY = CATALOG.with_name("reference_nearby.csv")
OFFSHORE = CATALOG.with_name("reference_offshore.csv")
METHODS = ("ha", "cha", "relsha")
# relsha experiment's default spacing of the dense base record, in hours.
BASE_INTERVAL = 0.1


@dataclass
class Fit:
    """One method fitted to one record, as the check saw it."""

    key: str
    method: str
    samples: int = 0
    rrmse: float | None = None
    seconds: float = 0.0
    iterations: int = 0
    restarts: int = 0
    converged: bool = True
    rank_deficient: bool = False
    unidentifiable: bool = False
    solution: object = None
    failure: str | None = None


@dataclass
class Pass:
    """One untraced run of a workload: wall seconds, and the same
    rescaled to the reference host speed (see hostspeed.py)."""

    seconds: float
    rescaled: float
    digest: str = ""
    fit_seconds: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


@dataclass
class Check:
    """What the check found: every fit and its failure if any, the
    records it fitted (for the traced probe calls), missing grid cells,
    and the bytes one run reads and writes."""

    fits: list[Fit]
    records: list[tuple[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    missing: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def fail(self, reason: str, keys=None) -> None:
        self.notes.append(reason)
        for fit in self.fits:
            if (keys is None or fit.key in keys) and fit.failure is None:
                fit.failure = reason


@dataclass
class Inputs:
    catalog: object
    truth: object
    reference: object
    ref_a: GaugeHarmonics
    ref_b: GaugeHarmonics


def load_inputs(tracer: Tracer) -> Inputs:
    """The catalog and harmonics files relsha experiment reads."""
    with tracer.span("constituents.load_catalog"):
        catalog = load_catalog(CATALOG)
    loaded = {}
    for name, path in (("truth", TRUTH), ("reference", NEARBY), ("ref_a", NEARBY), ("ref_b", OFFSHORE)):
        with tracer.span("ingest.load_harmonics"):
            loaded[name] = ingest.load_harmonics(path, catalog)[0]
    return Inputs(
        catalog,
        loaded["truth"],
        loaded["reference"],
        GaugeHarmonics(NEARBY.stem, loaded["ref_a"]),
        GaugeHarmonics(OFFSHORE.stem, loaded["ref_b"]),
    )


def fit_method(tracer: Tracer, method: str, series, inputs: Inputs, key: str, split: bool):
    """Fit one method through the public API inside a span.

    With ``split``, ReLSHA's public callback timestamps each BFGS
    iteration, which splits the fit into the part before the first
    iteration (detrend, design, start point) and the BFGS loop.
    """
    fit = Fit(key=key, method=method, samples=len(series))
    catalog = inputs.catalog
    if method == "ha":
        with tracer.span("ha.ha_fit", key) as span:
            result = ha_fit(series, catalog)
        fit.rank_deficient = result.rank < min(len(series), 2 * catalog.n)
    elif method == "cha":
        with tracer.span("cha.cha_fit", key) as span:
            result = cha_fit(series, inputs.ref_a, inputs.ref_b, catalog)
        fit.unidentifiable = not result.identifiable
    else:
        ticks: list[float] = []
        callback = (lambda _x: ticks.append(time.perf_counter())) if split else None
        with tracer.span("regularized.relsha_fit", key) as span:
            result = relsha_fit(series, inputs.reference.amplitudes, catalog, RelshaConfig(), callback)
            if ticks:
                tracer.record("regularized.to_first_iteration", span["start"], ticks[0], key)
                tracer.record("regularized.bfgs", ticks[0], ticks[-1], key)
        d = result.diagnostics
        fit.iterations, fit.restarts, fit.converged = d.iterations, d.restarts, d.converged
    fit.seconds = span["end"] - span["start"]
    fit.solution = result.solution
    fit.rrmse = evaluation.rrmse(result.solution.amplitudes, inputs.truth.amplitudes)
    return fit


def probe(tracer: Tracer, records, catalog) -> None:
    """Time the stages a fit runs internally by calling them directly on
    each fitted record: detrend, the design matrix, and the SVD solve."""
    for key, series in records:
        with tracer.span("series.detrend", key):
            residual, _, _ = detrend(series)
        with tracer.span("design.build_design_matrix", key):
            design = build_design_matrix(residual.times, catalog)
        with tracer.span("ha.factor", key):
            np.linalg.lstsq(design, residual.heights, rcond=RANK_RCOND)


def same_number(text: str, value: float) -> bool:
    """A CSV number equals a recomputed one at the CLI's 9 digits."""
    return text == ingest.format_number(value) or math.isclose(float(text), value, rel_tol=1e-8)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_grid(path: Path) -> dict[tuple[str, str, str], dict[str, str]]:
    """Grid CSV rows by (interval, length, method), fields by header name."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[(row["interval_hours"], row["length_hours"], row["method"])] = row
    return rows


@dataclass(frozen=True)
class GridWorkload:
    """One ``relsha experiment`` call over an interval x length lattice."""

    name: str
    intervals: tuple[float, ...]
    lengths: tuple[float, ...]
    threads: int = 1
    # Intervals at which ReLSHA's median RRMSE must beat HA's.
    beat_marks: tuple[float, ...] = ()

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> None:
        load_inputs(tracer)

    def _argv(self, work: Path, seed: int, threads: int) -> list[str]:
        return [
            "experiment",
            "--output", str(work / f"grid_t{threads}.csv"),
            "--intervals", ",".join(repr(v) for v in self.intervals),
            "--lengths", ",".join(repr(v) for v in self.lengths),
            "--seed", str(seed),
            "--threads", str(threads),
        ]

    def _outputs(self, work: Path, threads: int) -> list[Path]:
        return sorted(work.glob(f"grid_t{threads}*.csv"))

    def warm_up(self, work: Path, seed: int) -> None:
        """A two-cell lattice: one record at each end of the cadence range."""
        cli.main([
            "experiment", "--output", str(work / "warm_up.csv"),
            "--intervals", f"{self.intervals[0]!r},{self.intervals[-1]!r}",
            "--lengths", repr(self.lengths[0]),
            "--seed", str(seed), "--threads", str(self.threads),
        ])

    def run_once(self, work: Path, seed: int, clock: HostClock) -> Pass:
        argv = self._argv(work, seed, self.threads)
        code, seconds, rescaled = clock.time(cli.main, argv, probe_inside=self.threads == 1)
        run = Pass(seconds, rescaled, digest(self._outputs(work, self.threads)))
        if code != 0:
            run.failures["*"] = f"relsha experiment exited with {code}"
        return run

    def _base(self, inputs: Inputs):
        """relsha experiment's dense base record, 5% longer than the longest cut."""
        times = np.arange(0.0, 1.05 * max(self.lengths) + BASE_INTERVAL / 2, BASE_INTERVAL)
        return synthesize_series(inputs.truth, times)

    def repeat(self, work: Path, seed: int, tracer: Tracer, split: bool) -> Check:
        """What relsha experiment does, one public call per span."""
        with tracer.span("cli.experiment", self.name):
            inputs = load_inputs(tracer)
            with tracer.span("series.synthesize"):
                base = self._base(inputs)
            fits, records, cells = [], [], {}
            for i, interval in enumerate(self.intervals):
                for j, length in enumerate(self.lengths):
                    cell = f"{interval:g}h/{length:g}h"
                    with tracer.span("evaluation.cell", cell):
                        self._cell(tracer, inputs, base, seed, i, j, cell, split, fits, records, cells)
            grid = ErrorGrid(self.intervals, self.lengths, METHODS, cells)
            with tracer.span("evaluation.grid_to_text"):
                evaluation.grid_to_text(grid)
            for mark, _ in MARK_INTERVALS:
                if mark in self.intervals:
                    with tracer.span("evaluation.slice_to_text"):
                        evaluation.slice_to_text(evaluation.interval_slice(grid, mark))
        return Check(fits, records)

    def check(self, work: Path, seed: int, runs: list[Pass], tracer: Tracer) -> Check:
        result = self.repeat(work, seed, tracer, split=False)
        for run in runs:
            for reason in run.failures.values():
                result.fail(reason)
        if len({run.digest for run in runs}) != 1:
            result.fail("grid files differ between repeat runs with one seed")
        csv = work / f"grid_t{self.threads}.csv"
        rows = read_grid(csv) if csv.exists() else {}
        self._compare(result, rows)
        self._beat_marks(result, rows)
        if self.threads != 1:
            code = cli.main(self._argv(work, seed, 1))
            serial = [p.read_bytes() for p in self._outputs(work, 1)]
            if code != 0 or serial != [p.read_bytes() for p in self._outputs(work, self.threads)]:
                result.fail(f"--threads {self.threads} grid differs from --threads 1")
        result.bytes_read = sum(p.stat().st_size for p in (CATALOG, TRUTH, NEARBY, NEARBY, OFFSHORE))
        result.bytes_written = sum(p.stat().st_size for p in self._outputs(work, self.threads))
        return result

    def _cell(self, tracer, inputs, base, seed, i, j, cell, split, fits, records, cells) -> None:
        interval, length = self.intervals[i], self.lengths[j]
        n = inputs.catalog.n
        try:
            with tracer.span("series.resample", cell):
                sampled = resample(base, SamplingPlan(interval, length, seed=evaluation.cell_seed(seed, i, j)))
        except ValueError as exc:
            for method in METHODS:
                fits.append(Fit(f"{cell}/{method}", method, failure=f"resample failed: {exc}"))
                cells[(i, j, method)] = GridCell(interval, length, method, 0, classify_regime(0, n), None)
            return
        records.append((cell, sampled))
        for method in METHODS:
            key = f"{cell}/{method}"
            try:
                fit = fit_method(tracer, method, sampled, inputs, key, split)
            except Exception as exc:  # run_grid records a fit that raises as a missing cell
                fit = Fit(key, method, len(sampled), failure=f"{method} fit raised: {exc}")
            fits.append(fit)
            cells[(i, j, method)] = GridCell(
                interval, length, method, len(sampled), classify_regime(len(sampled), n), fit.rrmse
            )

    def _compare(self, result: Check, rows) -> None:
        """Each fit's RRMSE equals the CLI's grid cell; a cell without an
        RRMSE is missing."""
        by_key = {}
        for interval in self.intervals:
            for length in self.lengths:
                for method in METHODS:
                    key = (ingest.format_number(interval), ingest.format_number(length), method)
                    by_key[f"{interval:g}h/{length:g}h/{method}"] = rows.get(key)
        missing = 0
        for fit in result.fits:
            row = by_key[fit.key]
            if row is None or not row["rrmse_percent"]:
                missing += 1
                fit.failure = fit.failure or "cell missing from the grid CSV"
            elif fit.failure is None and (
                int(row["sample_count"]) != fit.samples or not same_number(row["rrmse_percent"], fit.rrmse)
            ):
                fit.failure = "grid CSV cell differs from the public-API fit"
        result.missing = missing

    def _beat_marks(self, result: Check, rows) -> None:
        for mark in self.beat_marks:
            label = ingest.format_number(mark)
            medians = {}
            for method in ("ha", "relsha"):
                values = [
                    float(r["rrmse_percent"]) for (iv, _, m), r in rows.items()
                    if iv == label and m == method and r["rrmse_percent"]
                ]
                medians[method] = statistics.median(values) if values else math.inf
            if not medians["relsha"] < medians["ha"]:
                keys = {f.key for f in result.fits if f.key.startswith(f"{mark:g}h/")}
                result.fail(f"relsha median RRMSE does not beat ha at {mark:g} h", keys)

    def trace_extras(self, work: Path, seed: int, untraced: Tracer, traced: Tracer) -> dict[str, float]:
        """Layer times only grids have. run_grid's wall time minus the
        untraced repeat's cells is the grid runner's own cost: the thread
        pool, when it runs. Call it right after the untraced repeat, since
        the machine's speed drifts."""
        inputs = load_inputs(Tracer())
        base = self._base(inputs)
        start = time.perf_counter()
        evaluation.run_grid(
            base, inputs.truth.amplitudes, inputs.catalog, self.intervals, self.lengths,
            base_seed=seed, relsha_reference=inputs.reference.amplitudes,
            cha_ref_a=inputs.ref_a, cha_ref_b=inputs.ref_b, threads=self.threads,
        )
        run_grid_s = time.perf_counter() - start
        return {"evaluation.self.s": run_grid_s - untraced.total("evaluation.cell")}


@dataclass(frozen=True)
class FitFilesWorkload:
    """One pass of ``relsha fit`` calls: every method on every file.

    Set-up cuts one-year files at each cadence from a noisy 6-minute
    record, the way ``relsha synth`` then ``relsha resample`` would.
    """

    name: str
    cadences: tuple[tuple[str, float], ...]
    length: float
    noise: float

    def _input(self, work: Path, label: str) -> Path:
        return work / f"levels_{label}.csv"

    def _output(self, work: Path, label: str, method: str) -> Path:
        return work / f"solution_{label}_{method}.txt"

    def prepare(self, work: Path, seed: int, tracer: Tracer) -> None:
        with tracer.span("constituents.load_catalog"):
            catalog = load_catalog(CATALOG)
        with tracer.span("ingest.load_harmonics"):
            truth = ingest.load_harmonics(TRUTH, catalog)[0]
        times = np.arange(0.0, 1.05 * self.length + BASE_INTERVAL / 2, BASE_INTERVAL)
        with tracer.span("series.synthesize"):
            base = apply_noise(synthesize_series(truth, times), self.noise, seed=seed)
        for k, (label, cadence) in enumerate(self.cadences):
            with tracer.span("series.resample", label):
                cut = resample(base, SamplingPlan(cadence, self.length, seed=evaluation.cell_seed(seed, k, 0)))
            with tracer.span("ingest.water_levels_to_text", label):
                text = ingest.water_levels_to_text(cut)
            self._input(work, label).write_text(text, encoding="utf-8")

    def _argv(self, work: Path, label: str, method: str) -> list[str]:
        return [
            "fit", "--method", method,
            "--input", str(self._input(work, label)),
            "--output", str(self._output(work, label, method)),
            "--reference", str(NEARBY),
            "--reference-a", str(NEARBY),
            "--reference-b", str(OFFSHORE),
        ]

    def warm_up(self, work: Path, seed: int) -> None:
        """Every method once, on the second-densest file."""
        label = self.cadences[1][0]
        for method in METHODS:
            cli.main(self._argv(work, label, method))

    def run_once(self, work: Path, seed: int, clock: HostClock) -> Pass:
        run = Pass(0.0, 0.0)
        for label, _ in self.cadences:
            for method in METHODS:
                code, seconds, rescaled = clock.time(cli.main, self._argv(work, label, method))
                run.fit_seconds[f"{label}.{method}"] = seconds
                run.seconds += seconds
                run.rescaled += rescaled
                if code != 0:
                    run.failures[f"{label}/{method}"] = f"relsha fit exited with {code}"
        run.digest = digest(work.glob("solution_*.txt"))
        return run

    def repeat(self, work: Path, seed: int, tracer: Tracer, split: bool) -> Check:
        """What the pass of relsha fit calls does, one public call per span."""
        catalog = load_catalog(CATALOG)
        truth = ingest.load_harmonics(TRUTH, catalog)[0]
        fits, records = [], []
        for label, _ in self.cadences:
            for method in METHODS:
                key = f"{label}/{method}"
                try:
                    with tracer.span("cli.fit", key):
                        fit = self._fit(tracer, work, label, method, key, split, truth, records)
                except Exception as exc:  # a fit that raises is a failed fit, not a crashed benchmark
                    fit = Fit(key, method, failure=f"{method} fit raised: {exc}")
                fits.append(fit)
        return Check(fits, records)

    def check(self, work: Path, seed: int, runs: list[Pass], tracer: Tracer) -> Check:
        result = self.repeat(work, seed, tracer, split=False)
        catalog = load_catalog(CATALOG)
        for fit in result.fits:
            if fit.failure is None:
                self._compare(fit, catalog, work)
        for run in runs:
            for key, reason in run.failures.items():
                result.fail(reason, {key})
        if len({run.digest for run in runs}) != 1:
            result.fail("solution files differ between repeat runs with one seed")
        refs = {"ha": [], "cha": [NEARBY, OFFSHORE], "relsha": [NEARBY]}
        result.bytes_read = sum(
            p.stat().st_size
            for label, _ in self.cadences
            for method in METHODS
            for p in [CATALOG, self._input(work, label), *refs[method]]
        )
        result.bytes_written = sum(p.stat().st_size for p in work.glob("solution_*.txt"))
        return result

    def trace_extras(self, work: Path, seed: int, untraced: Tracer, traced: Tracer) -> dict[str, float]:
        """Set-up, traced too: it is where this workload synthesizes and
        resamples."""
        self.prepare(work, seed, traced)
        return {}

    def _fit(self, tracer, work, label, method, key, split, truth, records) -> Fit:
        """What ``relsha fit`` does, one public call per span."""
        with tracer.span("constituents.load_catalog", key):
            catalog = load_catalog(CATALOG)
        with tracer.span("ingest.load_water_levels", key):
            series = ingest.load_water_levels(self._input(work, label))

        def load(path):
            with tracer.span("ingest.load_harmonics", key):
                return ingest.load_harmonics(path, catalog)[0]

        inputs = Inputs(catalog, truth, None, None, None)
        if method == "relsha":
            inputs.reference = load(NEARBY)
        elif method == "cha":
            inputs.ref_a = GaugeHarmonics(NEARBY.stem, load(NEARBY))
            inputs.ref_b = GaugeHarmonics(OFFSHORE.stem, load(OFFSHORE))
        fit = fit_method(tracer, method, series, inputs, key, split)
        with tracer.span("ingest.solution_to_text", key):
            ingest.solution_to_text(fit.solution)
        if method == METHODS[0]:
            records.append((label, series))
        return fit

    def _compare(self, fit: Fit, catalog, work: Path) -> None:
        """The CLI's solution file holds the public-API fit's amplitudes."""
        label = fit.key.split("/")[0]
        try:
            written = ingest.load_harmonics(self._output(work, label, fit.method), catalog)[0]
        except (OSError, ValueError) as exc:
            fit.failure = f"solution file unreadable: {exc}"
            return
        if not all(same_number(ingest.format_number(w), a) for w, a in zip(written.amplitudes, fit.solution.amplitudes)):
            fit.failure = "solution file differs from the public-API fit"


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            "grid_sparse",
            intervals=(48.0, 237.6, 264.0),
            lengths=tuple(float(v) for v in evaluation.default_lengths()[::2]),
            beat_marks=(237.6, 264.0),
        ),
        FitFilesWorkload(
            "fit_files",
            cadences=(("6min", 0.1), ("1h", 1.0), ("12h", 12.0), ("9.9d", 237.6), ("11d", 264.0)),
            length=8784.0,
            noise=0.02,
        ),
        GridWorkload(
            "grid_mixed_t2",
            intervals=tuple(round(float(v), 3) for v in np.geomspace(0.2, 264.0, 9)),
            lengths=(720.0, 4752.0, 8784.0),
            threads=2,
        ),
    )
}
