"""relsha benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a relsha checkout; the package is imported from
``src/`` there, never from an installed copy:

    python3 perfbench/run.py --workload grid_sparse --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from a separate traced repeat of the same work. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people, with run counts and machine facts.

``--full-lattice`` runs the default 42 x 20 ``relsha experiment --threads 1``
lattice once instead (several minutes; no workload, never run by checks).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch files of a run, removed at its end; span files are kept here.
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3


def import_relsha() -> None:
    """Import relsha from this checkout's src/, or exit without a result."""
    init = SRC / "relsha" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a relsha checkout")
    sys.path.insert(0, str(SRC))
    import relsha

    if Path(relsha.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: relsha was imported from {relsha.__file__}, not {init}")


def import_in_fresh_interpreter() -> None:
    """What every CLI call pays first: a new interpreter importing relsha."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import relsha.cli"], cwd=ROOT, env=env, check=True)


def machine_facts() -> dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return int(get())
    return None


def median(values) -> float:
    return float(statistics.median(values))


def spread_line(name: str, values, unit: str) -> str:
    """Median plus the highest percentile with at least ten runs beyond it."""
    values = sorted(values)
    n = len(values)
    tail = "no percentile has 10 runs beyond it (" + " ".join(f"{v:.4g}" for v in values) + ")"
    if n >= 11:
        tail = f"p{100 * (n - 10) // n} {values[n - 11]:.6g} {unit}"
    return f"{name}: median {median(values):.6g} {unit}, {tail}, n={n}"


def metrics_from(values: dict[str, tuple[float, str]]) -> dict[str, dict]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# The end-to-end metrics of BENCHMARK.json. Their times are rescaled to
# the reference host speed (hostspeed.py); the raw wall_s is printed. The
# other end-to-end figures a run prints (fit_ms.max, failed_frac,
# converged_frac, nonconverged_frac and the RRMSE medians) move too much
# from seed to seed to hold a bound; the traced run reports them with the
# per-layer metrics.
BOUNDED = ("wall_rescaled_s", "setup_s", "peak_rss_mb", "ok_frac")


def end_to_end(runs, check, setups, peak_rss_mb) -> dict[str, tuple[float, str]]:
    fits = check.fits
    failed = sum(fit.failure is not None for fit in fits)
    relsha = [f for f in fits if f.method == "relsha" and f.samples]
    converged = sum(f.converged for f in relsha) / max(len(relsha), 1)
    if runs[0].fit_seconds:
        slowest = median(max(run.fit_seconds.values()) for run in runs)
    else:
        slowest = max(f.seconds for f in fits)

    def rrmse_p50(method):
        return median([f.rrmse for f in fits if f.method == method and f.rrmse is not None] or [math.nan])

    return {
        "wall_rescaled_s": (median(run.rescaled for run in runs), "s"),
        "setup_s": (median(setups), "s"),
        "wall_s": (median(run.seconds for run in runs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - failed / len(fits), "ratio"),
        "converged_frac": (converged, "ratio"),
        "failed_frac": (failed / len(fits), "ratio"),
        "nonconverged_frac": (1 - converged, "ratio"),
        "fit_ms.max": (1000 * slowest, "ms"),
        "rrmse_pct.ha.p50": (rrmse_p50("ha"), "%"),
        "rrmse_pct.cha.p50": (rrmse_p50("cha"), "%"),
        "rrmse_pct.relsha.p50": (rrmse_p50("relsha"), "%"),
    }


def root_time(tracer) -> float:
    """Duration of the repeat's top spans: the CLI calls it stands for."""
    roots = tracer.roots("cli.experiment") + tracer.roots("cli.fit")
    return sum(tracer.spans[i]["end"] - tracer.spans[i]["start"] for i in roots)


def per_layer(tracer, untraced, check, e2e, catalog_n: int) -> dict[str, tuple[float, str]]:
    """Layer times from the traced repeat; counts from the check."""
    total = tracer.total
    wall_s = e2e["wall_s"][0]

    def fits(method):
        return [f for f in check.fits if f.method == method and f.samples]

    relsha = fits("relsha")
    iterations = [f.iterations for f in relsha] or [0]
    # The bfgs span runs from the first iteration's callback to the last.
    bfgs_iterations = sum(max(i - 1, 0) for i in iterations)
    samples = sum(len(series) for _, series in check.records)
    return {
        "series.resample.s": (total("series.resample"), "s"),
        "series.resample.calls": (len(tracer.durations("series.resample")), "count"),
        "series.samples": (samples, "count"),
        "series.synthesize.s": (total("series.synthesize"), "s"),
        "series.detrend.s": (total("series.detrend"), "s"),
        "design.build_design_matrix.s": (total("design.build_design_matrix"), "s"),
        "design.bytes": (samples * 2 * catalog_n * 8, "B"),
        "ha.ha_fit.s": (total("ha.ha_fit"), "s"),
        "ha.factor.s": (total("ha.factor"), "s"),
        "ha.rank_deficient": (sum(f.rank_deficient for f in fits("ha")), "count"),
        "ha.rrmse_pct.p50": e2e["rrmse_pct.ha.p50"],
        "cha.cha_fit.s": (total("cha.cha_fit"), "s"),
        "cha.unidentifiable": (sum(f.unidentifiable for f in fits("cha")), "count"),
        "cha.rrmse_pct.p50": e2e["rrmse_pct.cha.p50"],
        "regularized.relsha_fit.s": (total("regularized.relsha_fit"), "s"),
        "regularized.to_first_iteration.s": (total("regularized.to_first_iteration"), "s"),
        "regularized.bfgs.s": (total("regularized.bfgs"), "s"),
        "regularized.iterations": (sum(iterations), "count"),
        "regularized.iterations.p50": (median(iterations), "count"),
        "regularized.iterations.max": (max(iterations), "count"),
        "regularized.us_per_iteration": (1e6 * total("regularized.bfgs") / max(bfgs_iterations, 1), "us"),
        "regularized.restarts": (sum(f.restarts for f in relsha), "count"),
        "regularized.nonconverged": (sum(not f.converged for f in relsha), "count"),
        "regularized.converged_ratio": e2e["converged_frac"],
        "regularized.rrmse_pct.p50": e2e["rrmse_pct.relsha.p50"],
        "evaluation.cells": (len(tracer.durations("evaluation.cell")), "count"),
        "evaluation.missing": (check.missing, "count"),
        "ingest.load_harmonics.s": (total("ingest.load_harmonics"), "s"),
        "ingest.bytes_read": (check.bytes_read, "B"),
        "ingest.bytes_written": (check.bytes_written, "B"),
        "constituents.load_catalog.s": (total("constituents.load_catalog"), "s"),
        "cli.self.s": (wall_s - root_time(untraced), "s"),
        "bench.trace_overhead_s": (root_time(tracer) - root_time(untraced), "s"),
        "fit_ms.max": e2e["fit_ms.max"],
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, lines: list[str]) -> dict:
    """Set up, warm up, time, check and (with ``trace``) trace one workload."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, lines, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, lines, work) -> dict:
    from relsha.constituents import load_default_catalog
    from hostspeed import HostClock
    from tracing import Tracer

    def set_up():
        import_in_fresh_interpreter()
        workload.prepare(work, seed, Tracer())

    clock = HostClock()
    setups = [clock.time(set_up)[2] for _ in range(SETUP_REPEATS)]
    workload.warm_up(work, seed)
    runs = []
    start = time.perf_counter()
    # Stop before a pass that would end past ``seconds``.
    while len(runs) < MIN_TIMED_RUNS or time.perf_counter() - start + runs[-1].seconds <= seconds:
        runs.append(workload.run_once(work, seed, clock))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = Tracer()
    check = workload.check(work, seed, runs, untraced)
    e2e = end_to_end(runs, check, setups, peak_rss_mb)
    lines.append(spread_line("wall_rescaled_s", [run.rescaled for run in runs], "s"))
    lines.append(spread_line("setup_s", setups, "s"))
    lines.append(spread_line("wall_s", [run.seconds for run in runs], "s"))
    for name, (value, unit) in list(e2e.items())[3:]:
        lines.append(f"{name}: {value:.6g} {unit}")
    if runs[0].fit_seconds:
        for key in runs[0].fit_seconds:
            lines.append(spread_line(f"cli.fit_ms.{key}", [1000 * r.fit_seconds[key] for r in runs], "ms"))
    for note in dict.fromkeys(check.notes):
        lines.append(f"check failed: {note}")
    if not trace:
        metrics = {name: e2e[name] for name in BOUNDED}
    else:
        from workloads import probe

        catalog = load_default_catalog()
        tracer = Tracer()
        for name, value in workload.trace_extras(work, seed, untraced, tracer).items():
            lines.append(f"{name}: {value:.6g} s")
        workload.repeat(work, seed, tracer, split=True)
        probe(tracer, check.records, catalog)
        metrics = per_layer(tracer, untraced, check, e2e, catalog.n)
        for name, value in sorted(tracer.self_times().items()):
            lines.append(f"self time {name}: {value:.6g} s")
        spans = WORK / f"spans-{workload.name}-{seed}.jsonl"
        tracer.write(spans)
        lines.append(f"spans written to {spans.relative_to(ROOT)}")
    failed = sum(fit.failure is not None for fit in check.fits)
    return {
        "correct": failed == 0,
        "attempted": len(check.fits),
        "failed": failed,
        "metrics": metrics_from(metrics),
    }


def full_lattice(seed: int) -> dict:
    """The default lattice once, untimed repeats aside: wall time, missing
    cells and ReLSHA convergence over all 840 cells."""
    from relsha.evaluation import default_intervals, default_lengths
    from hostspeed import HostClock
    from tracing import Tracer
    from workloads import GridWorkload

    lattice = GridWorkload(
        "full_lattice",
        tuple(float(v) for v in default_intervals()),
        tuple(float(v) for v in default_lengths()),
    )
    work = WORK / f"full_lattice-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = lattice.run_once(work, seed, HostClock())
        check = lattice.check(work, seed, [run], Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    relsha = [f for f in check.fits if f.method == "relsha" and f.samples]
    return {
        "wall_s": run.seconds,
        "cells": len(lattice.intervals) * len(lattice.lengths),
        "missing": sum(not f.samples for f in check.fits),
        "failed": sum(f.failure is not None for f in check.fits),
        "relsha_nonconverged": sum(not f.converged for f in relsha),
        "relsha_restarted": sum(f.restarts > 0 for f in relsha),
        "relsha_fits": len(relsha),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-lattice", action="store_true")
    args = parser.parse_args(argv)
    import_relsha()
    from workloads import WORKLOADS

    if args.full_lattice:
        print(json.dumps(full_lattice(args.seed)))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    lines = [f"machine: {json.dumps(machine_facts())}"]
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), lines)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
