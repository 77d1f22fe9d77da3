"""Command-line interface: fit, experiment, synth, rrmse, and resample.

A settings file @FILE after the subcommand stands for its lines, one
argument a line, blank lines skipped, and a later option wins. argparse
reads it as it parses, so a bad option in it is a usage error (exit
status 2).

Output files are written atomically (unique temp file then rename) so a
failed run never leaves a partial file. Before reading any input, every
command that writes a file checks that its output directory exists and
that its settings are valid: fit and experiment their --lambda, and
synth, resample and experiment their spacings, lengths and noise.
All numbers are printed with 9 significant digits so reruns with
identical inputs and seeds are byte-identical.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import tempfile
import time
from collections import Counter
from datetime import timedelta
from pathlib import Path

import numpy as np

from . import evaluation, ingest
from .cha import GaugeHarmonics, GaugePair, cha_solve
from .constituents import default_catalog_path, load_catalog
from .design import prepare
from .evaluation import MARK_INTERVALS, grid_to_text, interval_slice, run_grid, slice_to_text
from .ha import ha_solve
from .ingest import format_number as fmt
from .regularized import RelshaConfig, relsha_solve
from .series import EPOCH, SamplingPlan, SynthesizedSeries, apply_noise, resample, synthesize_series

log = logging.getLogger("relsha")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 3


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode a plain write would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_output_dir(path: str | Path) -> None:
    """Fail before any compute when the output file cannot be created."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ValueError(f"output directory {parent} does not exist")


def _check_values(option: str, values: tuple[float, ...], allow_zero: bool = False) -> None:
    """Fail before any input is read when an option's values are not all
    finite and positive (or zero, where allowed)."""
    if not all(math.isfinite(v) and (v > 0 or (allow_zero and v == 0)) for v in values):
        wanted = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{option} must be finite and {wanted}, got {','.join(map(fmt, values))}")


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text}")
    return values


def _method_list(text: str) -> tuple[str, ...]:
    methods = tuple(part.strip() for part in text.split(",") if part.strip())
    if not methods:
        raise argparse.ArgumentTypeError("expected at least one method")
    unknown = [m for m in methods if m not in evaluation.KNOWN_METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method(s) {', '.join(unknown)}; expected some of "
            f"{', '.join(evaluation.KNOWN_METHODS)}"
        )
    if len(set(methods)) != len(methods):
        raise argparse.ArgumentTypeError(f"repeated method in {text}")
    return methods


def _gauge(path: str | Path, catalog) -> GaugeHarmonics:
    """A reference gauge's harmonics, named after its file."""
    return GaugeHarmonics(Path(path).stem, ingest.load_harmonics(path, catalog)[0])


def cmd_fit(args: argparse.Namespace) -> int:
    _check_output_dir(args.output)
    fit_config = RelshaConfig(lam=args.lam)
    catalog = load_catalog(args.catalog)
    if args.method == "cha":
        if not args.reference_a or not args.reference_b:
            raise ValueError("fit --method cha requires --reference-a and --reference-b")
        pair = GaugePair(_gauge(args.reference_a, catalog), _gauge(args.reference_b, catalog), catalog)
    elif args.method == "relsha":
        if not args.reference:
            raise ValueError("fit --method relsha requires --reference")
        reference, _ = ingest.load_harmonics(args.reference, catalog)
    series = ingest.load_water_levels(args.input)
    record = prepare(series, catalog)

    diagnostics: dict[str, object] = {"method": args.method}
    exit_code = EXIT_OK
    if args.method == "ha":
        result = ha_solve(record)
        diagnostics.update(
            regime=result.regime, sample_count=result.sample_count, rank=result.rank
        )
    elif args.method == "cha":
        result = cha_solve(record, pair)
        diagnostics.update(
            weight=result.weight,
            objective=result.objective,
            identifiable=result.identifiable,
            sample_count=result.sample_count,
        )
    else:
        result = relsha_solve(record, reference.amplitudes, fit_config)
        d = result.diagnostics
        diagnostics.update(
            **{"lambda": fit_config.lam},
            iterations=d.iterations,
            factorizations=d.factorizations,
            initial_objective=d.initial_objective,
            final_objective=d.objective,
            gradient_norm=d.gradient_norm,
            gradient_tolerance=d.gradient_tolerance,
            converged=d.converged,
            regime=d.regime,
            sample_count=d.sample_count,
        )
        if not d.converged:
            log.warning("relsha did not converge: gradient norm %.3e above %.3e",
                        d.gradient_norm, d.gradient_tolerance)
            if args.strict:
                exit_code = EXIT_NOT_CONVERGED

    _atomic_write(args.output, ingest.solution_to_text(result.solution, diagnostics))
    return exit_code


def cmd_experiment(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    _check_values("--intervals", args.intervals)
    if min(args.intervals) < evaluation.BASE_INTERVAL:  # cuts snap to base samples
        raise ValueError(f"--intervals must be at least the base record's spacing "
                         f"{fmt(evaluation.BASE_INTERVAL)} h, got {','.join(map(fmt, args.intervals))}")
    _check_values("--lengths", args.lengths)
    _check_values("--noise", (args.noise,), allow_zero=True)
    _check_values("--threads", (args.threads,))
    _check_output_dir(args.output)
    relsha_config = RelshaConfig(lam=args.lam)
    catalog = load_catalog(args.catalog)
    truth, _ = ingest.load_harmonics(args.truth, catalog)
    # Only the methods asked for read their inputs.
    reference = ref_a = ref_b = None
    if "relsha" in args.methods:
        reference = ingest.load_harmonics(args.reference, catalog)[0].amplitudes
    if "cha" in args.methods:
        ref_a = _gauge(args.reference_a, catalog)
        ref_b = _gauge(args.reference_b, catalog)

    # Dense base record, 5% longer than the longest cut so the random
    # start offset has room to vary. Only the samples the cells keep are
    # synthesized, with the bits of the whole record's.
    span = 1.05 * max(args.lengths)
    times = np.arange(0.0, span + evaluation.BASE_INTERVAL / 2, evaluation.BASE_INTERVAL)
    noise_seed = evaluation.cell_seed(args.seed, 999_983, 0)
    base = SynthesizedSeries(truth, times, args.noise, noise_seed)

    grid = run_grid(
        base,
        truth.amplitudes,
        catalog,
        intervals=args.intervals,
        lengths=args.lengths,
        methods=args.methods,
        base_seed=args.seed,
        relsha_reference=reference,
        relsha_config=relsha_config,
        cha_ref_a=ref_a,
        cha_ref_b=ref_b,
        threads=args.threads,
    )
    _atomic_write(args.output, grid_to_text(grid))

    output = Path(args.output)
    for mark, label in MARK_INTERVALS:
        if mark in grid.intervals:
            curves = interval_slice(grid, mark)
            slice_path = output.with_name(f"{output.stem}_slice_{label}{output.suffix}")
            _atomic_write(slice_path, slice_to_text(curves))

    cells = list(grid.rows())
    errors = Counter(cell.error for cell in cells if cell.rrmse_percent is None)
    missing = sum(errors.values())
    nonconverged = sum(cell.converged is False for cell in cells)
    if missing:
        log.warning("%d of %d cells missing: %s", missing, len(cells),
                    "; ".join(f"{error} ({count} cells)" for error, count in errors.items()))
    if nonconverged:
        log.warning("%d ReLSHA cells did not converge (converged=false in %s)",
                    nonconverged, args.output)
    prior_note = ""
    if reference is not None:
        # The prior alone scored as a fit, and the ReLSHA cells that do
        # worse, compared as the grid file writes them: a sparse cell that
        # returns the prior to 9 digits is a tie, not above it.
        prior = fmt(evaluation.rrmse(reference, truth.amplitudes))
        scores = [c.rrmse_percent for c in cells if c.method == evaluation.METHOD_RELSHA]
        above = sum(score is not None and float(fmt(score)) > float(prior) for score in scores)
        prior_note = f"{above} of {len(scores)} ReLSHA cells above the prior's RRMSE {prior}%, "
    log.info("experiment: %d cells, %d missing, %d ReLSHA not converged, %s"
             "%d of %d base samples synthesized, %.2f s", len(cells), missing, nonconverged,
             prior_note, base.synthesized, len(base), time.perf_counter() - start)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    _check_values("--interval", (args.interval,))
    _check_values("--length", (args.length,))
    _check_values("--noise", (args.noise,), allow_zero=True)
    if args.length < args.interval:
        raise ValueError("synth requires --length of at least one --interval")
    # bounds the sample count before any is allocated
    if args.interval < 1 / 3600:
        raise ValueError("synth requires --interval of at least one second, 1/3600 h")
    start = (args.epoch - EPOCH) / timedelta(hours=1)
    _check_output_dir(args.output)
    catalog = load_catalog(args.catalog)
    solution, _ = ingest.load_harmonics(args.solution, catalog)
    count = int(np.floor(args.length / args.interval)) + 1
    # the tide at the whole-second instants the written stamps name
    times = ingest.stamped_hours(start + args.interval * np.arange(count))
    series = synthesize_series(solution, times)
    if args.noise > 0:
        series = apply_noise(series, args.noise, args.seed)
    _atomic_write(args.output, ingest.water_levels_to_text(series))
    return EXIT_OK


def cmd_rrmse(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    estimated, _ = ingest.load_harmonics(args.estimated, catalog)
    truth, _ = ingest.load_harmonics(args.truth, catalog)
    print(fmt(evaluation.rrmse(estimated.amplitudes, truth.amplitudes)))
    return EXIT_OK


def cmd_resample(args: argparse.Namespace) -> int:
    _check_values("--interval", (args.interval,))
    _check_values("--length", (args.length,))
    plan = SamplingPlan(interval=args.interval, record_length=args.length, seed=args.seed)
    _check_output_dir(args.output)
    series = ingest.load_water_levels(args.input)
    _atomic_write(args.output, ingest.water_levels_to_text(resample(series, plan)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The relsha parser.

    Every option's default lives here, except --lambda's, which comes
    from RelshaConfig.
    """
    parser = argparse.ArgumentParser(
        prog="relsha",
        description="Tidal constituent amplitude estimation from (under)sampled water levels.",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = lambda line: [line] if line.strip() else []
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    catalog = {"default": default_catalog_path(), "help": "constituent catalog (default: bundled)"}
    data = default_catalog_path().parent

    fit = sub.add_parser("fit", help="fit a method to a water-level file")
    fit.add_argument("--method", required=True, choices=evaluation.KNOWN_METHODS)
    fit.add_argument("--input", required=True, help="gauge or altimetry pass CSV (see README)")
    fit.add_argument("--output", required=True, help="solution file to write")
    fit.add_argument("--reference", help="reference amplitudes file (relsha)")
    fit.add_argument("--reference-a", help="first reference gauge harmonics (cha)")
    fit.add_argument("--reference-b", help="second reference gauge harmonics (cha)")
    fit.add_argument("--catalog", **catalog)
    fit.add_argument("--strict", action="store_true",
                     help="exit with status 3 when the solver does not converge")
    fit.set_defaults(func=cmd_fit)

    experiment = sub.add_parser("experiment", help="run the interval-by-length error grid")
    experiment.add_argument("--output", required=True, help="grid CSV to write")
    experiment.add_argument("--truth", default=data / "synthetic_truth.csv",
                            help="truth harmonics file")
    experiment.add_argument("--reference", default=data / "reference_nearby.csv",
                            help="relsha reference amplitudes file")
    experiment.add_argument("--reference-a", default=data / "reference_nearby.csv",
                            help="first cha reference gauge")
    experiment.add_argument("--reference-b", default=data / "reference_offshore.csv",
                            help="second cha reference gauge")
    experiment.add_argument("--methods", type=_method_list, default=evaluation.KNOWN_METHODS,
                            help="comma list from {ha,cha,relsha}")
    experiment.add_argument("--intervals", type=_float_list,
                            default=evaluation.default_intervals(),
                            help="comma list of sampling intervals in hours")
    experiment.add_argument("--lengths", type=_float_list, default=evaluation.default_lengths(),
                            help="comma list of record lengths in hours")
    experiment.add_argument("--noise", type=float, default=0.0,
                            help="Gaussian noise sigma for the base series")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--threads", type=int, default=1,
                            help="parallel grid cells (results identical)")
    experiment.add_argument("--catalog", **catalog)
    experiment.set_defaults(func=cmd_experiment)

    for command in (fit, experiment):
        command.add_argument("--lambda", dest="lam", type=float, default=RelshaConfig.lam,
                             help="regularization weight in [0,1]")

    synth = sub.add_parser("synth", help="synthesize a water-level file from a solution")
    synth.add_argument("--solution", required=True, help="harmonics/solution file")
    synth.add_argument("--output", required=True)
    synth.add_argument("--interval", type=float, required=True, help="sample spacing in hours")
    synth.add_argument("--length", type=float, required=True, help="record length in hours")
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--epoch", type=ingest.parse_timestamp, default="2021-01-01T00:00:00Z",
                       help="first stamp; the tide is synthesized at its hours since "
                            "2021-01-01T00:00:00Z, the time origin of every phase")
    synth.add_argument("--catalog", **catalog)
    synth.set_defaults(func=cmd_synth)

    rrmse_cmd = sub.add_parser("rrmse", help="amplitude RRMSE between two harmonics files")
    rrmse_cmd.add_argument("--estimated", required=True)
    rrmse_cmd.add_argument("--truth", required=True)
    rrmse_cmd.add_argument("--catalog", **catalog)
    rrmse_cmd.set_defaults(func=cmd_rrmse)

    resample_cmd = sub.add_parser("resample", help="resample a water-level file")
    resample_cmd.add_argument("--input", required=True)
    resample_cmd.add_argument("--output", required=True)
    resample_cmd.add_argument("--interval", type=float, required=True)
    resample_cmd.add_argument("--length", type=float, required=True)
    resample_cmd.add_argument("--seed", type=int, default=0)
    resample_cmd.set_defaults(func=cmd_resample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:
        log.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
