#!/usr/bin/env python3
"""Run the full sampling-interval x record-length error grid.

Compares HA, CHA, and ReLSHA on the bundled synthetic truth across the
default lattice (12 minutes to 11 days; 30 to 366 days) and writes the
grid CSV plus the slice files at the 6-min, 9.9-day, and 11-day marks.
The full lattice is 840 records x 3 methods and took about two minutes
single-threaded on a 2-vCPU machine; pass --intervals/--lengths to trim.
--threads defaults to 1: ReLSHA's solver loop holds the interpreter
lock, and --threads 2 measured slower than serial.

    python scripts/run_error_grid.py --output results/grid.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relsha.cli import main as cli_main  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/grid.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--noise", type=float, default=0.0,
                        help="Gaussian noise sigma (m) added to the base record")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--intervals", help="comma list of hours (default: full lattice)")
    parser.add_argument("--lengths", help="comma list of hours (default: full lattice)")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    argv = [
        "experiment",
        "--output", args.output,
        "--seed", str(args.seed),
        "--threads", str(args.threads),
        "--lambda", str(args.lam),
        "--noise", str(args.noise),
    ]
    if args.intervals:
        argv += ["--intervals", args.intervals]
    if args.lengths:
        argv += ["--lengths", args.lengths]
    start = time.perf_counter()
    code = cli_main(argv)
    print(f"grid written to {args.output} in {time.perf_counter() - start:.0f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
