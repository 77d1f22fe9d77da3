#!/usr/bin/env python3
"""Sensitivity of the regularized fit to the weight lambda.

For each lambda in {0.1, 0.3, 0.5, 0.7, 0.9} and each satellite-like
revisit interval (9.9 and 11 days), fit 20 seeded one-year cuts of the
bundled synthetic truth with reference amplitudes perturbed +/-10% per
seed, and report the median amplitude RRMSE next to the plain
least-squares baseline. Each cut is prepared once and every fit of it
solved on that one record.

    python scripts/run_lambda_sweep.py --output results/lambda_sweep.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import relsha  # noqa: E402
from relsha import ingest  # noqa: E402
from relsha.design import prepare  # noqa: E402
from relsha.ha import ha_solve  # noqa: E402
from relsha.regularized import relsha_solve  # noqa: E402

YEAR = 8766.0
LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9)
INTERVALS = (237.6, 264.0)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/lambda_sweep.csv")
    parser.add_argument("--seeds", type=int, default=20)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    catalog = relsha.load_default_catalog()
    truth, _ = ingest.load_harmonics(
        relsha.default_catalog_path().with_name("synthetic_truth.csv"), catalog
    )
    base = relsha.synthesize_series(truth, np.arange(0.0, 1.05 * YEAR, 0.1))

    rows = ["lambda,interval_hours,seeds,relsha_median_rrmse_percent,ha_median_rrmse_percent"]
    for interval in INTERVALS:
        ha_errors = []
        records = []
        for seed in range(args.seeds):
            sampled = relsha.resample(base, relsha.SamplingPlan(interval, YEAR, seed=seed))
            records.append(prepare(sampled, catalog))
            ha_fit = ha_solve(records[-1])
            ha_errors.append(relsha.rrmse(ha_fit.solution.amplitudes, truth.amplitudes))
        ha_median = float(np.median(ha_errors))
        for lam in LAMBDAS:
            errors = []
            for seed, record in enumerate(records):
                rng = np.random.default_rng(10_000 + seed)
                reference = truth.amplitudes * (1 + rng.uniform(-0.1, 0.1, catalog.n))
                config = relsha.RelshaConfig(lam=lam)
                fit = relsha_solve(record, reference, config)
                errors.append(relsha.rrmse(fit.solution.amplitudes, truth.amplitudes))
            median = float(np.median(errors))
            rows.append(f"{lam},{interval},{args.seeds},{median:.6g},{ha_median:.6g}")
            print(rows[-1])

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"sweep written to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
