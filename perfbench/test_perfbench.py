"""Self-tests of the benchmark, on lattices small enough to run in seconds.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_relsha()

from workloads import WORKLOADS, FitFilesWorkload, GridWorkload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_GRID = GridWorkload("tiny_grid", intervals=(1.0, 264.0), lengths=(720.0,))
TINY_FILES = FitFilesWorkload("tiny_files", cadences=(("1h", 1.0), ("11d", 264.0)), length=720.0, noise=0.02)


def measure(workload, trace: bool) -> dict:
    return run.run_workload(workload, seed=3, seconds=0, trace=trace, lines=[])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [TINY_GRID, TINY_FILES], ids=lambda w: w.name)
def test_smoke_run_is_correct_and_prints_the_declared_metrics(workload, trace):
    result = measure(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])


def test_a_cell_shorter_than_its_interval_counts_as_failed():
    result = measure(GridWorkload("tiny_failing", intervals=(1.0, 1000.0), lengths=(720.0,)), False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_named_workloads_are_the_declared_ones():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert list(run.BOUNDED) == [m["name"] for m in SPEC["end_to_end"]]


def test_probes_inside_a_call_are_not_counted_in_its_time():
    from hostspeed import PROBE_EVERY_S, HostClock

    clock = HostClock()
    _, seconds, rescaled = clock.time(time.sleep, 5 * PROBE_EVERY_S)
    assert clock._samples, "no probe ran inside the call"
    assert seconds == pytest.approx(5 * PROBE_EVERY_S, rel=0.05)
    assert rescaled > 0


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "grid_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
