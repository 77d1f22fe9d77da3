import logging
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import relsha
from relsha import cli, evaluation, regularized, series
from relsha.cli import main
from relsha.constituents import load_catalog
from relsha.ingest import (
    format_number,
    load_harmonics,
    load_water_levels,
    solution_to_text,
    water_levels_to_text,
)
from relsha.regularized import relsha_fit

TINY_CATALOG = "M2, 28.9841042\nS2, 30.0\nK1, 15.0410686\n"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def tiny_catalog(tmp_path):
    path = tmp_path / "tiny_catalog.csv"
    path.write_text(TINY_CATALOG, encoding="utf-8")
    return path


@pytest.fixture()
def tiny_truth(tmp_path):
    path = tmp_path / "tiny_truth.csv"
    path.write_text(
        "# mean_m = 0.2\n"
        "constituent_name,amplitude_m,phase_deg\n"
        "M2,0.64,40\nS2,0.12,130\nK1,0.09,300\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def tiny_gauge(tmp_path, tiny_catalog, tiny_truth):
    out = tmp_path / "gauge.csv"
    assert run("synth", "--solution", tiny_truth, "--catalog", tiny_catalog,
               "--interval", 0.5, "--length", 360, "--output", out) == 0
    return out


class TestFit:
    def test_ha_writes_full_solution(self, tmp_path, tiny_gauge):
        out = tmp_path / "solution.csv"
        # default catalog: the bundled 37 constituents
        assert run("fit", "--method", "ha", "--input", tiny_gauge, "--output", out) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("constituent_name")]
        assert len(rows) == 37
        assert "# method = ha" in out.read_text()

    def test_relsha_diagnostics_in_header(self, tmp_path, tiny_gauge, tiny_catalog, tiny_truth):
        out = tmp_path / "solution.csv"
        code = run("fit", "--method", "relsha", "--lambda", 0.5,
                   "--reference", tiny_truth, "--catalog", tiny_catalog,
                   "--input", tiny_gauge, "--output", out)
        assert code == 0
        text = out.read_text()
        for key in ("# lambda = 0.5", "# iterations =", "# final_objective =",
                    "# converged = true", "# regime ="):
            assert key in text

    def test_relsha_header_reports_factorizations_and_initial_objective(
        self, tmp_path, tiny_gauge, tiny_catalog, tiny_truth
    ):
        out = tmp_path / "solution.csv"
        assert run("fit", "--method", "relsha", "--reference", tiny_truth,
                   "--catalog", tiny_catalog, "--input", tiny_gauge, "--output", out) == 0
        catalog = load_catalog(tiny_catalog)
        reference = load_harmonics(tiny_truth, catalog)[0].amplitudes
        d = relsha_fit(load_water_levels(tiny_gauge), reference, catalog).diagnostics
        _, metadata = load_harmonics(out, catalog)
        assert "restarts" not in metadata
        assert metadata["factorizations"] == str(d.factorizations)
        assert metadata["initial_objective"] == format_number(d.initial_objective)

    @pytest.mark.parametrize("method, keys", [
        ("ha", "method, regime, sample_count, rank"),
        ("cha", "method, weight, objective, identifiable, sample_count"),
        ("relsha", "method, lambda, iterations, factorizations, initial_objective, final_objective, "
                   "gradient_norm, gradient_tolerance, converged, regime, sample_count"),
    ])
    def test_header_keys_in_order(self, tmp_path, tiny_gauge, tiny_catalog, tiny_truth, method, keys):
        ref_b = tmp_path / "ref_b.csv"
        ref_b.write_text("constituent_name,amplitude_m,phase_deg\nM2,0.4,70\nS2,0.2,150\nK1,0.05,10\n",
                         encoding="utf-8")
        out = tmp_path / "solution.csv"
        assert run("fit", "--method", method, "--input", tiny_gauge, "--catalog", tiny_catalog,
                   "--reference", tiny_truth, "--reference-a", tiny_truth, "--reference-b", ref_b,
                   "--output", out) == 0
        written = re.findall(r"^# (\S+) = ", out.read_text(), flags=re.MULTILINE)
        assert written == ["mean_m", "trend_m_per_hour", "time_reference_hours", *keys.split(", ")]

    def test_cha_requires_both_references(self, tmp_path, tiny_gauge, tiny_truth):
        out = tmp_path / "solution.csv"
        code = run("fit", "--method", "cha", "--input", tiny_gauge,
                   "--reference-a", tiny_truth, "--output", out)
        assert code != 0
        assert not out.exists()

    @pytest.mark.parametrize("method, option", [
        ("cha", "--reference-a and --reference-b"), ("relsha", "--reference"),
    ])
    def test_missing_reference_fails_before_reading_input(self, tmp_path, caplog, method, option):
        # the input does not exist: the reference check must come first
        code = run("fit", "--method", method, "--input", tmp_path / "missing.csv",
                   "--output", tmp_path / "solution.csv")
        assert code == 1
        assert f"fit --method {method} requires {option}" in caplog.text
        assert "missing.csv" not in caplog.text

    def test_cha_fits_weight(self, tmp_path, tiny_gauge, tiny_catalog, tiny_truth):
        ref_b = tmp_path / "ref_b.csv"
        ref_b.write_text(
            "constituent_name,amplitude_m,phase_deg\nM2,0.4,70\nS2,0.2,150\nK1,0.05,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "solution.csv"
        code = run("fit", "--method", "cha", "--input", tiny_gauge,
                   "--catalog", tiny_catalog, "--reference-a", tiny_truth,
                   "--reference-b", ref_b, "--output", out)
        assert code == 0
        assert "# weight = 0" in out.read_text()

    def test_cha_weight_holds_on_a_resampled_cut(self, tmp_path, catalog):
        # a cut starts hours into its source file; its phases still refer
        # to EPOCH, so CHA still finds the gauge it came from
        near = relsha.default_catalog_path().with_name("reference_nearby.csv")
        offshore = near.with_name("reference_offshore.csv")
        year, cut, out = tmp_path / "year.csv", tmp_path / "cut.csv", tmp_path / "cha.csv"
        assert run("synth", "--solution", near, "--interval", 1, "--length", 8784,
                   "--output", year) == 0
        assert run("resample", "--input", year, "--interval", 1, "--length", 4000,
                   "--seed", 3, "--output", cut) == 0
        assert load_water_levels(cut).times[0] > 0
        assert run("fit", "--method", "cha", "--input", cut, "--reference-a", near,
                   "--reference-b", offshore, "--output", out) == 0
        _, metadata = load_harmonics(out, catalog)
        assert float(metadata["weight"]) <= 1e-3

    @pytest.mark.parametrize("method, solves", [("ha", 1), ("cha", 0), ("relsha", 1)])
    def test_least_squares_solved_only_by_the_methods_that_read_it(self, tmp_path, lstsq_calls,
                                                                   method, solves):
        near = relsha.default_catalog_path().with_name("reference_nearby.csv")
        offshore = near.with_name("reference_offshore.csv")
        levels, out = tmp_path / "levels.csv", tmp_path / "solution.csv"
        assert run("synth", "--solution", near, "--interval", 12, "--length", 2000,
                   "--output", levels) == 0
        assert run("fit", "--method", method, "--input", levels, "--reference", near,
                   "--reference-a", near, "--reference-b", offshore, "--output", out) == 0
        assert len(lstsq_calls) == solves

    def test_unknown_method_is_usage_error(self, tmp_path, tiny_gauge):
        with pytest.raises(SystemExit) as excinfo:
            run("fit", "--method", "spectral", "--input", tiny_gauge,
                "--output", tmp_path / "x.csv")
        assert excinfo.value.code == 2

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run("fit", "--method", "ha", "--input", tmp_path / "missing.csv",
                   "--output", out)
        assert code == 1
        assert not out.exists()

    def test_missing_output_dir_fails_before_reading_input(self, tmp_path, caplog):
        # the input does not exist either: the output check must come first
        code = run("fit", "--method", "ha", "--input", tmp_path / "missing.csv",
                   "--output", tmp_path / "no_such_dir" / "solution.csv")
        assert code == 1
        assert "output directory" in caplog.text
        assert "missing.csv" not in caplog.text

    def test_nodal_angle_catalog_fails_before_reading_input(self, tmp_path, caplog):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(TINY_CATALOG + "N2, 28.4397295, 1.0, 12.5\n", encoding="utf-8")
        out = tmp_path / "solution.csv"
        # the input does not exist: the catalog check must come first
        code = run("fit", "--method", "ha", "--catalog", catalog,
                   "--input", tmp_path / "missing.csv", "--output", out)
        assert code == 1
        assert "catalog row 4" in caplog.text
        assert "nodal angle u is not applied" in caplog.text
        assert "missing.csv" not in caplog.text
        assert not out.exists()

    def test_strict_flags_non_convergence(self, tmp_path, monkeypatch, tiny_catalog, tiny_truth,
                                         base_series, truth):
        # deeply undersampled record, one iteration: cannot converge
        from relsha.series import SamplingPlan, resample

        monkeypatch.setattr(regularized, "_MAX_ITERATIONS", 1)
        gauge = tmp_path / "undersampled.csv"
        undersampled = resample(base_series, SamplingPlan(237.6, 8766.0, seed=3))
        gauge.write_text(water_levels_to_text(undersampled))
        reference = tmp_path / "reference.csv"
        reference.write_text(solution_to_text(truth))
        out = tmp_path / "solution.csv"
        code = run("fit", "--method", "relsha", "--input", gauge, "--reference", reference,
                   "--strict", "--output", out)
        assert code == 3
        assert "# converged = false" in out.read_text()

    def test_config_file_supplies_defaults(self, tmp_path, tiny_gauge, tiny_catalog, tiny_truth):
        config = tmp_path / "fit.args"
        config.write_text("--lambda=1\n", encoding="utf-8")
        out = tmp_path / "solution.csv"
        assert run("fit", "--method", "relsha", "--input", tiny_gauge,
                   "--catalog", tiny_catalog, "--reference", tiny_truth,
                   f"@{config}", "--output", out) == 0
        assert "# lambda = 1" in out.read_text()
        # a later flag overrides the settings file
        assert run("fit", "--method", "relsha", "--input", tiny_gauge,
                   "--catalog", tiny_catalog, "--reference", tiny_truth,
                   f"@{config}", "--lambda", 0.25, "--output", out) == 0
        assert "# lambda = 0.25" in out.read_text()

    def test_cha_reference_with_a_nan_phase_fails(self, tmp_path, tiny_gauge, tiny_catalog, tiny_truth):
        ref_b = tmp_path / "ref_b.csv"
        ref_b.write_text("constituent_name,amplitude_m,phase_deg\nM2,0.4,nan\n", encoding="utf-8")
        out = tmp_path / "solution.csv"
        assert run("fit", "--method", "cha", "--input", tiny_gauge, "--catalog", tiny_catalog,
                   "--reference-a", tiny_truth, "--reference-b", ref_b, "--output", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["lamda", "init", "normalize_terms"])
    def test_unknown_config_key_fails_before_reading_input(self, tmp_path, caplog, capsys, key):
        config = tmp_path / "fit.args"
        config.write_text(f"--{key}=0.9\n", encoding="utf-8")
        out = tmp_path / "solution.csv"
        # the input does not exist: the usage error must come first
        with pytest.raises(SystemExit) as excinfo:
            run("fit", "--method", "ha", "--input", tmp_path / "missing.csv",
                f"@{config}", "--output", out)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --{key}=0.9" in capsys.readouterr().err
        assert "missing.csv" not in caplog.text
        assert not out.exists()

    def test_fractional_max_iterations_in_config_is_usage_error(self, tmp_path, capsys):
        # lambda is the solver's one setting: the iteration cap is fixed
        config = tmp_path / "fit.args"
        config.write_text("--max-iterations=2.5\n", encoding="utf-8")
        out = tmp_path / "solution.csv"
        # the input does not exist: the usage error must come first
        for argv in ([f"@{config}"], ["--max-iterations", "5"]):
            with pytest.raises(SystemExit) as excinfo:
                run("fit", "--method", "relsha", "--input", tmp_path / "missing.csv",
                    *argv, "--output", out)
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --max-iterations" in capsys.readouterr().err
        assert not out.exists()


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file_and_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(target, "lone surrogate \ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text(encoding="utf-8") == "old\n"

    def test_replaces_target_without_touching_an_old_style_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        stray = tmp_path / "out.csv.tmp"
        stray.write_text("someone else's file\n", encoding="utf-8")
        cli._atomic_write(target, "new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert stray.read_text(encoding="utf-8") == "someone else's file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


class TestSynth:
    def test_zero_amplitudes_give_constant_column(self, tmp_path, tiny_catalog):
        solution = tmp_path / "zero.csv"
        solution.write_text(
            "# mean_m = 1\nconstituent_name,amplitude_m,phase_deg\nM2,0,0\n",
            encoding="utf-8",
        )
        out = tmp_path / "flat.csv"
        assert run("synth", "--solution", solution, "--catalog", tiny_catalog,
                   "--interval", 1.0, "--length", 24, "--output", out) == 0
        series = load_water_levels(out)
        assert len(series) == 25
        assert np.allclose(series.heights, 1.0)

    def test_fit_recovers_synthesized_solution(self, tmp_path, tiny_catalog, tiny_truth,
                                               tiny_gauge, capsys):
        fitted = tmp_path / "fitted.csv"
        assert run("fit", "--method", "ha", "--input", tiny_gauge,
                   "--catalog", tiny_catalog, "--output", fitted) == 0
        code = run("rrmse", "--estimated", fitted, "--truth", tiny_truth,
                   "--catalog", tiny_catalog)
        assert code == 0
        assert float(capsys.readouterr().out.strip()) < 1.0

    def test_noise_is_reproducible(self, tmp_path, tiny_catalog, tiny_truth):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert run("synth", "--solution", tiny_truth, "--catalog", tiny_catalog,
                       "--interval", 0.5, "--length", 100, "--noise", 0.02,
                       "--seed", 3, "--output", out) == 0
        assert first.read_bytes() == second.read_bytes()
        third = tmp_path / "c.csv"
        assert run("synth", "--solution", tiny_truth, "--catalog", tiny_catalog,
                   "--interval", 0.5, "--length", 100, "--noise", 0.02,
                   "--seed", 4, "--output", third) == 0
        assert third.read_bytes() != first.read_bytes()

    def test_epoch_sets_the_first_stamp_and_the_tide_keeps_its_phase(
        self, tmp_path, tiny_catalog, tiny_truth
    ):
        out = tmp_path / "2016.csv"
        assert run("synth", "--solution", tiny_truth, "--catalog", tiny_catalog,
                   "--interval", 0.5, "--length", 24, "--epoch", "2016-03-01T12:00:00Z",
                   "--output", out) == 0
        assert out.read_text().split("\n")[1].startswith("2016-03-01T12:00:00Z,")
        start = (datetime(2016, 3, 1, 12, tzinfo=timezone.utc) - series.EPOCH) / timedelta(hours=1)
        written = load_water_levels(out)
        assert written.times.tolist() == (start + 0.5 * np.arange(49)).tolist()
        solution, _ = load_harmonics(tiny_truth, load_catalog(tiny_catalog))
        expected = [format_number(h) for h in series.synthesize(solution, written.times)]
        assert [format_number(h) for h in written.heights] == expected

    def test_heights_are_the_tide_at_the_whole_second_stamps(self, tmp_path, tiny_catalog, tiny_truth):
        texts = []
        for epoch in ("2024-01-01T00:00:00.5Z", "2024-01-01T00:00:01Z"):
            out = tmp_path / "synth.csv"
            assert run("synth", "--solution", tiny_truth, "--catalog", tiny_catalog,
                       "--interval", 1, "--length", 3, "--epoch", epoch, "--output", out) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].split(b"\n")[1].startswith(b"2024-01-01T00:00:01Z,")

    def test_bad_epoch_is_usage_error_before_any_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        with pytest.raises(SystemExit) as excinfo:
            run("synth", "--catalog", missing, "--solution", missing, "--interval", 1,
                "--length", 24, "--epoch", "garbage", "--output", tmp_path / "out.csv")
        assert excinfo.value.code == 2
        assert "argument --epoch: invalid parse_timestamp value: 'garbage'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_noise_fails_before_reading_input(self, tmp_path, caplog):
        out = tmp_path / "noisy.csv"
        code = run("synth", "--solution", tmp_path / "missing.csv", "--interval", 1.0,
                   "--length", 24, "--noise", -1, "--output", out)
        assert code == 1
        assert "--noise must be finite and non-negative, got -1" in caplog.text
        assert "missing.csv" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--interval", "0"), ("--interval", "-1"), ("--length", "nan")])
    def test_bad_spacing_fails_before_reading_input(self, tmp_path, caplog, option, value):
        argv = {"--interval": "1", "--length": "24", option: value}
        code = run("synth", "--solution", tmp_path / "missing.csv",
                   *[x for pair in argv.items() for x in pair], "--output", tmp_path / "out.csv")
        assert code == 1
        assert f"{option} must be finite and positive, got {value}" in caplog.text
        assert "missing.csv" not in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_dir_fails_before_reading_input(self, tmp_path, caplog):
        code = run("synth", "--solution", tmp_path / "missing.csv", "--interval", 1.0,
                   "--length", 24, "--output", tmp_path / "no_such_dir" / "out.csv")
        assert code == 1
        assert f"output directory {tmp_path / 'no_such_dir'} does not exist" in caplog.text
        assert "missing.csv" not in caplog.text and ".tmp" not in caplog.text


class TestRrmseCommand:
    def test_identical_files_print_zero(self, tmp_path, tiny_catalog, tiny_truth, capsys):
        assert run("rrmse", "--estimated", tiny_truth, "--truth", tiny_truth,
                   "--catalog", tiny_catalog) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_module_entry_point(self, tiny_catalog, tiny_truth):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "relsha.cli", "rrmse",
             "--estimated", str(tiny_truth), "--truth", str(tiny_truth),
             "--catalog", str(tiny_catalog)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "0"


class TestResampleCommand:
    def test_every_other_sample(self, tmp_path, tiny_gauge):
        out = tmp_path / "resampled.csv"
        source = load_water_levels(tiny_gauge)
        assert run("resample", "--input", tiny_gauge, "--interval", 1.0,
                   "--length", source.times[-1] - source.times[0], "--output", out) == 0
        picked = load_water_levels(out)
        assert len(picked) == (len(source) + 1) // 2
        assert np.array_equal(picked.heights, source.heights[::2])

    @pytest.mark.parametrize("option, value", [("--interval", "-1"), ("--length", "0")])
    def test_bad_spacing_fails_before_reading_input(self, tmp_path, caplog, option, value):
        argv = {"--interval": "1", "--length": "24", option: value}
        code = run("resample", "--input", tmp_path / "missing.csv",
                   *[x for pair in argv.items() for x in pair], "--output", tmp_path / "out.csv")
        assert code == 1
        assert f"{option} must be finite and positive, got {value}" in caplog.text
        assert "missing.csv" not in caplog.text

    def test_missing_output_dir_fails_before_reading_input(self, tmp_path, caplog):
        code = run("resample", "--input", tmp_path / "missing.csv", "--interval", 1.0,
                   "--length", 24, "--output", tmp_path / "no_such_dir" / "out.csv")
        assert code == 1
        assert "output directory" in caplog.text
        assert "missing.csv" not in caplog.text

    def test_samples_sharing_a_stamp_fail_without_a_file(self, tmp_path, caplog):
        # samples 0.4 s apart, picked every 0.36 s, round to whole seconds
        # that repeat
        rows = [f"2021-01-01T00:00:{0.4 * i:04.1f}Z,{0.1 * i:.1f}" for i in range(20)]
        source = tmp_path / "subsecond.csv"
        source.write_text("timestamp,height_m\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = run("resample", "--input", source, "--interval", 0.0001, "--length", 0.0005,
                   "--output", out)
        assert code == 1
        assert re.search(r"two samples would share the stamp 2021-01-01T00:00:\d\dZ", caplog.text)
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["subsecond.csv"]


@pytest.mark.parametrize("argv, message", [
    (("fit", "--method", "relsha", "--lambda", "2"), "lam must lie in [0, 1], got 2.0"),
    (("resample", "--interval", "10", "--length", "5"), "record_length must be at least one interval"),
    (("synth", "--interval", "10", "--length", "5"), "synth requires --length of at least one --interval"),
    (("synth", "--interval", "0.0001", "--length", "5"), "synth requires --interval of at least one second"),
    # every cut snaps to the 0.1-h base record: 0.05 h would be the 0.1-h record
    (("experiment", "--intervals", "0.05,0.1", "--lengths", "720", "--methods", "ha"),
     "--intervals must be at least the base record's spacing 0.1 h, got 0.05,0.1"),
], ids=["fit-lambda", "resample-length", "synth-length", "synth-interval", "experiment-intervals"])
def test_bad_setting_fails_before_any_file_is_read(tmp_path, caplog, argv, message):
    missing = tmp_path / "missing.csv"
    files = {
        "fit": ("--catalog", missing, "--reference", missing, "--input", missing),
        "resample": ("--input", missing),
        "synth": ("--catalog", missing, "--solution", missing),
        "experiment": ("--catalog", missing, "--truth", missing),
    }[argv[0]]
    assert run(*argv, *files, "--output", tmp_path / "out.csv") == 1
    assert message in caplog.text
    assert "missing.csv" not in caplog.text
    assert list(tmp_path.iterdir()) == []


class TestExperiment:
    def test_tiny_grid_all_methods(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run("experiment", "--intervals", "237.6", "--lengths", "2000",
                   "--seed", 7, "--threads", 1, "--output", out)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("interval_hours")
        assert len(lines) == 4  # one cell, three methods
        assert {line.split(",")[2] for line in lines[1:]} == {"ha", "cha", "relsha"}
        slice_path = tmp_path / "grid_slice_9.9day.csv"
        assert slice_path.exists()

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for out in (first, second):
            assert run("experiment", "--intervals", "120,237.6", "--lengths", "720,2000",
                       "--methods", "ha,relsha", "--seed", 7, "--threads", 1,
                       "--output", out) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_single_dense_cell_recovers_truth(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("experiment", "--intervals", "0.1", "--lengths", "8766",
                   "--methods", "ha", "--seed", 1, "--threads", 1,
                   "--output", out) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[4] == "overdetermined"
        assert float(fields[5]) < 0.1

    def test_args_file_and_flags_give_one_grid(self, tmp_path):
        flags = ["--methods", "ha,relsha", "--intervals", "120,237.6", "--lengths", "720,2000"]
        config = tmp_path / "grid.args"
        # an option and its value on one line, or on two; the later --seed wins
        config.write_text("--methods=ha,relsha\n--intervals\n120,237.6\n--lengths=720,2000\n"
                          "--seed=3\n", encoding="utf-8")
        outputs = []
        for argv in ([f"@{config}", "--seed", 7], [*flags, "--seed", 7]):
            out = tmp_path / f"grid_{len(outputs)}.csv"
            assert run("experiment", *argv, "--output", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = [line.split(",")[:3] for line in outputs[0].decode().strip().split("\n")[1:]]
        assert {row[2] for row in rows} == {"ha", "relsha"}
        assert {(row[0], row[1]) for row in rows} == {
            (i, l) for i in ("120", "237.6") for l in ("720", "2000")
        }

    def test_blank_lines_in_an_args_file_are_skipped(self, tmp_path):
        config = tmp_path / "grid.args"
        config.write_text("--intervals=264\n\n--lengths=720\n  \n", encoding="utf-8")
        outputs = []
        for argv in ([f"@{config}"], ["--intervals", "264", "--lengths", "720"]):
            out = tmp_path / f"grid_{len(outputs)}.csv"
            assert run("experiment", *argv, "--output", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("line, message", [
        ("--seed=1.7", "argument --seed: invalid int value: '1.7'"),
        ("--methods=5", "argument --methods: unknown method(s) 5"),
        ("--intervals=", "argument --intervals: expected at least one value"),
        ("--methods=", "argument --methods: expected at least one method"),
        ("--lengths=,", "argument --lengths: expected at least one value"),
        ("--intervals=237.6,237.6", "argument --intervals: repeated value in 237.6,237.6"),
        ("--lengths=720,720.0", "argument --lengths: repeated value in 720,720.0"),
    ])
    def test_config_value_of_the_wrong_kind_is_usage_error(
        self, tmp_path, monkeypatch, capsys, line, message
    ):
        def no_record(*args, **kwargs):
            raise AssertionError("the base record was synthesized")

        monkeypatch.setattr(cli, "SynthesizedSeries", no_record)
        config = tmp_path / "grid.args"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as excinfo:
            run("experiment", "--intervals", "264", "--lengths", "8784", f"@{config}",
                "--truth", tmp_path / "missing.csv", "--output", out)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_flag_is_usage_error(self, tmp_path, capsys):
        for methods, message in [
            ("ha,spectral", "unknown method(s) spectral; expected some of ha, cha, relsha"),
            ("ha,ha", "repeated method in ha,ha"),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                run("experiment", "--methods", methods, "--output", tmp_path / "grid.csv")
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err

    def test_non_finite_truth_header_fails_before_the_grid(self, tmp_path, caplog):
        truth = tmp_path / "t.csv"
        source = relsha.default_catalog_path().with_name("synthetic_truth.csv")
        truth.write_text("# mean_m = nan\n" + source.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "grid.csv"
        code = run("experiment", "--truth", truth, "--intervals", "264,48", "--lengths", 8784,
                   "--output", out)
        assert code == 1
        assert not out.exists()
        assert f"{truth}: header mean_m must be a finite number, got 'nan'" in caplog.text

    def test_missing_output_dir_fails_before_the_grid(self, tmp_path, monkeypatch, caplog):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran before the output path was checked")

        monkeypatch.setattr(cli, "run_grid", no_grid)
        code = run("experiment", "--intervals", "237.6", "--lengths", "2000",
                   "--threads", 1, "--output", tmp_path / "missing" / "grid.csv")
        assert code == 1
        assert "output directory" in caplog.text
        assert "before the output path" not in caplog.text

    @pytest.mark.parametrize("option, value", [
        ("--intervals", "237.6,-5"), ("--intervals", "nan"),
        ("--lengths", "0"), ("--lengths", "2000,inf"), ("--noise", "-1"),
        ("--threads", "0"), ("--threads", "-3"),
    ])
    def test_bad_lattice_or_noise_fails_before_the_base_record(
        self, tmp_path, monkeypatch, caplog, option, value
    ):
        def no_record(*args, **kwargs):
            raise AssertionError("the base record was synthesized")

        monkeypatch.setattr(cli, "SynthesizedSeries", no_record)
        out = tmp_path / "grid.csv"
        # the bad value takes the place of the option's good one
        argv = {"--intervals": "237.6", "--lengths": "2000", option: value}
        code = run("experiment", *[x for pair in argv.items() for x in pair],
                   "--truth", tmp_path / "missing.csv", "--output", out)
        assert code == 1
        assert f"{option} must be finite and" in caplog.text
        assert "missing.csv" not in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_threads_below_one_in_config_fail_before_the_base_record(self, tmp_path, monkeypatch, caplog):
        def no_record(*args, **kwargs):
            raise AssertionError("the base record was synthesized")

        monkeypatch.setattr(cli, "SynthesizedSeries", no_record)
        config = tmp_path / "grid.args"
        config.write_text("--threads=-3\n", encoding="utf-8")
        out = tmp_path / "grid.csv"
        code = run("experiment", f"@{config}", "--intervals", "237.6", "--lengths", "2000",
                   "--truth", tmp_path / "missing.csv", "--output", out)
        assert code == 1
        assert "--threads must be finite and positive, got -3" in caplog.text
        assert "missing.csv" not in caplog.text
        assert not out.exists()

    def test_cell_shorter_than_its_interval_stays_missing(self, tmp_path, caplog):
        out = tmp_path / "grid.csv"
        assert run("experiment", "--intervals", "264", "--lengths", "100,2000",
                   "--methods", "ha", "--output", out) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert rows[0] == ["264", "100", "ha", "", "", "", "", ""]
        assert (rows[1][1], rows[1][5] != "") == ("2000", True)
        assert "1 of 2 cells missing" in caplog.text

    def test_missing_cells_warning_names_each_error(self, tmp_path, caplog):
        assert run("experiment", "--intervals", "264,1000", "--lengths", "720",
                   "--output", tmp_path / "grid.csv") == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "3 of 6 cells missing: record_length must be at least one interval (3 cells)"
        ]

    @pytest.mark.parametrize("methods, unread", [
        ("ha", ("--reference", "--reference-a", "--reference-b")),
        ("ha,cha", ("--reference",)),
        ("ha,relsha", ("--reference-a", "--reference-b")),
    ])
    def test_reads_only_the_inputs_its_methods_use(self, tmp_path, methods, unread):
        out = tmp_path / "grid.csv"
        missing = [x for option in unread for x in (option, tmp_path / "missing.csv")]
        assert run("experiment", "--methods", methods, "--intervals", "264", "--lengths", "8784",
                   *missing, "--output", out) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == methods.split(",")

    def test_verbose_run_ends_with_a_summary(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="relsha")
        assert run("-v", "experiment", "--intervals", "264", "--lengths", "100,2000",
                   "--methods", "ha,relsha", "--output", tmp_path / "grid.csv") == 0
        summary = [r for r in caplog.records if r.levelno == logging.INFO]
        assert len(summary) == 1
        assert summary[0].getMessage().startswith(
            "experiment: 4 cells, 2 missing, 0 ReLSHA not converged, "
        )
        assert "did not converge" not in caplog.text

    def test_verbose_summary_scores_the_prior(self, tmp_path, caplog, truth, reference_nearby):
        caplog.set_level(logging.INFO, logger="relsha")
        out = tmp_path / "grid.csv"
        for methods in ("ha", "ha,relsha"):
            assert run("-v", "experiment", "--intervals", "237.6,264", "--lengths", "8784,2000",
                       "--methods", methods, "--output", out) == 0
        summaries = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len(summaries) == 2
        # without ReLSHA there is no prior to score
        assert "prior" not in summaries[0]
        prior = format_number(evaluation.rrmse(reference_nearby.amplitudes, truth.amplitudes))
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        above = sum(float(row[5]) > float(prior) for row in rows if row[2] == "relsha")
        assert 0 < above < 4
        assert (f", 0 ReLSHA not converged, {above} of 4 ReLSHA cells above the prior's "
                f"RRMSE {prior}%, ") in summaries[1]

    # a sparse lattice, as the paper's altimetry cadences give, plus one
    # cadence whose cells overlap on the base record
    INTERVALS, LENGTHS = (1.5, 48.0, 237.6, 264.0), (720.0, 2000.0)

    def lattice(self):
        return ("--intervals", ",".join(map(str, self.INTERVALS)),
                "--lengths", ",".join(map(str, self.LENGTHS)), "--seed", 7)

    def eager_base(self, truth, noise=0.0):
        """relsha experiment's base record, every sample synthesized up front."""
        times = np.arange(0.0, 1.05 * max(self.LENGTHS) + 0.1 / 2, 0.1)
        base = relsha.synthesize_series(truth, times)
        if noise > 0:
            base = relsha.apply_noise(base, noise, seed=evaluation.cell_seed(7, 999_983, 0))
        return base

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_equals_run_grid_on_the_eager_base(self, tmp_path, truth, reference_nearby,
                                                    noise, threads):
        out = tmp_path / "grid.csv"
        assert run("experiment", *self.lattice(), "--noise", noise, "--threads", threads,
                   "--output", out) == 0
        data = relsha.default_catalog_path().parent
        grid = relsha.run_grid(
            self.eager_base(truth, noise), truth.amplitudes, truth.catalog,
            self.INTERVALS, self.LENGTHS, base_seed=7,
            relsha_reference=reference_nearby.amplitudes,
            cha_ref_a=cli._gauge(data / "reference_nearby.csv", truth.catalog),
            cha_ref_b=cli._gauge(data / "reference_offshore.csv", truth.catalog),
            threads=threads,
        )
        assert out.read_text() == evaluation.grid_to_text(grid)

    def test_sparse_lattice_synthesizes_each_kept_sample_once(self, tmp_path, monkeypatch,
                                                              caplog, truth):
        eager = self.eager_base(truth)
        kept = set()
        for i, interval in enumerate(self.INTERVALS):
            for j, length in enumerate(self.LENGTHS):
                plan = relsha.SamplingPlan(interval, length, seed=evaluation.cell_seed(7, i, j))
                kept.update(relsha.resample(eager, plan).times.tolist())
        synthesized = []
        synthesize = series.synthesize

        def counted(solution, times):
            synthesized.extend(np.asarray(times).tolist())
            return synthesize(solution, times)

        monkeypatch.setattr(series, "synthesize", counted)
        caplog.set_level(logging.INFO, logger="relsha")
        assert run("-v", "experiment", *self.lattice(), "--threads", 2,
                   "--output", tmp_path / "grid.csv") == 0
        assert len(synthesized) == len(set(synthesized))
        assert set(synthesized) == kept
        assert len(kept) < len(eager) // 10
        assert f", {len(kept)} of {len(eager)} base samples synthesized, " in caplog.text

    def test_nonconverged_relsha_cells_warn(self, tmp_path, monkeypatch, caplog):
        solve = evaluation.relsha_solve

        def stalled(*args, **kwargs):
            result = solve(*args, **kwargs)
            return replace(result, diagnostics=replace(result.diagnostics, converged=False))

        monkeypatch.setattr(evaluation, "relsha_solve", stalled)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--intervals", "237.6,264", "--lengths", "2000",
                   "--methods", "ha,relsha", "--output", out) == 0
        assert out.read_text().count(",relsha,") == 2
        assert f"2 ReLSHA cells did not converge (converged=false in {out})" in caplog.text


REPEAT_HOURS = 9.9156 * 24.0


def write_pass_file(path, truth, seed):
    """One synthetic year of altimetry passes over one point: the 9.9156-d
    repeat, three samples a second apart per pass with +/-5 s timing jitter,
    3.5 cm noise, a 0.5 m outlier on about one sample in ten, and about 15%
    of cycles missing or flagged bad."""
    rng = np.random.default_rng(seed)
    epoch = datetime(2021, 1, 1, tzinfo=timezone.utc)
    offset = rng.uniform(0.0, REPEAT_HOURS)
    cycles, flags, times = [], [], []
    for cycle in range(int((8766.0 - offset) // REPEAT_HOURS) + 1):
        fate = rng.uniform()
        if fate < 0.075:
            continue
        centre = offset + cycle * REPEAT_HOURS + rng.uniform(-5.0, 5.0) / 3600.0
        for k in range(3):
            cycles.append(cycle)
            flags.append(1 if fate < 0.15 else 0)
            times.append(centre + k / 3600.0)
    times = np.array(times)
    heights = relsha.synthesize_series(truth, times).heights
    heights = heights + rng.normal(0.0, 0.035, times.size)
    heights[rng.uniform(size=times.size) < 0.1] += 0.5
    rows = [f"{c},{(epoch + timedelta(hours=float(t))).isoformat()},{format_number(h)},{f}"
            for c, t, h, f in zip(cycles, times, heights, flags)]
    path.write_text("cycle,timestamp,ssh_m,flag\n" + "\n".join(rows) + "\n")
    return path


class TestAltimetryPasses:
    @pytest.mark.parametrize("seed", range(5))
    def test_relsha_beats_ha_on_noisy_irregular_passes(self, tmp_path, truth, catalog, seed):
        """The paper's altimetry claim, through the CLI: on a year of
        irregular, noisy 9.9-day passes ReLSHA recovers the amplitudes
        better than classical harmonic analysis, and converges."""
        passes = write_pass_file(tmp_path / "pass.csv", truth, seed)
        reference = relsha.default_catalog_path().with_name("reference_nearby.csv")
        errors, metadata = {}, {}
        for method in ("ha", "relsha"):
            out = tmp_path / f"{method}.csv"
            assert run("fit", "--method", method, "--input", passes,
                       "--reference", reference, "--output", out) == 0
            solution, metadata[method] = load_harmonics(out, catalog)
            errors[method] = relsha.rrmse(solution.amplitudes, truth.amplitudes)
        # one sample per good cycle: about 37 passes a year, 15% of them lost
        assert 25 <= int(metadata["relsha"]["sample_count"]) <= 37
        assert metadata["relsha"]["converged"] == "true"
        assert errors["relsha"] < errors["ha"]
