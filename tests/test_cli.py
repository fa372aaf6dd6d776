"""CLI tests: argument handling, file outputs, reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
from fuzzyloc.adaptation import AdaptationConfig
from fuzzyloc.cli import (
    _CSV_BLOCK_ROWS,
    COMPARE_COLUMNS,
    COMPARE_SCHEMA,
    REPORT_COLUMNS,
    REPORT_SCHEMA,
    RUNS_COLUMNS,
    RUNS_SCHEMA,
    ExperimentSpec,
    _spec_from_args,
    _write_csv,
    build_parser,
    main,
)
from fuzzyloc.metrics import build_report
from fuzzyloc.simulator import (
    default_scenario,
    load_scenario,
    run_monte_carlo,
    save_scenario,
    scenario_to_dict,
)


@pytest.fixture
def scenario_file(tmp_path, tiny_scenario):
    path = tmp_path / "scenario.json"
    save_scenario(tiny_scenario, path)
    return path


def read_csv_lines(path):
    return path.read_text().splitlines()


class TestScenarioDefault:
    def test_writes_loadable_default(self, tmp_path, capsys):
        out = tmp_path / "default.json"
        assert main(["scenario-default", "--out", str(out)]) == 0
        assert load_scenario(out) == default_scenario()
        assert str(out) in capsys.readouterr().out


class TestRun:
    def test_outputs_and_schemas(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "exp"
        rc = main([
            "run", "--variant", "ekf", "--scenario", str(scenario_file),
            "--runs", "2", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        for name in ("runs.csv", "report.csv", "summary.json", "metadata.json"):
            assert (out / name).exists()

        runs_lines = read_csv_lines(out / "runs.csv")
        assert runs_lines[0] == f"# schema={RUNS_SCHEMA}"
        assert runs_lines[1].split(",") == RUNS_COLUMNS
        n_ticks = 320  # 8 s at 40 Hz
        assert len(runs_lines) == 2 + 2 * n_ticks

        report_lines = read_csv_lines(out / "report.csv")
        assert report_lines[0] == f"# schema={REPORT_SCHEMA}"
        assert report_lines[1].split(",") == REPORT_COLUMNS
        assert len(report_lines) == 2 + n_ticks

        stdout = capsys.readouterr().out
        assert "RMSE" in stdout and str(out) in stdout

    def test_summary_and_metadata_content(self, tmp_path, scenario_file):
        out = tmp_path / "exp"
        main([
            "run", "--variant", "anfekf-r", "--scenario", str(scenario_file),
            "--runs", "2", "--out", str(out), "--window", "10", "--eta", "0.02",
        ])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variant"] == "anfekf-r"
        assert summary["n_runs"] == 2
        assert len(summary["runs"]) == 2
        assert summary["runs"][0]["seed"] == 0
        assert {"band_lo", "band_hi", "in_band_fraction", "time_avg_rmse_pos"} <= set(summary)

        meta = json.loads((out / "metadata.json").read_text())
        assert meta["experiment"]["window"] == 10
        assert meta["experiment"]["eta"] == 0.02
        assert meta["scenario"]["schema"] == "fuzzyloc-scenario-v1"
        assert "created_unix" in meta and "package_version" in meta

    def test_csv_bodies_reproducible(self, tmp_path, scenario_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "run", "--variant", "anfekf-r", "--scenario", str(scenario_file),
                "--runs", "2", "--seed", "7", "--out", str(out),
            ])
            outs.append(out)
        for fname in ("runs.csv", "report.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_plain_variant_dom_is_nan(self, tmp_path, scenario_file):
        out = tmp_path / "exp"
        main([
            "run", "--variant", "ekf", "--scenario", str(scenario_file),
            "--runs", "1", "--out", str(out),
        ])
        first_row = read_csv_lines(out / "runs.csv")[2].split(",")
        dom11 = first_row[RUNS_COLUMNS.index("dom11")]
        assert dom11 == "nan"

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        rc = main([
            "run", "--variant", "ekf", "--scenario", str(missing),
            "--runs", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(missing) in err

    def test_malformed_scenario_exits_2(self, tmp_path, tiny_scenario, capsys):
        # a two-value start must be rejected before run_once unpacks it into a Pose
        path = tmp_path / "scenario.json"
        save_scenario(dataclasses.replace(tiny_scenario, start=(0.0, 0.0)), path)
        rc = main([
            "run", "--variant", "ekf", "--scenario", str(path),
            "--runs", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "start" in err

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
    def test_non_object_scenario_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        out = tmp_path / "o"
        rc = main(["run", "--variant", "ekf", "--scenario", str(path), "--runs", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"waypoints": ((math.nan, 0.0),)}, "waypoint coordinates"),
            ({"duration": 0.01}, "one control tick"),
            ({"observe_rate": 5e-324}, "integer multiple of observe_rate"),
            ({"duration": 1e300, "control_rate": 1e10, "observe_rate": 1e10}, "overflows"),
            ({"duration": 1e12}, "control ticks"),
        ],
    )
    def test_scenario_without_a_runnable_tick_exits_2(self, tmp_path, tiny_scenario, capsys,
                                                      change, message):
        # the first two used to run: a NaN waypoint until a misleading SingularInnovationError,
        # a 0.01 s duration to an empty RunLog and a NaN summary; the next two
        # raised OverflowError from round(inf), in validate and in run_once, and
        # 1e12 s ended in a numpy MemoryError for run_once's 4e13-row arrays
        path = tmp_path / "scenario.json"
        save_scenario(dataclasses.replace(tiny_scenario, **change), path)
        out = tmp_path / "o"
        rc = main(["run", "--variant", "ekf", "--scenario", str(path), "--runs", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not (out / "summary.json").exists()

    def test_infinite_scenario_seed_exits_2(self, tmp_path, tiny_scenario, capsys):
        # json reads Infinity as a float, which int() turned into an OverflowError traceback
        data = scenario_to_dict(tiny_scenario)
        data["seed"] = math.inf
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        rc = main(["run", "--variant", "ekf", "--scenario", str(path), "--runs", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be a nonnegative integer" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--eta", "0.0"],
            ["--eta", "1.5"],
            ["--window", "1"],
            ["--runs", "0"],
            ["--workers", "0"],
            ["--seed", "-1"],
            ["--r-floor=-1e-9"],
            ["--r-floor", "nan"],
            ["--r-floor", "inf"],
            ["--q-floor", "nan"],
            ["--q-floor", "inf"],
        ],
    )
    def test_invalid_overrides_exit_2(self, tmp_path, scenario_file, capsys, flags):
        rc = main([
            "run", "--variant", "anfekf-r", "--scenario", str(scenario_file),
            "--out", str(tmp_path / "o"), *flags,
        ])
        assert rc == 2
        flag_name = flags[0].split("=")[0]
        assert flag_name in capsys.readouterr().err

    def test_negative_seed_creates_no_output(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "o"
        rc = main(["run", "--variant", "ekf", "--scenario", str(scenario_file),
                   "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_every_adaptation_setting_has_a_run_flag(self):
        # an adapter setting added without a CLI flag fails here
        names = {field.name for field in dataclasses.fields(AdaptationConfig)}
        assert names == {"window", "eta", "r_floor", "q_floor"}
        for name in names:
            args = build_parser().parse_args([
                "run", "--variant", "anfekf-rq", "--scenario", "s.json", "--out", "o",
                "--" + name.replace("_", "-"), "2",
            ])
            cfg = _spec_from_args(args, args.variant).adaptation_config()
            assert getattr(cfg, name) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_q_floor_above_q_ceiling_exits_2(self, tmp_path, scenario_file, capsys, workers):
        # the default Q22 = 0.0027 has a ceiling of 100 x 0.0027 = 0.27
        out = tmp_path / "o"
        rc = main([
            "run", "--variant", "anfekf-q", "--scenario", str(scenario_file),
            "--runs", "2", "--workers", workers, "--out", str(out), "--q-floor", "1.0",
        ])
        assert rc == 2
        assert "q_floor" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_outputs_replaced_not_rewritten(self, tmp_path, scenario_file):
        # a hard link to each first output must keep the first run's bytes
        out, links = tmp_path / "o", tmp_path / "links"
        links.mkdir()
        names = ("runs.csv", "report.csv", "summary.json", "metadata.json")
        argv = ["run", "--variant", "anfekf-r", "--scenario", str(scenario_file),
                "--runs", "2", "--workers", "2", "--out", str(out)]
        assert main(argv + ["--seed", "3"]) == 0
        first = {}
        for name in names:
            os.link(out / name, links / name)
            first[name] = (out / name).read_bytes()
        assert main(argv + ["--seed", "4"]) == 0
        for name in names:
            assert (links / name).read_bytes() == first[name], name
            assert not os.path.samefile(links / name, out / name), name
            assert (out / name).read_bytes() != first[name], name

    def test_failed_run_leaves_earlier_outputs(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "o"
        argv = ["run", "--variant", "anfekf-q", "--scenario", str(scenario_file),
                "--runs", "2", "--workers", "2", "--out", str(out)]
        assert main(argv) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(argv + ["--q-floor", "1.0"]) == 2
        assert "q_floor" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert not (out / "runs.csv.partial").exists()

    def test_unknown_variant_rejected_by_parser(self, tmp_path, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--variant", "ukf", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    def test_help_documents_outputs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for token in (
            "runs.csv", "report.csv", "compare.csv", "summary.json",
            "metadata.json", "schema=", "nees", "n_meas", "n_gated",
            "rmse_pos", "avg_nees", "band_lo", "--eta", "--window",
            "--r-floor", "--q-floor", "--workers", "--seed",
        ):
            assert token in text, token


class TestCompare:
    def test_identical_variants_give_zero_deltas(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "cmp"
        before = scenario_file.read_bytes()
        rc = main([
            "compare", "--variant-a", "ekf", "--variant-b", "ekf",
            "--scenario", str(scenario_file), "--runs", "2", "--out", str(out),
        ])
        assert rc == 0
        assert scenario_file.read_bytes() == before

        lines = read_csv_lines(out / "compare.csv")
        assert lines[0] == f"# schema={COMPARE_SCHEMA}"
        assert lines[1].split(",") == COMPARE_COLUMNS
        for line in lines[2:5]:
            row = dict(zip(COMPARE_COLUMNS, line.split(",")))
            assert row["rmse_pos_a"] == row["rmse_pos_b"]
            assert row["avg_nees_a"] == row["avg_nees_b"]

        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["delta_time_avg_rmse_pos"] == 0.0
        assert summary["delta_in_band_fraction"] == 0.0
        assert summary["paired_win_fraction_b"] == 0.0  # ties are not wins
        assert summary["variant_a"]["n_runs"] == 2

    def test_distinct_variants_share_seeds(self, tmp_path, scenario_file):
        out = tmp_path / "cmp"
        main([
            "compare", "--variant-a", "ekf", "--variant-b", "anfekf-r",
            "--scenario", str(scenario_file), "--runs", "2", "--seed", "5",
            "--out", str(out),
        ])
        summary = json.loads((out / "compare_summary.json").read_text())
        seeds_a = [r["seed"] for r in summary["variant_a"]["runs"]]
        seeds_b = [r["seed"] for r in summary["variant_b"]["runs"]]
        assert seeds_a == seeds_b == [5, 6]


class TestCsvWriter:
    """The block writer against csv.writer with one formatted value at a time."""

    EDGE_FLOATS = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e300,
        3.0, -2.0, 1e15, 1e16, 0.1, -123456789012.5, 2.0**53 + 1.0,
    ]

    def _assert_same_bytes(self, tmp_path, header, tables):
        _write_csv(tmp_path / "blocks.csv", "test-v1", header, tables)
        rows = [row for columns in tables for row in zip(*columns)]
        helpers.write_csv_rows(tmp_path / "oracle.csv", "test-v1", header, rows)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_edge_values(self, tmp_path):
        floats = np.array(self.EDGE_FLOATS)
        n = len(floats)
        ints = np.array([0, 1, -7, 2**62, -(2**63), 2**63 - 1] + list(range(n - 6)), dtype=np.int64)
        table = [ints, floats, floats[::-1], np.arange(n, dtype=np.int32), np.full(n, -0.0)]
        self._assert_same_bytes(tmp_path, ["a", "b", "c", "d", "e"], [table])

    def test_several_tables_across_block_boundaries(self, tmp_path):
        rng = np.random.default_rng(0)
        tables = []
        for k, n in enumerate((1, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 3)):
            floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            floats[::7] = np.resize(self.EDGE_FLOATS, len(floats[::7]))
            tables.append([np.full(n, k), np.arange(1, n + 1), floats, rng.normal(size=n)])
        self._assert_same_bytes(tmp_path, ["run", "step", "x", "y"], tables)

    def test_run_outputs(self, tmp_path, scenario_file):
        out = tmp_path / "exp"
        assert main([
            "run", "--variant", "anfekf-rq", "--scenario", str(scenario_file),
            "--runs", "3", "--seed", "4", "--out", str(out),
        ]) == 0
        logs = run_monte_carlo(load_scenario(scenario_file), "anfekf-rq", 3, 4,
                               adaptation=AdaptationConfig())
        helpers.write_csv_rows(tmp_path / "runs.csv", RUNS_SCHEMA, RUNS_COLUMNS,
                               helpers.runs_rows(logs))
        helpers.write_csv_rows(tmp_path / "report.csv", REPORT_SCHEMA, REPORT_COLUMNS,
                               helpers.report_rows(build_report(logs)))
        for name in ("runs.csv", "report.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_compare_output(self, tmp_path, scenario_file):
        out = tmp_path / "cmp"
        assert main([
            "compare", "--variant-a", "ekf", "--variant-b", "anfekf-q",
            "--scenario", str(scenario_file), "--runs", "2", "--seed", "9", "--out", str(out),
        ]) == 0
        scenario = load_scenario(scenario_file)
        rep_a, rep_b = (
            build_report(run_monte_carlo(scenario, variant, 2, 9, adaptation=AdaptationConfig()))
            for variant in ("ekf", "anfekf-q")
        )
        helpers.write_csv_rows(tmp_path / "compare.csv", COMPARE_SCHEMA, COMPARE_COLUMNS,
                               helpers.compare_rows(rep_a, rep_b))
        assert (out / "compare.csv").read_bytes() == (tmp_path / "compare.csv").read_bytes()


class TestExperimentSpec:
    def test_adaptation_config_overrides(self):
        spec = ExperimentSpec(
            scenario_path="s", variant="anfekf-r", n_runs=1, base_seed=0,
            out_dir="o", window=9, eta=0.5, r_floor=1e-6, q_floor=1e-7,
        )
        cfg = spec.adaptation_config()
        assert cfg.window == 9
        assert cfg.eta == 0.5
        assert cfg.r_floor == 1e-6
        assert cfg.q_floor == 1e-7

    def test_defaults_pass_through(self):
        spec = ExperimentSpec(
            scenario_path="s", variant="ekf", n_runs=1, base_seed=0, out_dir="o",
        )
        from fuzzyloc.adaptation import AdaptationConfig

        assert spec.adaptation_config() == AdaptationConfig()


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "default.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyloc.cli", "scenario-default", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
