"""CLI tests: argument handling, file outputs, reproducibility."""

import dataclasses
import errno
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from fuzzyloc import cli
from fuzzyloc.adaptation import DEFAULT_R_FLOOR, DEFAULT_WINDOW, AdaptationConfig
from fuzzyloc.anfis import DEFAULT_ETA
from fuzzyloc.cli import (
    _CSV_BLOCK_ROWS,
    COMPARE_TABLE,
    REPORT_TABLE,
    RUNS_TABLE,
    CsvTable,
    _adaptation_config,
    _format_rows,
    _run_and_format,
    _tick_texts,
    _write_csv,
    build_parser,
    main,
)
from fuzzyloc.metrics import BAND_CONFIDENCE, build_report
from fuzzyloc.simulator import (
    RunDigest,
    RunLog,
    default_scenario,
    load_scenario,
    run_monte_carlo,
    run_once,
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
        assert runs_lines[0] == f"# schema={RUNS_TABLE.schema}"
        assert runs_lines[1].split(",") == RUNS_TABLE.header
        n_ticks = 320  # 8 s at 40 Hz
        assert len(runs_lines) == 2 + 2 * n_ticks

        report_lines = read_csv_lines(out / "report.csv")
        assert report_lines[0] == f"# schema={REPORT_TABLE.schema}"
        assert report_lines[1].split(",") == REPORT_TABLE.header
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

    def test_metadata_experiment_record(self, tmp_path, scenario_file):
        out = tmp_path / "exp"
        assert main([
            "run", "--variant", "anfekf-q", "--scenario", str(scenario_file),
            "--runs", "2", "--seed", "4", "--out", str(out), "--q-floor", "1e-6",
        ]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["experiment"] == {
            "scenario_path": str(scenario_file), "variant": "anfekf-q", "n_runs": 2,
            "base_seed": 4, "out_dir": str(out), "window": DEFAULT_WINDOW, "eta": DEFAULT_ETA,
            "r_floor": DEFAULT_R_FLOOR, "q_floor": 1e-6, "workers": 1,
        }
        assert meta["scenario"] == scenario_to_dict(load_scenario(scenario_file))

    def test_unknown_scenario_key_exits_2(self, tmp_path, tiny_scenario, capsys):
        data = scenario_to_dict(tiny_scenario)
        data["seeed"] = data.pop("seed")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        rc = main(["run", "--variant", "ekf", "--scenario", str(path), "--out", str(out)])
        assert rc == 2
        assert "unknown key 'seeed'" in capsys.readouterr().err
        assert not out.exists()

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
        dom11 = first_row[RUNS_TABLE.header.index("dom11")]
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
        path.write_text(json.dumps(scenario_to_dict(dataclasses.replace(tiny_scenario, start=(0.0, 0.0)))))
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
        path.write_text(json.dumps(scenario_to_dict(dataclasses.replace(tiny_scenario, **change))))
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
            ["--window", "100000000000000000000"],
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
            cfg = _adaptation_config(args)
            assert getattr(cfg, name) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", [
        ["run", "--variant", "anfekf-q"],
        ["compare", "--variant-a", "ekf", "--variant-b", "anfekf-q"],
    ], ids=["run", "compare"])
    def test_q_floor_above_q_ceiling_exits_2(self, tmp_path, scenario_file, capsys,
                                             no_rng_or_process, command, workers):
        # the default Q22 = 0.0027 has a ceiling of 100 x 0.0027 = 0.27; the start
        # check rejects it before any rng, worker process or --out directory
        out = tmp_path / "o"
        rc = main([
            *command, "--scenario", str(scenario_file), "--runs", "2", "--workers", workers,
            "--out", str(out), "--q-floor", "1.0",
        ])
        assert rc == 2
        assert "q_floor" in capsys.readouterr().err
        assert not out.exists()

    def test_run_and_format_returns_a_digest_with_its_rows(self, tiny_scenario):
        digest, rows = _run_and_format(tiny_scenario, "anfekf-r", 3, None, 2)
        log = run_once(tiny_scenario, "anfekf-r", 3)
        assert type(digest) is RunDigest
        assert digest.summary() == log.summary()
        assert rows == _format_rows(table_columns(RUNS_TABLE, 2, log))

    @pytest.mark.parametrize("command, outputs", [
        (["run", "--variant", "anfekf-rq"], ("runs.csv", "report.csv", "summary.json")),
        (["compare", "--variant-a", "ekf", "--variant-b", "anfekf-rq"],
         ("compare.csv", "compare_summary.json")),
    ], ids=["run", "compare"])
    def test_workers_send_back_no_runlog(self, tmp_path, scenario_file, monkeypatch, command, outputs):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit the patched RunLog")

        def no_pickle(self, protocol):
            raise AssertionError("a RunLog was pickled")

        argv = [*command, "--scenario", str(scenario_file), "--runs", "3", "--seed", "2"]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main([*argv, "--workers", "1", "--out", str(serial)]) == 0
        monkeypatch.setattr(RunLog, "__reduce_ex__", no_pickle)  # forked workers inherit it
        assert main([*argv, "--workers", "2", "--out", str(pooled)]) == 0
        for name in outputs:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name

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

    def test_failed_json_write_leaves_the_earlier_summary(self, tmp_path, scenario_file,
                                                          monkeypatch, capsys):
        out = tmp_path / "o"
        argv = ["run", "--variant", "ekf", "--scenario", str(scenario_file),
                "--runs", "2", "--workers", "1", "--out", str(out)]
        assert main(argv + ["--seed", "3"]) == 0
        before = (out / "summary.json").read_bytes()

        class HalfWritten:
            """A file that takes half of the first text, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        def half_written_summary(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return HalfWritten(fh) if Path(file).name == "summary.json.partial" else fh

        monkeypatch.setattr(cli, "open", half_written_summary, raising=False)
        assert main(argv + ["--seed", "4"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (out / "summary.json").read_bytes() == before
        assert not (out / "summary.json.partial").exists()

    def test_failed_rename_leaves_no_partial_file(self, tmp_path, scenario_file, capsys):
        # summary.json is a directory, so unlinking the old output fails
        out = tmp_path / "o"
        (out / "summary.json").mkdir(parents=True)
        argv = ["run", "--variant", "ekf", "--scenario", str(scenario_file),
                "--runs", "2", "--workers", "1", "--out", str(out)]
        assert main(argv) == 2
        assert "summary.json" in capsys.readouterr().err
        assert (out / "summary.json").is_dir()
        assert sorted(out.glob("*.partial")) == []

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

    def test_help_shows_the_adaptation_defaults(self, capsys, monkeypatch):
        # the help text is formatted from the constants, so it follows them
        for name, value in (("DEFAULT_WINDOW", 23), ("DEFAULT_ETA", 0.125),
                            ("DEFAULT_R_FLOOR", 3e-9), ("Q_FLOOR_RATIO", 0.25)):
            monkeypatch.setattr(cli, name, value)
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for phrase in ("(default 23, minimum 2)", "(default 0.125)", "(default 3e-09)",
                       "(default: 0.25 x initial Q)"):
            assert phrase in text, phrase

    def test_band_help_formats_the_band_confidence(self):
        (text,) = [text for names, text, _ in REPORT_TABLE.entries if names == "band_lo, band_hi"]
        assert f"{BAND_CONFIDENCE:.0%}" in text


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
        assert lines[0] == f"# schema={COMPARE_TABLE.schema}"
        assert lines[1].split(",") == COMPARE_TABLE.header
        for line in lines[2:5]:
            row = dict(zip(COMPARE_TABLE.header, line.split(",")))
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

    def test_metadata_experiment_records(self, tmp_path, scenario_file):
        out = tmp_path / "cmp"
        assert main([
            "compare", "--variant-a", "ekf", "--variant-b", "anfekf-r", "--scenario",
            str(scenario_file), "--runs", "2", "--workers", "2", "--out", str(out), "--window", "9",
        ]) == 0
        experiment = json.loads((out / "metadata.json").read_text())["experiment"]
        common = {
            "scenario_path": str(scenario_file), "n_runs": 2, "base_seed": 0, "out_dir": str(out),
            "window": 9, "eta": DEFAULT_ETA, "r_floor": DEFAULT_R_FLOOR, "q_floor": None,
            "workers": 2,
        }
        assert experiment == {"a": {**common, "variant": "ekf"}, "b": {**common, "variant": "anfekf-r"}}


class TestCsvWriter:
    """The block writer against csv.writer with one formatted value at a time."""

    EDGE_FLOATS = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e300,
        3.0, -2.0, 1e15, 1e16, 0.1, -123456789012.5, 2.0**53 + 1.0,
    ]

    def _assert_same_bytes(self, tmp_path, header, tables, **layout):
        table = CsvTable("blocks.csv", "test-v1", "", tuple((name, "", None) for name in header))
        _write_csv(tmp_path, table, (_format_rows(columns, **layout) for columns in tables))
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

    def test_constant_columns(self, tmp_path):
        n = 2 * _CSV_BLOCK_ROWS + 5
        table = [np.full(n, 7), np.arange(1, n + 1), np.full(n, 0.1), np.full(n, math.nan),
                 np.full(n, -0.0), np.full(n, -(2**63)), np.linspace(0.0, 1.0, n), np.full(n, 1e300)]
        header = list("abcdefgh")
        self._assert_same_bytes(tmp_path, header, [table])
        self._assert_same_bytes(tmp_path, header, [table], tick_at=1, held_from=3)

    def test_held_group_keeps_signed_zeros_and_nans(self, tmp_path):
        # A scan-style group: it changes every few rows, between -0.0 and
        # 0.0 and between NaNs of either sign, which print alike.
        n = 3 * _CSV_BLOCK_ROWS + 1
        zeros = np.where(np.arange(n) % 8 < 4, -0.0, 0.0)
        nans = np.where(np.arange(n) % 8 < 2, math.nan, np.copysign(math.nan, -1.0))
        nans[5::8] = 2.5
        counts = (np.arange(n) % 8 == 0).astype(np.int64)
        table = [np.arange(1, n + 1), np.linspace(0.0, 4.0, n), np.sin(np.arange(n)),
                 counts, zeros, nans, np.full(n, 0.25)]
        no_nans = [*table[:5], np.full(n, 2.5), table[6]]  # the zeros alone flip on row 4
        self._assert_same_bytes(tmp_path, list("abcdefg"), [table, no_nans], tick_at=0, held_from=3)
        rows = _format_rows(table, tick_at=0, held_from=3).splitlines()
        assert [row.split(",", 3)[3] for row in rows[:6]] == [
            "1,-0,nan,0.25", "0,-0,nan,0.25", "0,-0,nan,0.25", "0,-0,nan,0.25",
            "0,0,nan,0.25", "0,0,2.5,0.25"]

    @pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
    def test_held_group_changing_on_one_row(self, tmp_path, row):
        n = _CSV_BLOCK_ROWS + 3
        group = [np.full(n, 3), np.full(n, 0.5), np.full(n, -0.0)]
        for col, value in zip(group, (4, math.inf, 0.0)):
            col[row] = value
        table = [np.arange(1, n + 1), np.cos(np.arange(n)), *group]
        self._assert_same_bytes(tmp_path, list("abcde"), [table], held_from=2)

    @pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                   4 * _CSV_BLOCK_ROWS + 7])
    def test_table_sizes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        scan = np.where(np.arange(n) % 5 == 0, rng.normal(size=n), math.nan)
        table = [np.full(n, 2), np.arange(1, n + 1), np.arange(n) / 40.0, rng.normal(size=n),
                 (np.arange(n) % 5 == 0).astype(np.int64), scan, np.full(n, 1e-3)]
        tables = [table, [col[: n // 2] for col in table]]
        self._assert_same_bytes(tmp_path, list("abcdefg"), tables, tick_at=1, held_from=4)
        self._assert_same_bytes(tmp_path, list("abcdefg"), tables)

    def test_tick_texts_kept_only_for_the_same_bits(self):
        step = np.arange(1, 6)
        t = np.arange(5) * 0.025
        texts = _tick_texts(step, t)
        assert _tick_texts(step.copy(), t.copy()) is texts
        signed = t.copy()
        signed[0] = -0.0
        assert _tick_texts(step, signed) == ("1,-0", *texts[1:])
        assert _tick_texts(step.astype(np.int32), signed) == ("1,-0", *texts[1:])
        assert _tick_texts(step, t) is not texts
        assert _tick_texts(step, t) == texts

    @pytest.mark.parametrize("variant", ["ekf", "anfekf-r"])
    def test_runs_rows_of_each_layout(self, tmp_path, tiny_scenario, variant):
        logs = [run_once(tiny_scenario, variant, seed) for seed in (3, 4)]
        if variant == "ekf":
            assert np.isnan(logs[0].dom_diag).all()
        else:
            assert (logs[0].q_diag == logs[0].q_diag[0]).all()
        _write_csv(tmp_path, RUNS_TABLE, [RUNS_TABLE.rows(i, log) for i, log in enumerate(logs)])
        helpers.write_csv_rows(tmp_path / "oracle.csv", RUNS_TABLE.schema, RUNS_TABLE.header,
                               helpers.runs_rows(logs))
        assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_run_outputs(self, tmp_path, scenario_file):
        out = tmp_path / "exp"
        assert main([
            "run", "--variant", "anfekf-rq", "--scenario", str(scenario_file),
            "--runs", "3", "--seed", "4", "--out", str(out),
        ]) == 0
        logs = run_monte_carlo(load_scenario(scenario_file), "anfekf-rq", 3, 4,
                               adaptation=AdaptationConfig())
        helpers.write_csv_rows(tmp_path / "runs.csv", RUNS_TABLE.schema, RUNS_TABLE.header,
                               helpers.runs_rows(logs))
        helpers.write_csv_rows(tmp_path / "report.csv", REPORT_TABLE.schema, REPORT_TABLE.header,
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
        helpers.write_csv_rows(tmp_path / "compare.csv", COMPARE_TABLE.schema, COMPARE_TABLE.header,
                               helpers.compare_rows(rep_a, rep_b))
        assert (out / "compare.csv").read_bytes() == (tmp_path / "compare.csv").read_bytes()


def table_columns(table, *record):
    """The columns of every entry of table, in header order."""
    return [col for _, _, take in table.entries + table.scans for col in take(*record)]


class TestCsvLayouts:
    """Each CSV's v1 header is pinned, and every entry of its table gives one column per name."""

    def test_v1_headers(self):
        written = {table.file: f"# schema={table.schema}\n{','.join(table.header)}"
                   for table in (RUNS_TABLE, REPORT_TABLE, COMPARE_TABLE)}
        assert written == {
            "runs.csv": "# schema=fuzzyloc-runs-v1\n"
                        "run,step,t,truth_x,truth_y,truth_phi,est_x,est_y,est_phi,P11,P22,P33,"
                        "nees,n_meas,n_gated,R11,R22,Q11,Q22,dom11,dom22",
            "report.csv": "# schema=fuzzyloc-report-v1\nstep,t,rmse_pos,avg_nees,band_lo,band_hi",
            "compare.csv": "# schema=fuzzyloc-compare-v1\n"
                           "step,t,rmse_pos_a,rmse_pos_b,avg_nees_a,avg_nees_b,band_lo,band_hi",
        }

    @pytest.mark.parametrize("variant", ["ekf", "anfekf-r"])
    def test_each_entry_gives_one_column_per_name(self, tiny_scenario, variant):
        logs = [run_once(tiny_scenario, variant, seed) for seed in (0, 1)]
        report = build_report(logs)
        n = len(logs[0].t)
        for table, record in ((RUNS_TABLE, (1, logs[1])), (REPORT_TABLE, (report,)),
                              (COMPARE_TABLE, (report, report))):
            for names, _, take in table.entries + table.scans:
                columns = list(take(*record))
                assert len(columns) == len(names.split(", ")), (table.file, names)
                assert all(np.shape(col) == (n,) for col in columns), (table.file, names)

    def test_help_documents_every_column(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        words = set(re.findall(r"\w+", capsys.readouterr().out))
        for table in (RUNS_TABLE, REPORT_TABLE, COMPARE_TABLE):
            assert set(table.header) <= words, set(table.header) - words

    def test_runs_layout_names_step_and_the_scan_columns(self, tiny_scenario, monkeypatch):
        # the layout rows() hands _format_rows, read back through each header
        layouts = []
        monkeypatch.setattr(cli, "_format_rows", lambda columns, **layout: layouts.append(layout))
        logs = [run_once(tiny_scenario, "ekf", seed) for seed in (0, 1)]
        report = build_report(logs)
        RUNS_TABLE.rows(0, logs[0])
        REPORT_TABLE.rows(report)
        COMPARE_TABLE.rows(report, report)
        runs, *others = layouts
        header = RUNS_TABLE.header
        assert header[runs["tick_at"]:][:2] == ["step", "t"]
        assert header[runs["held_from"]:] == [
            "n_meas", "n_gated", "R11", "R22", "Q11", "Q22", "dom11", "dom22"]
        assert others == [{"tick_at": 0, "held_from": None}] * 2


class TestAdaptationConfigFromFlags:
    RUN = ["run", "--variant", "anfekf-r", "--scenario", "s", "--out", "o"]

    def test_adaptation_config_overrides(self):
        args = build_parser().parse_args([
            *self.RUN, "--window", "9", "--eta", "0.5", "--r-floor", "1e-6", "--q-floor", "1e-7",
        ])
        cfg = _adaptation_config(args)
        assert cfg.window == 9
        assert cfg.eta == 0.5
        assert cfg.r_floor == 1e-6
        assert cfg.q_floor == 1e-7

    def test_defaults_pass_through(self):
        assert _adaptation_config(build_parser().parse_args(self.RUN)) == AdaptationConfig()


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "default.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyloc.cli", "scenario-default", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
