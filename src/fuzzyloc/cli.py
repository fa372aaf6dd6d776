"""Command line front end: run Monte Carlo experiments and compare variants.

Outputs are split into deterministic CSV bodies (seed-reproducible byte for
byte) and a metadata JSON that carries the timestamps and versions.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import AdaptationConfig
from .errors import FuzzylocError
from .metrics import EnsembleReport, build_report
from .simulator import (
    VARIANTS,
    RunLog,
    default_scenario,
    fan_out,
    load_scenario,
    run_monte_carlo,
    run_once,
    save_scenario,
    scenario_to_dict,
)

RUNS_SCHEMA = "fuzzyloc-runs-v1"
REPORT_SCHEMA = "fuzzyloc-report-v1"
COMPARE_SCHEMA = "fuzzyloc-compare-v1"

RUNS_COLUMNS = [
    "run", "step", "t",
    "truth_x", "truth_y", "truth_phi",
    "est_x", "est_y", "est_phi",
    "P11", "P22", "P33",
    "nees", "n_meas", "n_gated",
    "R11", "R22", "Q11", "Q22",
    "dom11", "dom22",
]

REPORT_COLUMNS = ["step", "t", "rmse_pos", "avg_nees", "band_lo", "band_hi"]

COMPARE_COLUMNS = [
    "step", "t",
    "rmse_pos_a", "rmse_pos_b",
    "avg_nees_a", "avg_nees_b",
    "band_lo", "band_hi",
]

COLUMN_DOCS = """\
output files
  runs.csv     one row per run and control tick
    run        run index (0-based)
    step       control tick index within the run (1-based)
    t          simulation time in seconds
    truth_x/y  true position (m)
    truth_phi  true heading (rad, wrapped)
    est_x/y    estimated position (m)
    est_phi    estimated heading (rad, wrapped)
    P11/22/33  state covariance diagonal (x, y, phi)
    nees       normalized estimation error squared at this tick
    n_meas     measurements accepted by the gate this tick
    n_gated    measurements rejected by the gate this tick
    R11, R22   measurement covariance diagonal in force (range, bearing)
    Q11, Q22   process covariance diagonal in force (speed, steer)
    dom11/22   innovation covariance mismatch diagonal (NaN until the
               adapter is active)
  report.csv   one row per control tick, aggregated over runs
    step, t    as above
    rmse_pos   position RMSE across runs (m)
    avg_nees   mean NEES across runs
    band_lo/hi two-sided 95% consistency band for avg_nees
  compare.csv  one row per control tick (compare subcommand)
    rmse_pos_a/b, avg_nees_a/b    per-variant aggregates as in report.csv
    band_lo/hi                    consistency band (same run count for both)
  summary.json      deterministic scalar digest of the experiment
  metadata.json     timestamps, package version, resolved configuration

Every CSV starts with a '# schema=...' header row naming its format version.
"""


@dataclass
class ExperimentSpec:
    """Resolved CLI configuration for one experiment."""

    scenario_path: str
    variant: str
    n_runs: int
    base_seed: int
    out_dir: str
    window: int | None = None
    eta: float | None = None
    r_floor: float | None = None
    q_floor: float | None = None
    workers: int = 1

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n_runs < 1:
            raise ValueError("--runs must be at least 1")
        if self.base_seed < 0:
            raise ValueError("--seed must be nonnegative")
        if self.window is not None and self.window < 2:
            raise ValueError("--window must be at least 2")
        if self.eta is not None and not 0.0 < self.eta <= 1.0:
            raise ValueError("--eta must lie in (0, 1]")
        if self.r_floor is not None and not (math.isfinite(self.r_floor) and self.r_floor > 0.0):
            raise ValueError("--r-floor must be positive and finite")
        if self.q_floor is not None and not (math.isfinite(self.q_floor) and self.q_floor > 0.0):
            raise ValueError("--q-floor must be positive and finite")
        if self.workers < 1:
            raise ValueError("--workers must be at least 1")

    def adaptation_config(self) -> AdaptationConfig:
        cfg = AdaptationConfig()
        overrides = {}
        if self.window is not None:
            overrides["window"] = self.window
        if self.eta is not None:
            overrides["eta"] = self.eta
        if self.r_floor is not None:
            overrides["r_floor"] = self.r_floor
        if self.q_floor is not None:
            overrides["q_floor"] = self.q_floor
        return replace(cfg, **overrides) if overrides else cfg


#: Rows formatted per block: bounds the transient lists of one table's text.
_CSV_BLOCK_ROWS = 32


def _format_rows(columns) -> str:
    """The CSV rows of one table, a list of equal-length 1-D columns.

    Integer columns are written with %d and float columns with %.12g, each
    row ending in \\r\\n: the bytes csv.writer gives for these values.
    Columns are read block by block as Python scalars and each block is
    formatted with one row template.
    """
    template = ",".join("%d" if col.dtype.kind in "iu" else "%.12g" for col in columns) + "\r\n"
    blocks = []
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in columns]
        blocks.append("".join([template % row for row in zip(*block)]))
    return "".join(blocks)


def _write_csv(path: Path, schema: str, header: list[str], tables) -> None:
    """Write the '# schema=' line, the header row, then the rows of each table."""
    _write_csv_bodies(path, schema, header, map(_format_rows, tables))


def _write_csv_bodies(path: Path, schema: str, header: list[str], bodies) -> None:
    """Replace path with the '# schema=' line, the header row, then each body.

    A body is the text _format_rows gives for one table.
    """
    _unlink(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(header) + "\r\n")
        fh.writelines(bodies)


def _unlink(path: Path) -> None:
    """Remove an earlier output, so that it is replaced, not rewritten in place.

    On ext4 with its default auto_da_alloc option, truncating a file whose
    last contents are still being written back waits for that writeback, so
    re-running into the same --out waited on every output; creating a new
    file does not wait. A reader or hard link of the old file keeps its bytes.
    """
    path.unlink(missing_ok=True)


def _runs_columns(run_idx: int, log: RunLog) -> list[np.ndarray]:
    n = len(log.t)
    return [
        np.full(n, run_idx), np.arange(1, n + 1), log.t,
        *log.truth.T, *log.est_mean.T, *log.p_diag.T,
        log.nees, log.n_meas, log.n_gated,
        *log.r_diag.T, *log.q_diag.T, *log.dom_diag.T,
    ]


def _run_and_format(scenario, variant: str, seed: int, adaptation, run_idx: int) -> tuple[RunLog, str]:
    """One run and its runs.csv rows; module-level, so a worker process can run it."""
    log = run_once(scenario, variant, seed, adaptation)
    return log, _format_rows(_runs_columns(run_idx, log))


def _report_table(report: EnsembleReport) -> list[np.ndarray]:
    n = len(report.t)
    return [
        np.arange(1, n + 1), report.t, report.rmse_pos, report.avg_nees,
        np.full(n, report.band[0]), np.full(n, report.band[1]),
    ]


def _summary_dict(report) -> dict:
    return {
        "variant": report.variant,
        "n_runs": report.n_runs,
        "band_lo": report.band[0],
        "band_hi": report.band[1],
        "in_band_fraction": report.in_band,
        "time_avg_rmse_pos": report.time_avg_rmse_pos,
        "median_run_rmse_pos": float(np.median([s.time_avg_pos_rmse for s in report.run_summaries])),
        "runs": [
            {
                "seed": s.seed,
                "time_avg_pos_rmse": s.time_avg_pos_rmse,
                "time_avg_nees": s.time_avg_nees,
                "accepted": s.accepted,
                "gated": s.gated,
                "timed_out": s.timed_out,
            }
            for s in report.run_summaries
        ],
    }


def _write_json(path: Path, payload: dict) -> None:
    _unlink(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _metadata(spec_fields: dict, scenario) -> dict:
    return {
        "created_unix": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "package_version": __version__,
        "experiment": spec_fields,
        "scenario": scenario_to_dict(scenario),
    }


def _ensemble_report(scenario, spec: ExperimentSpec) -> EnsembleReport:
    """Aggregate report of the Monte Carlo runs of one spec."""
    logs = run_monte_carlo(
        scenario, spec.variant, spec.n_runs, spec.base_seed,
        max_workers=spec.workers, adaptation=spec.adaptation_config(),
    )
    return build_report(logs)


def cmd_run(spec: ExperimentSpec) -> int:
    """Run one variant; write runs.csv, report.csv, summary.json, metadata.json.

    Each run's runs.csv rows are formatted where the run ran, in a worker
    with --workers above 1. No output is written until every run returned.
    """
    spec.validate()
    scenario = load_scenario(spec.scenario_path)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    adaptation = spec.adaptation_config()
    jobs = [(scenario, spec.variant, spec.base_seed + i, adaptation, i) for i in range(spec.n_runs)]
    logs, bodies = zip(*fan_out(_run_and_format, jobs, spec.workers))
    report = build_report(list(logs))
    _write_csv_bodies(out / "runs.csv", RUNS_SCHEMA, RUNS_COLUMNS, bodies)
    _write_csv(out / "report.csv", REPORT_SCHEMA, REPORT_COLUMNS, [_report_table(report)])
    _write_json(out / "summary.json", _summary_dict(report))
    _write_json(out / "metadata.json", _metadata(vars(spec).copy(), scenario))
    print(f"{spec.variant}: {spec.n_runs} runs, "
          f"time-avg position RMSE {report.time_avg_rmse_pos:.4f} m, "
          f"NEES in-band {report.in_band:.1%} -> {out}")
    return 0


def cmd_compare(spec_a: ExperimentSpec, spec_b: ExperimentSpec) -> int:
    """Run two variants on identical seeds; write compare.csv and summaries."""
    spec_a.validate()
    spec_b.validate()
    scenario = load_scenario(spec_a.scenario_path)
    out = Path(spec_a.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep_a, rep_b = (_ensemble_report(scenario, spec) for spec in (spec_a, spec_b))
    steps, t, rmse_pos_a, avg_nees_a, band_lo, band_hi = _report_table(rep_a)
    table = [steps, t, rmse_pos_a, rep_b.rmse_pos, avg_nees_a, rep_b.avg_nees, band_lo, band_hi]
    _write_csv(out / "compare.csv", COMPARE_SCHEMA, COMPARE_COLUMNS, [table])
    rmse_a = [s.time_avg_pos_rmse for s in rep_a.run_summaries]
    rmse_b = [s.time_avg_pos_rmse for s in rep_b.run_summaries]
    wins_b = sum(1 for a, b in zip(rmse_a, rmse_b) if b < a)
    comparison = {
        "variant_a": _summary_dict(rep_a),
        "variant_b": _summary_dict(rep_b),
        "delta_time_avg_rmse_pos": rep_b.time_avg_rmse_pos - rep_a.time_avg_rmse_pos,
        "delta_in_band_fraction": rep_b.in_band - rep_a.in_band,
        "paired_win_fraction_b": wins_b / len(rmse_a),
    }
    _write_json(out / "compare_summary.json", comparison)
    _write_json(
        out / "metadata.json",
        _metadata({"a": vars(spec_a).copy(), "b": vars(spec_b).copy()}, scenario),
    )
    print(f"{spec_a.variant} vs {spec_b.variant}: "
          f"RMSE {rep_a.time_avg_rmse_pos:.4f} vs {rep_b.time_avg_rmse_pos:.4f} m, "
          f"in-band {rep_a.in_band:.1%} vs {rep_b.in_band:.1%}, "
          f"b wins {comparison['paired_win_fraction_b']:.0%} -> {out}")
    return 0


def cmd_scenario_default(out_path: str) -> int:
    """Write the built-in benchmark scenario to a JSON file."""
    save_scenario(default_scenario(), out_path)
    print(f"wrote default scenario to {out_path}")
    return 0


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--runs", type=int, default=1, help="number of Monte Carlo runs")
    parser.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed + i")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--window", type=int, default=None,
                        help="residual window length (default 15, minimum 2)")
    parser.add_argument("--eta", type=float, default=None,
                        help="adapter learning rate in (0, 1] (default 0.01)")
    parser.add_argument("--r-floor", type=float, default=None,
                        help="lower bound for R diagonal entries (default 1e-8)")
    parser.add_argument("--q-floor", type=float, default=None,
                        help="absolute lower bound for Q diagonal entries "
                             "(default: 0.01 x initial Q)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the Monte Carlo runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyloc",
        description="EKF localization with online fuzzy tuning of the noise covariances.",
        epilog=COLUMN_DOCS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one filter variant",
        epilog=COLUMN_DOCS, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_run.add_argument("--variant", required=True, choices=VARIANTS)
    _add_common_run_args(p_run)

    p_cmp = sub.add_parser(
        "compare", help="run two variants on identical seeds",
        epilog=COLUMN_DOCS, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_cmp.add_argument("--variant-a", required=True, choices=VARIANTS)
    p_cmp.add_argument("--variant-b", required=True, choices=VARIANTS)
    _add_common_run_args(p_cmp)

    p_def = sub.add_parser("scenario-default", help="write the built-in scenario to a file")
    p_def.add_argument("--out", required=True, help="destination JSON path")
    return parser


def _spec_from_args(args: argparse.Namespace, variant: str) -> ExperimentSpec:
    return ExperimentSpec(
        scenario_path=args.scenario,
        variant=variant,
        n_runs=args.runs,
        base_seed=args.seed,
        out_dir=args.out,
        window=args.window,
        eta=args.eta,
        r_floor=args.r_floor,
        q_floor=args.q_floor,
        workers=args.workers,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_spec_from_args(args, args.variant))
        if args.command == "compare":
            return cmd_compare(
                _spec_from_args(args, args.variant_a),
                _spec_from_args(args, args.variant_b),
            )
        if args.command == "scenario-default":
            return cmd_scenario_default(args.out)
    except (FuzzylocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
