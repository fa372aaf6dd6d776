"""Command line front end: run Monte Carlo experiments and compare variants.

Outputs are split into deterministic CSV bodies (seed-reproducible byte for
byte) and a metadata JSON that carries the timestamps and versions.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import textwrap
import time
from contextlib import closing
from dataclasses import fields
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .adaptation import DEFAULT_R_FLOOR, DEFAULT_WINDOW, Q_FLOOR_RATIO, AdaptationConfig
from .anfis import DEFAULT_ETA
from .errors import FuzzylocError
from .metrics import BAND_CONFIDENCE, build_report
from .simulator import (
    VARIANTS,
    RunDigest,
    _start,
    default_scenario,
    fan_out,
    load_scenario,
    run_once,
    save_scenario,
    scenario_to_dict,
)

class CsvTable(NamedTuple):
    """One CSV file, declared once: its header, columns, layout and --help lines.

    Each entry is (names, help, take): names as --help shows them, joined
    by ", ", and take(*record) giving one column per name. A record is a
    run index and its RunLog (runs.csv), an EnsembleReport (report.csv) or
    the reports of variants a and b (compare.csv). The scan entries, last,
    change only on scan ticks and the tick after; _format_rows formats
    them as one group.
    """

    file: str
    schema: str
    about: str
    entries: tuple
    scans: tuple = ()

    @property
    def header(self) -> list[str]:
        return [name for names, _, _ in self.entries + self.scans for name in names.split(", ")]

    def rows(self, *record) -> str:
        """The CSV rows of one record, with the step column and the scan group marked."""
        columns = [col for _, _, take in self.entries + self.scans for col in take(*record)]
        held_from = sum(len(names.split(", ")) for names, _, _ in self.entries) if self.scans else None
        return _format_rows(columns, tick_at=self.header.index("step"), held_from=held_from)


RUNS_TABLE = CsvTable("runs.csv", "fuzzyloc-runs-v1", "one row per run and control tick", (
    ("run", "run index (0-based)", lambda i, log: [np.full(len(log.t), i)]),
    ("step, t", "tick index within the run (1-based), time (s)",
     lambda i, log: [np.arange(1, len(log.t) + 1), log.t]),
    ("truth_x, truth_y, truth_phi", "true position (m), heading (rad, wrapped)",
     lambda i, log: log.truth.T),
    ("est_x, est_y, est_phi", "estimated position (m), heading (rad, wrapped)",
     lambda i, log: log.est_mean.T),
    ("P11, P22, P33", "state covariance diagonal (x, y, phi)", lambda i, log: log.p_diag.T),
    ("nees", "normalized estimation error squared", lambda i, log: [log.nees]),
), scans=(
    ("n_meas", "measurements accepted by the gate this tick", lambda i, log: [log.n_meas]),
    ("n_gated", "measurements rejected by the gate this tick", lambda i, log: [log.n_gated]),
    ("R11, R22", "measurement noise R in force (range, bearing)", lambda i, log: log.r_diag.T),
    ("Q11, Q22", "process noise Q in force (speed, steer)", lambda i, log: log.q_diag.T),
    ("dom11, dom22", "innovation covariance mismatch diagonal (NaN until the adapter is active)",
     lambda i, log: log.dom_diag.T),
))

#: The entries of report.csv that compare.csv has for variants a and b.
_PER_VARIANT = (
    ("rmse_pos", "position RMSE across runs (m)", lambda rep: [rep.rmse_pos]),
    ("avg_nees", "mean NEES across runs", lambda rep: [rep.avg_nees]),
)
REPORT_TABLE = CsvTable("report.csv", "fuzzyloc-report-v1", "one row per control tick, over all runs", (
    ("step, t", "as in runs.csv", lambda rep: [np.arange(1, len(rep.t) + 1), rep.t]),
    *_PER_VARIANT,
    ("band_lo, band_hi", f"two-sided {BAND_CONFIDENCE:.0%} consistency band for mean NEES",
     lambda rep: [np.full(len(rep.t), bound) for bound in rep.band]),
))

#: report.csv's entries, each per-variant one as <name>_a, <name>_b and the others from a.
COMPARE_TABLE = CsvTable(
    "compare.csv", "fuzzyloc-compare-v1", "one row per control tick (compare subcommand)", tuple(
        (f"{names}_a, {names}_b", f"{text}, per variant", lambda a, b, take=take: [*take(a), *take(b)])
        if (names, text, take) in _PER_VARIANT else (names, text, lambda a, b, take=take: take(a))
        for names, text, take in REPORT_TABLE.entries))


def _column_docs(*tables: CsvTable) -> str:
    """--help's lines on the output files, with every column named as in its table."""
    lines = ["output files"]
    for table in tables:
        lines.append(f"  {table.file:<12} {table.about}")
        lines += [textwrap.fill(text, 79, initial_indent=f"    {names:<28} ", subsequent_indent=" " * 33)
                  for names, text, _ in table.entries + table.scans]
    return "\n".join(lines)


COLUMN_DOCS = _column_docs(RUNS_TABLE, REPORT_TABLE, COMPARE_TABLE) + """
  summary.json      deterministic scalar digest of the experiment
  metadata.json     timestamps, package version, resolved configuration

Every CSV starts with a '# schema=...' header row naming its format version.
"""


#: Rows formatted per block: bounds the transient lists of one table's text.
_CSV_BLOCK_ROWS = 32

#: The last step and t columns _tick_texts formatted, by dtype and bytes,
#: and their texts. It lives in the module because a pool worker runs one
#: job per run and keeps nothing else between them; a worker forked after
#: the parent formatted a report inherits it.
_TICK_TEXTS: dict = {}


def _bits(col: np.ndarray) -> np.ndarray:
    """col's values as unsigned integers of their size: equal bits, equal text."""
    return col.view(f"u{col.dtype.itemsize}")


def _template(cells) -> tuple[str, list]:
    """The comma-joined template of one row of cells, and the cells it takes.

    A sequence of texts is taken with %s. An array that holds its bits over
    every row is written into the template as its one text; any other array
    is taken with %d (integers) or %.12g (floats).
    """
    pieces, taken = [], []
    for cell in cells:
        if not isinstance(cell, np.ndarray):
            pieces.append("%s")
            taken.append(cell)
            continue
        spec = "%d" if cell.dtype.kind in "iu" else "%.12g"
        bits = _bits(cell)
        if (bits == bits[0]).all():
            pieces.append(spec % cell[0].item())
        else:
            pieces.append(spec)
            taken.append(cell)
    return ",".join(pieces), taken


def _row_texts(template: str, taken, start: int, stop: int) -> list[str]:
    """template % row for rows start to stop of the taken cells, read as Python scalars."""
    if not taken:
        return [template] * (stop - start)
    block = [cell[start:stop].tolist() if isinstance(cell, np.ndarray) else cell[start:stop]
             for cell in taken]
    return [template % row for row in zip(*block)]


def _tick_texts(step: np.ndarray, t: np.ndarray) -> tuple[str, ...]:
    """The "step,t" text of each row, formatted once per process for each pair.

    Every run of a command shares its step and t columns with the others and
    with its report, so a process formats them for its first table only.
    """
    key = (step.dtype.str, step.tobytes(), t.dtype.str, t.tobytes())
    if key not in _TICK_TEXTS:
        _TICK_TEXTS.clear()
        _TICK_TEXTS[key] = tuple(_row_texts(*_template([step, t]), 0, len(t)))
    return _TICK_TEXTS[key]


def _held_texts(group) -> list[str]:
    """The text of each row of the columns in group, formatted once per
    stretch of rows in which none of them changes its bits."""
    template, taken = _template(group)
    changed = np.zeros(len(group[0]), dtype=bool)
    changed[0] = True
    for col in taken:
        bits = _bits(col)
        changed[1:] |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(changed)
    texts = _row_texts(template, [col[starts] for col in taken], 0, len(starts))
    return list(map(texts.__getitem__, (np.cumsum(changed) - 1).tolist()))


def _format_rows(columns, tick_at: int | None = None, held_from: int | None = None) -> str:
    """The CSV rows of one table, a list of equal-length 1-D columns.

    Integer columns are written with %d and float columns with %.12g, each
    row ending in \\r\\n: the bytes csv.writer gives for these values. Each
    value's text is made once per stretch of rows in which its bits hold
    (bits, so that -0.0 is never taken for 0.0 and a NaN holds as any value
    does): a column that holds over the whole table is written into the row
    template; the columns from held_from on are formatted together on the
    rows where one of them changes; and the step column at tick_at, with
    the t column after it, is formatted once per process (_tick_texts). The
    other columns are read block by block as Python scalars and each block
    is formatted with the row template.
    """
    n = len(columns[0])
    if n == 0:
        return ""
    cells = list(columns)
    if held_from is not None:
        cells[held_from:] = [_held_texts(columns[held_from:])]
    if tick_at is not None:
        cells[tick_at:tick_at + 2] = [_tick_texts(*columns[tick_at:tick_at + 2])]
    template, taken = _template(cells)
    template += "\r\n"
    return "".join(["".join(_row_texts(template, taken, start, min(start + _CSV_BLOCK_ROWS, n)))
                    for start in range(0, n, _CSV_BLOCK_ROWS)])


def _write_csv(out: Path, table: CsvTable, bodies) -> None:
    """Replace table.file in out with the '# schema=' line, the header row, then each body.

    A body is the text table.rows gives for one record, written as it
    arrives and in the order bodies yields it (see _replace).
    """
    head = [f"# schema={table.schema}\n", ",".join(table.header) + "\r\n"]
    _replace(out / table.file, chain(head, bodies))


def _write_json(path: Path, payload: dict) -> None:
    """Replace path with payload as indented JSON, keys sorted (see _replace)."""
    _replace(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _replace(path: Path, texts) -> None:
    """Replace path with the texts, each written as it arrives.

    The texts go to a partial file beside the output, removed if anything
    fails, so a failed write leaves the earlier output as it was. At the end
    the output is unlinked and the partial file renamed to it. On ext4 with
    its default auto_da_alloc option, truncating a file whose last contents
    are still being written back waits for that writeback, and so would a
    rename over it; creating a new file does not wait. A reader or hard link
    of the old file keeps its bytes.
    """
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", newline="") as fh:
            fh.writelines(texts)
        path.unlink(missing_ok=True)
        partial.rename(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _run_and_format(scenario, variant: str, seed: int, adaptation, run_idx: int) -> tuple[RunDigest, str]:
    """One run's digest and its runs.csv rows; module-level, so a worker process can run it."""
    log = run_once(scenario, variant, seed, adaptation)
    return log.digest(), RUNS_TABLE.rows(run_idx, log)


def _run_digest(scenario, variant: str, seed: int, adaptation) -> RunDigest:
    """One run's digest; module-level, so a worker process can run it."""
    return run_once(scenario, variant, seed, adaptation).digest()


def _summary_dict(report) -> dict:
    return {
        "variant": report.variant,
        "n_runs": report.n_runs,
        "band_lo": report.band[0],
        "band_hi": report.band[1],
        "in_band_fraction": report.in_band,
        "time_avg_rmse_pos": report.time_avg_rmse_pos,
        "median_run_rmse_pos": float(np.median([s.time_avg_pos_rmse for s in report.run_summaries])),
        "runs": [{k: v for k, v in vars(s).items() if k != "variant"} for s in report.run_summaries],
    }


def _adaptation_config(args: argparse.Namespace) -> AdaptationConfig:
    """AdaptationConfig with every setting the flags give; a flag left out keeps the default."""
    settings = {f.name: getattr(args, f.name) for f in fields(AdaptationConfig)}
    return AdaptationConfig(**{k: v for k, v in settings.items() if v is not None})


def _experiment(args: argparse.Namespace, variant: str, adaptation: AdaptationConfig) -> dict:
    """metadata.json's record of one variant's ensemble: the flags, and every
    setting of the AdaptationConfig the runs used, defaults included."""
    return dict(scenario_path=args.scenario, variant=variant, n_runs=args.runs, base_seed=args.seed,
                out_dir=args.out, workers=args.workers,
                **{f.name: getattr(adaptation, f.name) for f in fields(AdaptationConfig)})


def _metadata(experiment: dict, scenario) -> dict:
    return {
        "created_unix": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "package_version": __version__,
        "experiment": experiment,
        "scenario": scenario_to_dict(scenario),
    }


def _setup(args: argparse.Namespace, variants) -> tuple:
    """(scenario, AdaptationConfig, out directory) of a run or compare command.

    The flags, the scenario file, the adaptation settings and then
    simulator._start for each variant are checked before --out is created.
    """
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if args.window is not None and not 2 <= args.window <= sys.maxsize:
        raise ValueError(f"--window must lie in [2, {sys.maxsize}]")
    if args.eta is not None and not 0.0 < args.eta <= 1.0:
        raise ValueError("--eta must lie in (0, 1]")
    for flag, value in (("--r-floor", args.r_floor), ("--q-floor", args.q_floor)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{flag} must be positive and finite")
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    scenario = load_scenario(args.scenario)
    adaptation = _adaptation_config(args)
    for variant in variants:
        _start(scenario, variant, args.seed, adaptation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return scenario, adaptation, out


def cmd_run(args: argparse.Namespace) -> int:
    """Run one variant; write runs.csv, report.csv, summary.json, metadata.json.

    Each run's runs.csv rows are formatted by RUNS_TABLE.rows where the run
    ran, in a worker with --workers above 1; a worker formats the step and
    t texts for its first run only. fan_out takes each
    result from whichever worker is ready and yields them in run order, so
    the rows are written in run order; only each run's RunDigest is kept
    for the report. runs.csv is replaced once every run returned, and the
    other outputs are written after it; report.csv reuses the step and t
    texts when this process formatted runs. The run's arguments pass
    _setup's checks before --out is created.
    """
    scenario, adaptation, out = _setup(args, [args.variant])
    jobs = [(scenario, args.variant, args.seed + i, adaptation, i) for i in range(args.runs)]
    digests = []

    def bodies(results):
        for digest, body in results:
            digests.append(digest)
            yield body
            del body  # written: free it before the next result is received

    with closing(fan_out(_run_and_format, jobs, args.workers)) as results:
        _write_csv(out, RUNS_TABLE, bodies(results))
    report = build_report(digests)
    _write_csv(out, REPORT_TABLE, [REPORT_TABLE.rows(report)])
    _write_json(out / "summary.json", _summary_dict(report))
    _write_json(out / "metadata.json", _metadata(_experiment(args, args.variant, adaptation), scenario))
    print(f"{args.variant}: {args.runs} runs, "
          f"time-avg position RMSE {report.time_avg_rmse_pos:.4f} m, "
          f"NEES in-band {report.in_band:.1%} -> {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run two variants on identical seeds; write compare.csv and summaries.

    Both ensembles' arguments pass _setup's checks before --out is created
    and before either ensemble runs. The runs of a, then those of b, go
    through one fan_out, and each sends back only its RunDigest.
    """
    variants = (args.variant_a, args.variant_b)
    scenario, adaptation, out = _setup(args, variants)
    jobs = [(scenario, variant, args.seed + i, adaptation) for variant in variants for i in range(args.runs)]
    digests = list(fan_out(_run_digest, jobs, args.workers))
    rep_a, rep_b = build_report(digests[:args.runs]), build_report(digests[args.runs:])
    _write_csv(out, COMPARE_TABLE, [COMPARE_TABLE.rows(rep_a, rep_b)])
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
    experiments = {"a": _experiment(args, args.variant_a, adaptation),
                   "b": _experiment(args, args.variant_b, adaptation)}
    _write_json(out / "metadata.json", _metadata(experiments, scenario))
    print(f"{args.variant_a} vs {args.variant_b}: "
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
                        help=f"residual window length (default {DEFAULT_WINDOW}, minimum 2)")
    parser.add_argument("--eta", type=float, default=None,
                        help=f"adapter learning rate in (0, 1] (default {DEFAULT_ETA})")
    parser.add_argument("--r-floor", type=float, default=None,
                        help=f"lower bound for R diagonal entries (default {DEFAULT_R_FLOOR})")
    parser.add_argument("--q-floor", type=float, default=None,
                        help="absolute lower bound for Q diagonal entries "
                             f"(default: {Q_FLOOR_RATIO} x initial Q)")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "scenario-default":
            return cmd_scenario_default(args.out)
    except (FuzzylocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
