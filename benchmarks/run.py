"""Benchmark entry point for fuzzyloc.

    python3 benchmarks/run.py --workload online-dense --seed 0 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same tree; nothing needs building. ``--trace 0`` measures the end-to-end
metrics untraced for ``--seconds``; ``--trace 1`` runs a fixed amount of
work untraced and then twice under the span tracer, and reports per-layer
calls, self times and counters. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``detail: {...}``) carries the workload-specific numbers, the
quality values and the environment. ``--out PATH`` also writes both as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "fuzzyloc" / "__init__.py").is_file():
    sys.exit(f"error: no fuzzyloc package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from fuzzyloc.simulator import save_scenario, scenario_to_dict  # noqa: E402

#: Fresh interpreters started to time set-up; their median is reported.
SETUP_REPEATS = 12
#: argv: the CPU to run on, then the scenario files. The interpreter keeps to
#: one CPU before numpy is imported, so numpy's BLAS starts no thread pool:
#: starting one costs 50-70 ms more when the other CPUs are busy, which made
#: set-up time follow the load on the rest of the machine.
SETUP_SNIPPET = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "import fuzzyloc\n"
    "for path in sys.argv[2:]:\n"
    "    fuzzyloc.load_scenario(path).validate()\n"
)

#: Untraced and traced repetitions of the fixed unit of work in a traced run.
TRACE_REPEATS = 2

#: Metrics every workload reports with --trace 0; BENCHMARK.json bounds them.
END_TO_END_UNITS = {"ticks_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Reported by name and unit on the lines before the result, not bounded:
#: tick latencies exist only where ticks are timed one by one (online-dense),
#: and quality values are deterministic per seed but spread too widely across
#: seeds at these ensemble sizes for a bound to mean anything.
DETAIL_UNITS = {
    "tick_us_p50": "us", "tick_us_p99": "us", "scan_us_p50": "us", "scan_us_p99": "us",
    "meas_per_scan": "ratio", "rmse_pos_m": "m", "nees_in_band": "fraction",
}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(wl, load_before) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workers": getattr(wl, "workers", 1),
        "scenarios": {k: scenario_to_dict(v) for k, v in wl.scenarios.items()},
    }


def setup_seconds(wl, workdir: Path) -> float:
    """Median wall time for a fresh interpreter to import and load the scenarios."""
    paths = []
    for key, scenario in wl.scenarios.items():
        path = workdir / f"setup-{key}.json"
        save_scenario(scenario, path)
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cpu = str(min(os.sched_getaffinity(0)))
    times = []
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms and
        # the measured time snaps to them.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, cpu, *paths], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Tally:
    """Runs attempted and failed over every request a benchmark run makes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def request(self, i: int):
        elapsed, raw = self.wl.request(i)
        self.attempted += self.wl.runs_per_request
        self.failed += self.wl.check(i, raw)
        return elapsed


def timed_run(wl, tally: Tally, seconds: float, workdir: Path):
    """Closed loop for ``seconds``, whole rotations of request kinds only.

    Each request kind's cost is the median of its repetitions. Requests last
    0.6-2 s, long enough to average the fast swings in CPU speed that other
    tenants cause on a shared machine, so the median over them is steadier
    than a low percentile, which picks the luckiest request.
    """
    tally.request(0)  # warm-up: imports, caches, reference outputs
    wl.begin_measurement()
    cycle = len(wl.kinds)
    times: dict[str, list[float]] = {kind: [] for kind in wl.kinds}
    j = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or j % cycle:
        elapsed = tally.request(j)
        if elapsed is not None:
            times[wl.kind(j)].append(elapsed)
        j += 1
    rss = peak_rss_mb()

    parity = wl.check_serial_parity(workdir)
    ticks = wl.ticks_per_request
    detail = {"requests": {k: len(v) for k, v in times.items()},
              "request_s_median": {k: float(np.median(v)) for k, v in times.items() if v},
              "ticks_per_request": ticks, "serial_parity": parity}
    if not all(times.values()):
        return None, detail, False
    detail.update(wl.latency_details())
    metrics = {
        "ticks_per_s": ticks * cycle / sum(np.median(v) for v in times.values()),
        "peak_rss_mb": rss,
        "setup_s": setup_seconds(wl, workdir),
    }
    return metrics, detail, parity


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, counts: dict, totals: dict, wl, overhead: dict) -> dict[str, float]:
    """Every per-layer metric; zero where this workload does not reach the layer."""
    out: dict[str, float] = {}
    for module, qualnames in tracer.SPAN_TARGETS.items():
        for qualname in qualnames:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
            out[f"{name}.self_s"] = totals.get(name, (0.0, 0.0))[1]
    out["models.wrap_angle.calls"] = counts.get("models.wrap_angle.calls", 0)
    scans = counts.get("ekf.step.scans", 0)
    meas = counts.get("ekf.step.measurements", 0)
    accepted = counts.get("ekf.gate.accepted", 0)
    active = counts.get("adaptation.CovarianceAdapter.after_update.active", 0)
    out.update({
        "ekf.step.scans": scans,
        "ekf.step.measurements": meas,
        "ekf.step.meas_per_scan": _ratio(meas, scans),
        "ekf.gate.accepted": accepted,
        "ekf.gate.accept_ratio": _ratio(accepted, out["ekf.gate.calls"]),
        "adaptation.CovarianceAdapter.after_update.active": active,
        "adaptation.CovarianceAdapter.after_update.active_ratio":
            _ratio(active, out["adaptation.CovarianceAdapter.after_update.calls"]),
        "simulator.run_monte_carlo.total_s": totals.get("simulator.run_monte_carlo", (0.0, 0.0))[0],
        "cli.output_bytes": getattr(wl, "output_bytes", 0),
        "cli.rows_written": getattr(wl, "rows_written", 0),
        "trace.spans": len(tr.span_start),
    })
    out.update(overhead)
    return out


PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "output_bytes": "B",
    "meas_per_scan": "ratio", "accept_ratio": "ratio", "active_ratio": "ratio",
    "overhead": "ratio", "ticks_per_s_untraced": "1/s", "ticks_per_s_traced": "1/s",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def traced_run(wl, tally: Tally):
    """Fixed work: untraced repeats, then two traced passes whose counts must match."""
    tracer.check_self_time_arithmetic()
    cycle = len(wl.kinds)

    failures = []

    def unit() -> float:
        total = 0.0
        for j in range(cycle):
            elapsed = tally.request(j)
            if elapsed is None:
                failures.append(j)
            else:
                total += elapsed
        return total

    tally.request(0)  # warm-up
    untraced = [unit() for _ in range(TRACE_REPEATS)]
    tr = tracer.Tracer()
    if wl.runs_in_workers:
        tr.install(tracer.PARENT_SIDE_TARGETS, {})
    else:
        tr.install()
    passes = []
    try:
        for _ in range(TRACE_REPEATS):
            tr.reset()
            elapsed = unit()
            counts = tr.call_counts()
            counts.update({"cli.output_bytes": getattr(wl, "output_bytes", 0),
                           "cli.rows_written": getattr(wl, "rows_written", 0)})
            passes.append((elapsed, counts, tr.totals() if not passes else None))
    finally:
        tr.uninstall()
    counts_repeat = all(p[1] == passes[0][1] for p in passes)
    ticks = wl.ticks_per_request * cycle
    untraced_tps = ticks / min(untraced)
    traced_tps = ticks / min(p[0] for p in passes)
    overhead = {
        "trace.ticks": ticks,
        "trace.ticks_per_s_untraced": untraced_tps,
        "trace.ticks_per_s_traced": traced_tps,
        "trace.overhead": untraced_tps / traced_tps,
    }
    _, counts, totals = passes[0]
    metrics = layer_metrics(tr, counts, totals, wl, overhead)
    detail = {"counts_repeat": counts_repeat, "missing_targets": tr.missing,
              "traced_passes": len(passes)}
    # A target that no longer resolves would read as a free layer: a refactor
    # that renames one has to update tracer.SPAN_TARGETS.
    return metrics, detail, counts_repeat and not failures and not tr.missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["online-dense", "mc-adaptive", "cli-pooled"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the result here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    load_before = os.getloadavg()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(wl)
        if args.trace:
            values, detail, ok = traced_run(wl, tally)
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        else:
            values, detail, ok = timed_run(wl, tally, args.seconds, workdir)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in (values or {}).items()}
        detail.update({
            "workload": wl.name,
            "seed": args.seed,
            "deterministic": wl.deterministic,
            "quality": wl.quality,
            "environment": environment(wl, load_before),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = bool(ok and values and wl.deterministic and tally.failed == 0)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    if args.out is not None:
        args.out.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print("detail: " + json.dumps(detail, sort_keys=True))
    for line in readable(metrics, detail):
        print(line)
    print(json.dumps(result))
    return 0


def readable(metrics: dict, detail: dict) -> list[str]:
    """One 'name value unit' line per reported and detail metric."""
    lines = [f"metric {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    named = {**{k: v for k, v in detail.items() if k in DETAIL_UNITS},
             **detail.get("quality", {})}
    for name, value in named.items():
        lines.append(f"metric {name} {value:.6g} {DETAIL_UNITS[name.split('.')[0]]}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
