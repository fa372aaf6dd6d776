"""Run the benchmark over ten seeds and summarise, optionally as a trajectory entry.

    python3 benchmarks/record.py
    python3 benchmarks/record.py --write benchmarks/trajectory/<entry>.json

Each (workload, seed) pair is one ``run.py`` process with ``run_seconds`` from
BENCHMARK.json. For every end-to-end metric it prints the median, the
quartiles and the quartile spread as a share of the median next to the
metric's bound; ``steady`` means the spread is under a third of the bound.
Quality values (deterministic per seed) and the online-dense scan latencies
are summarised the same way. One traced run per workload, with seed
``TRACE_SEED``, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("online-dense", "mc-adaptive", "cli-pooled")
SEEDS = list(range(10))
TRACE_SEED = 0
DETAIL_KEYS = ("scan_us_p50", "scan_us_p99", "tick_us_p99", "meas_per_scan")


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        out = Path(tmp) / "result.json"
        cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
        return json.loads(out.read_text())


def spread_summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    entry: dict = {"run_seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_one(workload, seed, seconds, 0))
            res = runs[-1]["result"]
            all_correct &= res["correct"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary: dict = {"seeds": SEEDS, "end_to_end": {}, "detail": {},
                         "quality": {}}
        for name in bounds:
            s = spread_summary([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            s["steady"] = s["spread"] < bounds[name] / 3
            summary["end_to_end"][name] = s
            print(f"  {name:14s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.3f} bound {s['bound']} "
                  f"{'steady' if s['steady'] else 'NOT STEADY'}")
        for key in DETAIL_KEYS:
            if key in runs[0]["detail"]:
                summary["detail"][key] = spread_summary([r["detail"][key] for r in runs])
        for key in runs[0]["detail"]["quality"]:
            summary["quality"][key] = spread_summary([r["detail"]["quality"][key] for r in runs])
        for group in ("detail", "quality"):
            for key, s in summary[group].items():
                print(f"  {key:24s} median {s['median']:.6g} spread {s['spread']:.3f}")
        summary["environment"] = runs[0]["detail"]["environment"]
        traced = run_one(workload, TRACE_SEED, seconds, 1)
        all_correct &= traced["result"]["correct"]
        summary["traced"] = {
            "seed": TRACE_SEED,
            "correct": traced["result"]["correct"],
            "counts_repeat": traced["detail"]["counts_repeat"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
        print(f"  traced seed {TRACE_SEED}: correct={traced['result']['correct']} "
              f"overhead={summary['traced']['per_layer']['trace.overhead']:.3f}")
        entry["workloads"][workload] = summary
    if args.write is not None:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
