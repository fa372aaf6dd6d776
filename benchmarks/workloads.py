"""The three benchmark workloads, each one closed-loop client in one process.

A workload turns the benchmark seed into fixed inputs, then serves requests:
``request(i)`` runs request i against the program and returns the seconds it
took and the raw outputs; ``check(i, raw)`` verifies those outputs outside the
timed section. Every request of one kind repeats the same inputs, so its
outputs must be byte-identical each time.

- online-dense: plain-EKF replay of one long dense drive through ``ekf.step``,
  timed per tick. Loads the per-measurement path (predict_measurement, gate,
  update, observe, observation_jacobian); bypasses anfis, adaptation,
  simulator, cli and any ensemble batching (N=1).
- mc-adaptive: serial in-process ``run_monte_carlo`` + ``build_report``
  ensembles of the three adaptive variants on their acceptance settings.
  Sparse scans, so per-tick and per-scan adapter work dominate.
- cli-pooled: the README ``fuzzyloc run`` command through ``cli.main`` with a
  process pool of one worker per usable CPU. The only workload that writes
  CSV outputs and ships RunLogs back from worker processes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from fuzzyloc import cli, ekf, metrics, models, simulator
from fuzzyloc.errors import FuzzylocError

#: Runs per ensemble on the batch workloads.
MC_RUNS = 4
CLI_RUNS = 4

#: Replays of online-dense whose tick latencies are kept (a ring). The buffer
#: is written in full up front, so peak RSS does not grow with the number of
#: replays that fit in a run, i.e. with the program's speed.
KEPT_REPLAYS = 128

#: chi2_band confidence, as in build_report's default.
CONFIDENCE = 0.95


def cpu_workers() -> int:
    """One pool worker per CPU this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _runlog_arrays(logs):
    for log in logs:
        for field in dataclasses.fields(log):
            value = getattr(log, field.name)
            if isinstance(value, np.ndarray):
                yield value


def _log_failed(log) -> bool:
    """A run fails on timeout, a non-finite estimate or a non-positive P diagonal."""
    return (bool(log.timed_out) or not np.all(np.isfinite(log.est_mean))
            or not np.all(log.p_diag > 0.0))


class Workload:
    """Common bookkeeping: reference digests and quality values."""

    name = ""
    kinds: tuple[str, ...] = ("",)  # request i has kind kinds[i % len(kinds)]
    runs_per_request = 1
    runs_in_workers = False

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.deterministic = True

    def begin_measurement(self) -> None:
        """Called once the warm-up request is done; drops its samples."""

    def latency_details(self) -> dict[str, float]:
        """Per-tick latencies, where ticks are timed one by one."""
        return {}

    def check_serial_parity(self, workdir: Path) -> bool:
        """Compare against a serial run, where the workload has a parallel one."""
        return True

    def kind(self, i: int) -> str:
        return self.kinds[i % len(self.kinds)]

    def record(self, i: int, digest: str, quality: dict[str, float]) -> None:
        """Keep the first outputs of each kind as the reference for the rest."""
        kind = self.kind(i)
        if kind not in self.reference:
            self.reference[kind] = digest
            self.quality.update(quality)
        elif self.reference[kind] != digest:
            self.deterministic = False


class OnlineDense(Workload):
    """One long plain-EKF drive with ~4 landmarks per scan, replayed tick by tick."""

    name = "online-dense"
    variant = "ekf"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        base = simulator.default_scenario()
        self.scenario = dataclasses.replace(
            base, sensor_range=35.0, sensor_fov=2.0 * math.pi, duration=300.0, seed=seed,
        )
        self.scenarios = {self.variant: self.scenario}
        self._generate(seed)
        self.tick_ns = np.full((KEPT_REPLAYS, self.n), 0, dtype=np.uint32)
        self.replays = 0

    def _generate(self, seed: int) -> None:
        """Truth, clean controls and scans, drawn exactly as run_once draws them."""
        sc = self.scenario
        control_rng, sensor_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        )
        self.landmark_map = models.LandmarkMap(sc.landmarks)
        driver = simulator.WaypointDriver(sc)
        truth = models.Pose(*sc.start)
        ratio = sc.ticks_per_observation
        self.n = int(round(sc.duration * sc.control_rate))
        self.obs_tick = np.arange(1, self.n + 1) % ratio == 0
        self.truth, self.controls, self.scans = [], [], []
        for k in range(1, self.n + 1):
            clean, noisy = driver.drive(truth, control_rng, sc.true_noise)
            truth = models.motion_step(
                truth, clean, sc.dt, sc.wheelbase,
                noise=(noisy.v - clean.v, noisy.gamma - clean.gamma),
            )
            self.truth.append(truth)
            self.controls.append(clean)
            self.scans.append(simulator.sense(truth, self.landmark_map, sc, sensor_rng)
                              if self.obs_tick[k - 1] else [])
        self.timed_out = driver.reached == 0
        self.measurements = sum(len(s) for s in self.scans)
        self.ticks_per_request = self.n

    def begin_measurement(self) -> None:
        self.replays = 0

    def request(self, i: int):
        sc = self.scenario
        step = ekf.step  # looked up per request, so a traced run sees its wrapper
        state = ekf.GaussianState(np.array(sc.start, dtype=float),
                                  np.diag(simulator.DEFAULT_P0_DIAG))
        cov = ekf.CovPair.from_noise(sc.assumed_noise)
        lat = self.tick_ns[self.replays % KEPT_REPLAYS]
        means = np.empty((self.n, 3))
        covs = np.empty((self.n, 3, 3))
        clock = time.perf_counter_ns
        controls, scans, lmap = self.controls, self.scans, self.landmark_map
        dt, wheelbase = sc.dt, sc.wheelbase
        try:
            for k in range(self.n):
                t0 = clock()
                state, _ = step(state, controls[k], scans[k], cov, lmap, dt, wheelbase,
                                timestep=k + 1)
                lat[k] = clock() - t0
                means[k] = state.mean
                covs[k] = state.P
        except FuzzylocError as exc:
            return None, exc
        self.replays += 1
        return int(lat.sum()) * 1e-9, (means, covs)

    def check(self, i: int, raw) -> int:
        """Number of failed runs among this request's runs (0 or 1)."""
        if isinstance(raw, FuzzylocError):
            return 1
        means, covs = raw
        p_diag = np.diagonal(covs, axis1=1, axis2=2)
        failed = (self.timed_out or not np.all(np.isfinite(means))
                  or not np.all(p_diag > 0.0))
        quality = {} if self.reference else self._quality(means, covs)
        self.record(i, _digest([means, covs]), quality)
        return int(failed)

    def _quality(self, means, covs) -> dict[str, float]:
        truth = np.array([(p.x, p.y, p.phi) for p in self.truth])
        err = np.hypot(truth[:, 0] - means[:, 0], truth[:, 1] - means[:, 1])
        nees = np.array([
            metrics.nees(pose, ekf.GaussianState(mean, cov))
            for pose, mean, cov in zip(self.truth, means, covs)
        ])
        lo, hi = metrics.chi2_band(1, metrics.STATE_DIM, CONFIDENCE)
        # One run: the ensemble RMSE at each tick is that run's error norm.
        return {
            f"rmse_pos_m.{self.variant}": float(np.mean(err)),
            f"nees_in_band.{self.variant}": metrics.in_band_fraction(nees, lo, hi),
        }

    def latency_details(self) -> dict[str, float]:
        """Percentiles over the drive's ticks of their median latency, in microseconds.

        A tick's latency is its median over the kept replays. These are detail
        figures only; ticks_per_s comes from whole-replay times.
        """
        kept = self.tick_ns[:min(self.replays, KEPT_REPLAYS)]
        tick_us = np.median(kept, axis=0) * 1e-3
        scans = tick_us[self.obs_tick]
        return {
            "tick_us_p50": float(np.percentile(tick_us, 50)),
            "tick_us_p99": float(np.percentile(tick_us, 99)),
            "scan_us_p50": float(np.percentile(scans, 50)),
            "scan_us_p99": float(np.percentile(scans, 99)),
            "tick_samples": int(tick_us.size),
            "scan_samples": int(scans.size),
            "replays": self.replays,
            "meas_per_scan": self.measurements / int(self.obs_tick.sum()),
        }


def _misspecified(scenario, **assumed):
    return dataclasses.replace(
        scenario, assumed_noise=dataclasses.replace(scenario.assumed_noise, **assumed)
    )


class McAdaptive(Workload):
    """Serial ensembles of anfekf-r, anfekf-q and anfekf-rq, in rotation."""

    name = "mc-adaptive"
    kinds = ("anfekf-r", "anfekf-q", "anfekf-rq")
    runs_per_request = MC_RUNS

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        base = dataclasses.replace(simulator.default_scenario(), seed=seed)
        self.scenarios = {
            # Acceptance criterion 3: sensor noise assumed 20x too large in
            # range, 10x too small in bearing.
            "anfekf-r": _misspecified(base, sigma_r=2.0, sigma_theta=math.radians(0.1)),
            # Acceptance criterion 4: control noise assumed 10x/6x too small.
            "anfekf-q": _misspecified(base, sigma_v=0.03, sigma_gamma=math.radians(0.5)),
            "anfekf-rq": base,
        }
        self.base_seed = seed * 1000
        self.ticks_per_request = MC_RUNS * int(round(base.duration * base.control_rate))

    def request(self, i: int):
        variant = self.kind(i)
        t0 = time.perf_counter()
        try:
            logs = simulator.run_monte_carlo(
                self.scenarios[variant], variant, MC_RUNS, self.base_seed
            )
            report = metrics.build_report(logs)
        except FuzzylocError as exc:
            return None, exc
        return time.perf_counter() - t0, (logs, report)

    def check(self, i: int, raw) -> int:
        if isinstance(raw, FuzzylocError):
            return MC_RUNS
        logs, report = raw
        variant = self.kind(i)
        quality = {
            f"rmse_pos_m.{variant}": report.time_avg_rmse_pos,
            f"nees_in_band.{variant}": report.in_band,
        }
        self.record(i, _digest(_runlog_arrays(logs)), quality)
        return sum(_log_failed(log) for log in logs)


class CliPooled(Workload):
    """``fuzzyloc run --variant anfekf-r`` on the default scenario, pooled."""

    name = "cli-pooled"
    variant = "anfekf-r"
    runs_in_workers = True
    runs_per_request = CLI_RUNS

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.scenario = dataclasses.replace(simulator.default_scenario(), seed=seed)
        self.scenarios = {self.variant: self.scenario}
        self.scenario_path = workdir / "scenario.json"
        simulator.save_scenario(self.scenario, self.scenario_path)
        self.out_dir = workdir / "cli-out"
        self.base_seed = seed * 1000
        self.workers = cpu_workers()
        self.ticks_per_request = CLI_RUNS * int(round(
            self.scenario.duration * self.scenario.control_rate))
        self.output_bytes = 0
        self.rows_written = 0

    def argv(self, workers: int, out_dir: Path) -> list[str]:
        return [
            "run", "--variant", self.variant, "--scenario", str(self.scenario_path),
            "--runs", str(CLI_RUNS), "--seed", str(self.base_seed),
            "--workers", str(workers), "--out", str(out_dir),
        ]

    def request(self, i: int, workers: int | None = None, out_dir: Path | None = None):
        argv = self.argv(workers or self.workers, out_dir or self.out_dir)
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if status != 0:
            return None, RuntimeError(f"fuzzyloc {' '.join(argv)} exited {status}")
        return elapsed, out_dir or self.out_dir

    def read_outputs(self, out_dir: Path):
        """(runs.csv digest, failed runs, summary dict) of one invocation."""
        runs_csv = (out_dir / "runs.csv").read_bytes()
        summary = json.loads((out_dir / "summary.json").read_text())
        lines = runs_csv.decode().splitlines()
        reader = csv.reader(lines[1:])  # line 0 is the '# schema=' header
        header = next(reader)
        run_col = header.index("run")
        est = [header.index(c) for c in ("est_x", "est_y", "est_phi")]
        pdiag = [header.index(c) for c in ("P11", "P22", "P33")]
        bad_runs = {int(s["seed"]) - self.base_seed for s in summary["runs"] if s["timed_out"]}
        for row in reader:
            if (not all(math.isfinite(float(row[c])) for c in est)
                    or not all(float(row[c]) > 0.0 for c in pdiag)):
                bad_runs.add(int(row[run_col]))
        # CSV bodies only: metadata.json carries timestamps, so its size varies.
        csvs = [p.read_bytes() for p in sorted(out_dir.glob("*.csv"))]
        self.output_bytes = sum(len(body) for body in csvs)
        self.rows_written = sum(body.count(b"\n") - 2 for body in csvs)
        return hashlib.sha256(runs_csv).hexdigest(), len(bad_runs), summary

    def check(self, i: int, raw) -> int:
        if isinstance(raw, Exception):
            return CLI_RUNS
        digest, failed, summary = self.read_outputs(raw)
        quality = {
            f"rmse_pos_m.{self.variant}": summary["time_avg_rmse_pos"],
            f"nees_in_band.{self.variant}": summary["in_band_fraction"],
        }
        self.record(i, digest, quality)
        return failed

    def check_serial_parity(self, workdir: Path) -> bool:
        """runs.csv from ``--workers 1`` must equal the pooled one byte for byte."""
        out_dir = workdir / "cli-out-serial"
        elapsed, raw = self.request(0, workers=1, out_dir=out_dir)
        if elapsed is None:
            return False
        digest, _, _ = self.read_outputs(raw)
        return digest == self.reference.get(self.kind(0))


WORKLOADS = {cls.name: cls for cls in (OnlineDense, McAdaptive, CliPooled)}
