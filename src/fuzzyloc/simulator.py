"""Seedable ground-truth world, waypoint driver, and Monte Carlo runner.

Ground truth propagates at the control rate with noise-perturbed commands;
the filter predicts with the clean commands and updates against noisy scans
at the (slower) observation rate. All randomness comes from two substreams
spawned from one seed, one for control noise and one for sensor noise, so a
run is reproducible and the truth trajectory never depends on the filter
variant.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from multiprocessing import Pipe, Process
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import ekf, metrics, models
from .adaptation import AdaptationConfig, CovarianceAdapter
from .ekf import CovPair, GaussianState
from .errors import ScenarioError, SingularCovarianceError
from .models import ControlInput, Landmark, LandmarkMap, Measurement, NoiseSpec, Pose

VARIANTS = ("ekf", "anfekf-r", "anfekf-q", "anfekf-rq")

_VARIANT_MODE = {"ekf": None, "anfekf-r": "r", "anfekf-q": "q", "anfekf-rq": "rq"}

#: A waypoint counts as reached inside this radius (m).
WAYPOINT_RADIUS = 1.0

#: Control-noise pairs drawn per rng call in run_once; bounds the draw buffer.
CONTROL_NOISE_BLOCK = 256

#: Most control ticks a scenario may span. A RunLog holds about 250 B per
#: tick, so this is a 2.5 GB run; the default scenario runs 4000 ticks.
MAX_TICKS = 10_000_000

#: The filter starts at the true pose with a near-certain belief.
DEFAULT_P0_DIAG = (1e-6, 1e-6, 1e-6)

SCENARIO_SCHEMA = "fuzzyloc-scenario-v1"

_DEG = math.pi / 180.0


def _is_seed(value) -> bool:
    """Whether value can seed a run: a nonnegative integer that is not a bool."""
    return type(value) is not bool and isinstance(value, numbers.Integral) and value >= 0


@dataclass(frozen=True)
class Scenario:
    """World, vehicle, sensing, and noise description of one experiment.

    Angles are radians here; the JSON form stores angular fields in degrees.
    true_noise generates the world, assumed_noise initializes the filter's
    covariances; they differ exactly when the filter is mis-specified.
    """

    landmarks: tuple[Landmark, ...]
    waypoints: tuple[tuple[float, float], ...]
    wheelbase: float
    speed: float
    gamma_max: float
    sensor_range: float
    sensor_fov: float
    control_rate: float
    observe_rate: float
    true_noise: NoiseSpec
    assumed_noise: NoiseSpec
    duration: float
    seed: int = 0
    start: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def dt(self) -> float:
        return 1.0 / self.control_rate

    @property
    def ticks_per_observation(self) -> int:
        return int(round(self.control_rate / self.observe_rate))

    def validate(self) -> None:
        """Raise ScenarioError on any structurally invalid field."""
        if not self.landmarks:
            raise ScenarioError("scenario has no landmarks")
        if not self.waypoints:
            raise ScenarioError("scenario has no waypoints")
        ids = [lm.id for lm in self.landmarks]
        for i in ids:
            if type(i) is bool or not isinstance(i, numbers.Integral):
                raise ScenarioError(f"landmark ids must be integers, got {i!r}")
        if len(ids) != len(set(ids)):
            raise ScenarioError("landmark ids are not unique")
        for name in ("wheelbase", "speed", "gamma_max", "sensor_range", "sensor_fov",
                     "control_rate", "observe_rate", "duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ScenarioError(f"{name} must be positive and finite")
        if len(self.start) != 3 or not all(math.isfinite(v) for v in self.start):
            raise ScenarioError("start must be 3 finite values (x, y, phi)")
        if not all(math.isfinite(lm.x) and math.isfinite(lm.y) for lm in self.landmarks):
            raise ScenarioError("landmark coordinates must be finite")
        if not all(math.isfinite(wx) and math.isfinite(wy) for wx, wy in self.waypoints):
            raise ScenarioError("waypoint coordinates must be finite")
        if not _is_seed(self.seed):
            raise ScenarioError(f"seed must be a nonnegative integer, got {self.seed!r}")
        ticks = self.duration * self.control_rate  # run_once runs round(ticks) ticks
        if not math.isfinite(ticks):
            raise ScenarioError("duration x control_rate overflows")
        if ticks <= 0.5:
            raise ScenarioError("duration must span at least one control tick")
        if round(ticks) > MAX_TICKS:
            raise ScenarioError(f"duration x control_rate exceeds {MAX_TICKS} control ticks")
        ratio = self.control_rate / self.observe_rate
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ScenarioError("control_rate must be an integer multiple of observe_rate")
        for label, noise in (("true_noise", self.true_noise), ("assumed_noise", self.assumed_noise)):
            for field_name in ("sigma_v", "sigma_gamma", "sigma_r", "sigma_theta"):
                value = getattr(noise, field_name)
                if not (math.isfinite(value) and value > 0.0):
                    raise ScenarioError(f"{label}.{field_name} must be positive and finite")


def default_scenario() -> Scenario:
    """Built-in benchmark: a 3 m/s vehicle on a closed waypoint loop.

    The loop spans roughly 170 m x 90 m with 26 landmarks placed every 17 m
    or so along the path, alternating sides at a 7 m offset. That spacing
    keeps at least one landmark inside the forward half-plane sensor
    footprint nearly everywhere, so the filter never dead-reckons for more
    than a moment. Noise levels: 0.3 m/s speed, 3 deg steer, 0.1 m range,
    1 deg bearing; the assumed noise matches the true noise.
    """
    noise = NoiseSpec(sigma_v=0.3, sigma_gamma=3.0 * _DEG, sigma_r=0.1, sigma_theta=1.0 * _DEG)
    landmark_xy = [
        (58.0, 11.0), (79.0, 19.0), (75.0, 41.0), (87.0, 56.0), (66.0, 64.0),
        (70.0, 86.0), (51.0, 83.0), (34.0, 97.0), (17.0, 83.0), (0.0, 97.0),
        (-17.0, 83.0), (-34.0, 97.0), (-51.0, 83.0), (-70.0, 86.0), (-66.0, 64.0),
        (-87.0, 56.0), (-75.0, 41.0), (-79.0, 19.0), (-58.0, 11.0), (-51.0, -7.0),
        (-34.0, 7.0), (-17.0, -7.0), (0.0, 7.0), (17.0, -7.0), (34.0, 7.0),
        (51.0, -7.0),
    ]
    return Scenario(
        landmarks=tuple(Landmark(i + 1, x, y) for i, (x, y) in enumerate(landmark_xy)),
        waypoints=((60.0, 0.0), (85.0, 45.0), (60.0, 90.0), (-60.0, 90.0), (-85.0, 45.0), (-60.0, 0.0)),
        wheelbase=4.0,
        speed=3.0,
        gamma_max=30.0 * _DEG,
        sensor_range=20.0,
        sensor_fov=180.0 * _DEG,
        control_rate=40.0,
        observe_rate=5.0,
        true_noise=noise,
        assumed_noise=noise,
        duration=100.0,
        seed=0,
    )


def _noise_to_dict(noise: NoiseSpec) -> dict:
    return {
        "sigma_v": noise.sigma_v,
        "sigma_gamma_deg": noise.sigma_gamma / _DEG,
        "sigma_r": noise.sigma_r,
        "sigma_theta_deg": noise.sigma_theta / _DEG,
    }


def _number(value) -> float:
    """A scenario number as a float; a bool, string or other non-number is malformed."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _noise_from_dict(data: dict) -> NoiseSpec:
    return NoiseSpec(
        sigma_v=_number(data["sigma_v"]),
        sigma_gamma=_number(data["sigma_gamma_deg"]) * _DEG,
        sigma_r=_number(data["sigma_r"]),
        sigma_theta=_number(data["sigma_theta_deg"]) * _DEG,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready form; angular fields are stored in degrees."""
    return {
        "schema": SCENARIO_SCHEMA,
        "landmarks": [[lm.id, lm.x, lm.y] for lm in scenario.landmarks],
        "waypoints": [list(wp) for wp in scenario.waypoints],
        "wheelbase": scenario.wheelbase,
        "speed": scenario.speed,
        "gamma_max_deg": scenario.gamma_max / _DEG,
        "sensor_range": scenario.sensor_range,
        "sensor_fov_deg": scenario.sensor_fov / _DEG,
        "control_rate": scenario.control_rate,
        "observe_rate": scenario.observe_rate,
        "true_noise": _noise_to_dict(scenario.true_noise),
        "assumed_noise": _noise_to_dict(scenario.assumed_noise),
        "duration": scenario.duration,
        "seed": scenario.seed,
        "start": list(scenario.start),
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of scenario_to_dict; validates the result."""
    if not isinstance(data, dict):
        raise ScenarioError(f"malformed scenario: expected a JSON object, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported scenario schema: {schema!r} (expected {SCENARIO_SCHEMA!r})")
    try:
        scenario = Scenario(
            landmarks=tuple(Landmark(i, _number(x), _number(y)) for i, x, y in data["landmarks"]),
            waypoints=tuple((_number(x), _number(y)) for x, y in data["waypoints"]),
            wheelbase=_number(data["wheelbase"]),
            speed=_number(data["speed"]),
            gamma_max=_number(data["gamma_max_deg"]) * _DEG,
            sensor_range=_number(data["sensor_range"]),
            sensor_fov=_number(data["sensor_fov_deg"]) * _DEG,
            control_rate=_number(data["control_rate"]),
            observe_rate=_number(data["observe_rate"]),
            true_noise=_noise_from_dict(data["true_noise"]),
            assumed_noise=_noise_from_dict(data["assumed_noise"]),
            duration=_number(data["duration"]),
            seed=data.get("seed", 0),
            start=tuple(_number(v) for v in data.get("start", (0.0, 0.0, 0.0))),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    scenario.validate()
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


class WaypointDriver:
    """Constant-speed waypoint pursuit with saturated steering.

    Waypoints cycle; reaching the last one returns pursuit to the first.
    """

    def __init__(self, scenario: Scenario):
        self._waypoints = scenario.waypoints
        self._speed = scenario.speed
        self._gamma_max = scenario.gamma_max
        self._index = 0
        self.reached = 0

    def steer(self, x: float, y: float, phi: float) -> float:
        """Clean steer angle from pose (x, y, phi) toward the active waypoint.

        Advances to the next waypoint first when the pose is inside
        WAYPOINT_RADIUS of the active one; the angle is clamped to the
        vehicle limit.
        """
        wx, wy = self._waypoints[self._index]
        if math.hypot(wx - x, wy - y) <= WAYPOINT_RADIUS:
            self._index = (self._index + 1) % len(self._waypoints)
            self.reached += 1
            wx, wy = self._waypoints[self._index]
        steer = models.wrap_angle(math.atan2(wy - y, wx - x) - phi)
        return min(max(steer, -self._gamma_max), self._gamma_max)

    def drive(
        self, truth: Pose, rng: np.random.Generator, noise: NoiseSpec
    ) -> tuple[ControlInput, ControlInput]:
        """Command for one tick: (clean, noise-perturbed).

        The clean command is (speed, steer(truth)); the noisy command adds
        one Gaussian draw per channel and is what the true vehicle executes.
        """
        clean = ControlInput(self._speed, self.steer(truth.x, truth.y, truth.phi))
        noisy = ControlInput(
            clean.v + rng.normal(0.0, noise.sigma_v),
            clean.gamma + rng.normal(0.0, noise.sigma_gamma),
        )
        return clean, noisy


def _control_noise(
    rng: np.random.Generator, noise: NoiseSpec, n: int
) -> Iterator[tuple[float, float]]:
    """n (dv, dgamma) control-noise pairs, drawn CONTROL_NOISE_BLOCK pairs at a time.

    The values and the order of the draws are those of one
    rng.normal(0.0, sigma_v) then one rng.normal(0.0, sigma_gamma) per tick,
    as WaypointDriver.drive draws them.
    """
    sigmas = (noise.sigma_v, noise.sigma_gamma)
    for start in range(0, n, CONTROL_NOISE_BLOCK):
        size = (min(CONTROL_NOISE_BLOCK, n - start), 2)
        draws = iter(memoryview(rng.normal(0.0, sigmas, size=size)).cast("B").cast("d"))
        yield from zip(draws, draws)


def sense(
    truth: Pose, landmark_map: LandmarkMap, scenario: Scenario, rng: np.random.Generator
) -> list[Measurement]:
    """Noisy scan of every landmark inside sensor range and field of view.

    Visibility is decided on the noise-free geometry, so the set of observed
    landmarks depends only on the true pose. Measured ranges are floored at
    zero, matching a physical rangefinder. The geometry is computed once per
    landmark; the noisy bearing adds its noise to the unwrapped bearing and
    wraps once, exactly as models.observe does. A landmark more than the
    range away along either axis is skipped before any geometry: hypot never
    returns less than the larger of |dx| and |dy|.
    """
    half_fov = 0.5 * scenario.sensor_fov
    max_range = scenario.sensor_range
    sigma_r = scenario.true_noise.sigma_r
    sigma_theta = scenario.true_noise.sigma_theta
    x, y, phi = truth.x, truth.y, truth.phi
    scan: list[Measurement] = []
    for lm in landmark_map:
        if abs(lm.x - x) > max_range or abs(lm.y - y) > max_range:
            continue
        r, theta = models.range_bearing(x, y, phi, lm)
        if r > max_range or abs(models.wrap_angle(theta)) > half_fov:
            continue
        z_r = r + rng.normal(0.0, sigma_r)
        z_theta = models.wrap_angle(theta + rng.normal(0.0, sigma_theta))
        scan.append(Measurement(lm.id, 0.0 if z_r < 0.0 else z_r, z_theta))
    return scan


@dataclass
class RunSummary:
    """Scalar digest of one run."""

    variant: str
    seed: int
    time_avg_pos_rmse: float
    time_avg_nees: float
    accepted: int
    gated: int
    timed_out: bool


@dataclass
class RunLog:
    """Dense per-tick trace of one simulation run.

    Adaptation columns hold NaN on ticks where the adapter was inactive
    (non-observation ticks, warm-up, or the plain filter variant).
    """

    variant: str
    seed: int
    t: np.ndarray  # (n,)
    truth: np.ndarray  # (n, 3)
    est_mean: np.ndarray  # (n, 3)
    p_diag: np.ndarray  # (n, 3)
    nees: np.ndarray  # (n,)
    n_meas: np.ndarray  # (n,) accepted measurements per tick
    n_gated: np.ndarray  # (n,) rejected measurements per tick
    r_diag: np.ndarray  # (n, 2) measurement covariance in force
    q_diag: np.ndarray  # (n, 2) process covariance in force
    dom_diag: np.ndarray  # (n, 2)
    delta_dom_diag: np.ndarray  # (n, 2)
    applied_delta_r: np.ndarray  # (n, 2)
    q_factor: np.ndarray  # (n,)
    timed_out: bool = False

    def position_error(self) -> np.ndarray:
        return np.hypot(
            self.truth[:, 0] - self.est_mean[:, 0],
            self.truth[:, 1] - self.est_mean[:, 1],
        )

    def heading_error(self) -> np.ndarray:
        """Heading errors wrapped to (-pi, pi] by models.wrap_angles."""
        return models.wrap_angles(self.truth[:, 2] - self.est_mean[:, 2])

    def summary(self) -> RunSummary:
        err = self.position_error()
        return RunSummary(
            variant=self.variant,
            seed=self.seed,
            time_avg_pos_rmse=float(np.sqrt(np.mean(err**2))),
            time_avg_nees=float(np.mean(self.nees)),
            accepted=int(self.n_meas.sum()),
            gated=int(self.n_gated.sum()),
            timed_out=self.timed_out,
        )


def _check_run_arguments(
    seed_name: str, seed: int | None, gate_threshold: float, p0_diag: tuple[float, float, float],
) -> None:
    """Raise ValueError, naming the argument, on a seed that _is_seed rejects
    (the check Scenario.validate makes), a gate threshold that is NaN or
    negative, or a p0_diag that is not three positive finite values. A gate
    threshold of 0 or inf is legal."""
    if seed is not None and not _is_seed(seed):
        raise ValueError(f"{seed_name} must be a nonnegative integer, got {seed!r}")
    if not gate_threshold >= 0.0:
        raise ValueError(f"gate_threshold must be nonnegative, got {gate_threshold!r}")
    p0 = np.asarray(p0_diag, dtype=float)
    if p0.shape != (3,) or not all(math.isfinite(v) and v > 0.0 for v in p0.tolist()):
        raise ValueError(f"p0_diag must be 3 positive finite values, got {p0_diag!r}")


def run_once(
    scenario: Scenario,
    variant: str,
    seed: int | None = None,
    adaptation: AdaptationConfig | None = None,
    gate_threshold: float = ekf.DEFAULT_GATE_THRESHOLD,
    p0_diag: tuple[float, float, float] = DEFAULT_P0_DIAG,
) -> RunLog:
    """Simulate one run of the chosen filter variant.

    The filter starts at the true pose with covariance diag(p0_diag). On
    every control tick the truth moves with a noisy command while the filter
    predicts with the clean one; on observation ticks the filter fuses the
    scan, after which the adapter (if the variant has one) rewrites the
    covariances used from the next tick on.

    Args:
        scenario: world description; validated before the run.
        variant: one of VARIANTS.
        seed: run seed; defaults to scenario.seed.
        adaptation: adapter parameters; defaults to AdaptationConfig().
        gate_threshold: Mahalanobis acceptance bound for measurements.
        p0_diag: initial covariance diagonal.

    Returns:
        A RunLog with one row per control tick.

    Raises:
        ValueError: an unknown variant, or an argument _check_run_arguments rejects.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    _check_run_arguments("seed", seed, gate_threshold, p0_diag)
    scenario.validate()
    if seed is None:
        seed = scenario.seed
    control_rng, sensor_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )

    dt = scenario.dt
    wheelbase = scenario.wheelbase
    speed = scenario.speed
    ratio = scenario.ticks_per_observation
    n = int(round(scenario.duration * scenario.control_rate))

    landmark_map = LandmarkMap(scenario.landmarks)
    truth = Pose(*scenario.start)
    state = GaussianState(truth.as_array(), np.diag(p0_diag))
    cov = CovPair.from_noise(scenario.assumed_noise)
    driver = WaypointDriver(scenario)
    mode = _VARIANT_MODE[variant]
    adapter = CovarianceAdapter(mode, cov, adaptation) if mode else None
    q_mode = mode is not None and "q" in mode

    t = np.arange(1, n + 1) * dt
    truth_arr = np.empty((n, 3))
    est_arr = np.empty((n, 3))
    p_upper = np.empty((n, 6))  # P's upper triangle, row by row
    n_meas = np.zeros(n, dtype=int)
    n_gated = np.zeros(n, dtype=int)
    # R and Q change only when the adapter runs. Their variance pairs in
    # force are written as one slice per change: rows [filled, i) get the
    # values in force before tick i.
    r_diag = np.empty((n, 2))
    q_diag = np.empty((n, 2))
    q_v, q_gamma = cov.Q
    filled = 0
    dom_diag = np.full((n, 2), np.nan)
    delta_dom_diag = np.full((n, 2), np.nan)
    applied_delta_r = np.full((n, 2), np.nan)
    q_factor = np.full(n, np.nan)

    # Between scans the truth pose and the belief (mean and P's upper
    # triangle) live as floats, and each tick's row goes straight into the
    # arrays above through flat views. Scan ticks rebuild a GaussianState
    # for ekf.step and the adapter. NEES is computed once, after the loop.
    tx, ty, tphi = truth.x, truth.y, truth.phi
    x, y, phi = state.mean.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P.tolist()
    truth_out, est_out, p_out, dom_out, delta_dom_out, applied_out, q_factor_out = (
        memoryview(a).cast("B").cast("d")
        for a in (truth_arr, est_arr, p_upper, dom_diag, delta_dom_diag, applied_delta_r, q_factor)
    )
    steer_toward = driver.steer
    motion_floats, wrap_angle = models.motion_floats, models.wrap_angle
    predict_floats = ekf.predict_floats

    i = 0
    try:
        for i, (dv, dgamma) in enumerate(_control_noise(control_rng, scenario.true_noise, n)):
            steer = steer_toward(tx, ty, tphi)
            # the truth's command is drive's noisy one, clean + draw, applied as
            # motion_step(clean, noise=noisy - clean) applies it, rounding included
            tx, ty, tphi = motion_floats(
                tx, ty, tphi, speed + ((speed + dv) - speed), steer + ((steer + dgamma) - steer),
                dt, wheelbase,
            )
            tphi = wrap_angle(tphi)
            if (i + 1) % ratio:
                x, y, phi, p00, p01, p02, p11, p12, p22 = predict_floats(
                    x, y, phi, p00, p01, p02, p11, p12, p22, speed, steer, q_v, q_gamma, dt, wheelbase,
                )
            else:
                scan = sense(Pose(tx, ty, tphi), landmark_map, scenario, sensor_rng)
                prior = ekf._belief(x, y, phi, p00, p01, p02, p11, p12, p22)
                clean = ControlInput(speed, steer)
                state, records = ekf.step(
                    prior, clean, scan, cov, landmark_map, dt, wheelbase,
                    gate_threshold=gate_threshold, timestep=i + 1,
                )
                accepted = [rec.accepted for rec in records].count(True)
                n_meas[i] = accepted
                n_gated[i] = len(records) - accepted
                if adapter is not None:
                    G_u = (models.control_jacobian_floats(phi, speed, steer, dt, wheelbase)
                           if q_mode else None)
                    r_diag[filled:i] = cov.R
                    q_diag[filled:i] = cov.Q
                    cov, trace = adapter.after_update(records, G_u, cov)
                    q_v, q_gamma = cov.Q
                    filled = i
                    if trace.active:
                        k = 2 * i
                        dom_out[k], dom_out[k + 1] = trace.dom_diag
                        delta_dom_out[k], delta_dom_out[k + 1] = trace.delta_dom_diag
                        applied_out[k], applied_out[k + 1] = trace.applied_delta_r
                        q_factor_out[i] = trace.q_factor
                x, y, phi = state.mean.tolist()
                (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P.tolist()
            k = 3 * i
            truth_out[k], truth_out[k + 1], truth_out[k + 2] = tx, ty, tphi
            est_out[k], est_out[k + 1], est_out[k + 2] = x, y, phi
            k = 6 * i
            p_out[k], p_out[k + 1], p_out[k + 2] = p00, p01, p02
            p_out[k + 3], p_out[k + 4], p_out[k + 5] = p11, p12, p22
    except Exception:
        # An exactly singular P in a row logged before the failing tick i
        # is reported instead of the failure, as a per-tick NEES would.
        try:
            metrics.nees_rows(truth_arr[:i], est_arr[:i], p_upper[:i])
        except SingularCovarianceError as singular:
            raise singular from None
        raise
    nees_arr = metrics.nees_rows(truth_arr, est_arr, p_upper)
    r_diag[filled:] = cov.R
    q_diag[filled:] = cov.Q

    return RunLog(
        variant=variant,
        seed=seed,
        t=t,
        truth=truth_arr,
        est_mean=est_arr,
        p_diag=p_upper[:, (0, 3, 5)],
        nees=nees_arr,
        n_meas=n_meas,
        n_gated=n_gated,
        r_diag=r_diag,
        q_diag=q_diag,
        dom_diag=dom_diag,
        delta_dom_diag=delta_dom_diag,
        applied_delta_r=applied_delta_r,
        q_factor=q_factor,
        timed_out=driver.reached == 0,
    )


def _fan_out_worker(job: Callable, items: list[tuple], conn) -> None:
    """Send (True, job(*args)) for each args in items, or (False, exception) and stop."""
    try:
        for args in items:
            conn.send((True, job(*args)))
    except Exception as exc:
        conn.send((False, exc))
    finally:
        conn.close()


def fan_out(job: Callable, items: list[tuple], workers: int) -> Iterator:
    """Yield job(*args) for each args in items, in item order, computed by
    min(workers, len(items)) processes.

    Worker w runs items w, w + W, ... and sends each result down its own
    one-way pipe. The calling thread receives them in item order, so the
    results equal the serial ones, and each is yielded as it arrives. No
    helper thread receives anything: a result unpickled on another thread
    would fill that thread's malloc arena, which this process keeps and
    every later forked worker inherits. With one worker or one item the
    calls run in this process, each when its result is asked for. job must
    be a module-level function, so that a spawned worker can unpickle it.

    An exception raised by job is raised here, with its type and message;
    a worker that exits without sending its results raises RuntimeError.
    Every worker is joined before the generator finishes, raises or is
    closed; on a failure or a close the workers still running are
    terminated first.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        yield from (job(*args) for args in items)
        return
    procs, conns = [], []
    try:
        for w in range(workers):
            receiver, sender = Pipe(duplex=False)
            conns.append(receiver)
            proc = Process(target=_fan_out_worker, args=(job, items[w::workers], sender))
            proc.start()
            procs.append(proc)
            # Only the worker holds the sending end now, so its exit ends the pipe.
            sender.close()
        for i in range(len(items)):
            try:
                ok, value = conns[i % workers].recv()
            except EOFError:
                proc = procs[i % workers]
                proc.join()
                raise RuntimeError(
                    f"worker process {proc.pid} exited with code {proc.exitcode} "
                    f"before returning item {i}"
                ) from None
            if not ok:
                raise value
            yield value
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def run_monte_carlo(
    scenario: Scenario,
    variant: str,
    n_runs: int,
    base_seed: int = 0,
    max_workers: int = 1,
    adaptation: AdaptationConfig | None = None,
    gate_threshold: float = ekf.DEFAULT_GATE_THRESHOLD,
    p0_diag: tuple[float, float, float] = DEFAULT_P0_DIAG,
) -> list[RunLog]:
    """Run n_runs independent simulations seeded base_seed + run index.

    Results are ordered by run index regardless of worker scheduling, so a
    parallel invocation is interchangeable with a serial one. fan_out starts
    at most one worker process per run, and none for a single worker or run.
    The arguments are checked as run_once checks them before any process starts.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    _check_run_arguments("base_seed", base_seed, gate_threshold, p0_diag)
    runs = [(scenario, variant, seed, adaptation, gate_threshold, p0_diag)
            for seed in range(base_seed, base_seed + n_runs)]
    return list(fan_out(run_once, runs, max_workers))
