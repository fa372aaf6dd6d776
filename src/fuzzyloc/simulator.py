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
from itertools import chain
from math import atan2, cos, hypot, pi, sin
from multiprocessing import Pipe, Process, get_start_method
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import ekf, metrics, models
from .adaptation import AdaptationConfig, CovarianceAdapter
from .ekf import CovPair, GaussianState
from .errors import ScenarioError, SingularCovarianceError
from .models import (
    TWO_PI, ControlInput, Landmark, LandmarkMap, Measurement, NoiseSpec, Pose, _control, _is_finite,
    _is_number, _measurement, _pose,
)

_VARIANT_MODE = {"ekf": None, "anfekf-r": "r", "anfekf-q": "q", "anfekf-rq": "rq"}

VARIANTS = tuple(_VARIANT_MODE)

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

#: (JSON key, Scenario field, radians per JSON unit) of each number field, in
#: the order Scenario.validate checks them; a unit of 1.0 is exact both ways.
_NUMBER_FIELDS = (
    ("wheelbase", "wheelbase", 1.0),
    ("speed", "speed", 1.0),
    ("gamma_max_deg", "gamma_max", _DEG),
    ("sensor_range", "sensor_range", 1.0),
    ("sensor_fov_deg", "sensor_fov", _DEG),
    ("control_rate", "control_rate", 1.0),
    ("observe_rate", "observe_rate", 1.0),
    ("duration", "duration", 1.0),
)

#: The Scenario fields that hold a NoiseSpec, stored as JSON objects under their names.
_NOISE_RECORDS = ("true_noise", "assumed_noise")

#: (JSON key, NoiseSpec field, radians per JSON unit) of each noise record entry.
_NOISE_FIELDS = (
    ("sigma_v", "sigma_v", 1.0),
    ("sigma_gamma_deg", "sigma_gamma", _DEG),
    ("sigma_r", "sigma_r", 1.0),
    ("sigma_theta_deg", "sigma_theta", _DEG),
)

#: The keys scenario_to_dict writes, at the top level and in a noise record.
_SCENARIO_KEYS = {"schema", "landmarks", "waypoints", "seed", "start", *_NOISE_RECORDS,
                  *(key for key, _, _ in _NUMBER_FIELDS)}
_NOISE_KEYS = {key for key, _, _ in _NOISE_FIELDS}


def _is_seed(value) -> bool:
    """Whether value can seed a run: a nonnegative integer that is not a bool."""
    return type(value) is not bool and isinstance(value, numbers.Integral) and value >= 0


def _finite_values(values, n: int) -> bool:
    """Whether values is a sequence of n values that _is_finite accepts."""
    try:
        return len(values) == n and all(_is_finite(v) for v in values)
    except TypeError:  # values has no length
        return False


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

    @property
    def ticks(self) -> float:
        """duration x control_rate in float arithmetic; run_once runs round(ticks) control ticks."""
        return float(self.duration) * float(self.control_rate)

    def validate(self) -> None:
        """Raise ScenarioError, naming the field, on any malformed or invalid field.

        A number field must hold a real number that is not a bool, as the
        scenario loader reads them; landmarks and waypoints must be sequences,
        a landmark a Landmark, a waypoint two numbers and start three numbers.
        """
        for name in ("landmarks", "waypoints"):
            items = getattr(self, name)
            try:
                count = len(items)
            except TypeError:  # items has no length
                raise ScenarioError(f"{name} must be a sequence, got {items!r}") from None
            if count == 0:
                raise ScenarioError(f"scenario has no {name}")
        for lm in self.landmarks:
            if not isinstance(lm, Landmark):
                raise ScenarioError(f"landmarks must hold Landmark objects, got {lm!r}")
        ids = [lm.id for lm in self.landmarks]
        for i in ids:
            if type(i) is bool or not isinstance(i, numbers.Integral):
                raise ScenarioError(f"landmark ids must be integers, got {i!r}")
        if len(ids) != len(set(ids)):
            raise ScenarioError("landmark ids are not unique")
        for _, name, _ in _NUMBER_FIELDS:
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0.0):
                raise ScenarioError(f"{name} must be positive and finite, got {value!r}")
        if not _finite_values(self.start, 3):
            raise ScenarioError(f"start must be 3 finite values (x, y, phi), got {self.start!r}")
        for lm in self.landmarks:
            if not (_is_finite(lm.x) and _is_finite(lm.y)):
                raise ScenarioError(f"landmark coordinates must be finite, got {lm!r}")
        for wp in self.waypoints:
            if not _finite_values(wp, 2):
                raise ScenarioError(f"waypoint coordinates must be 2 finite values (x, y), got {wp!r}")
        if not _is_seed(self.seed):
            raise ScenarioError(f"seed must be a nonnegative integer, got {self.seed!r}")
        ticks = self.ticks
        if not math.isfinite(ticks):
            raise ScenarioError("duration x control_rate overflows")
        if ticks <= 0.5:
            raise ScenarioError("duration must span at least one control tick")
        if round(ticks) > MAX_TICKS:
            raise ScenarioError(f"duration x control_rate exceeds {MAX_TICKS} control ticks")
        ratio = self.control_rate / self.observe_rate
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ScenarioError("control_rate must be an integer multiple of observe_rate")
        for label in _NOISE_RECORDS:
            noise = getattr(self, label)
            if not isinstance(noise, NoiseSpec):
                raise ScenarioError(f"{label} must be a NoiseSpec, got {noise!r}")
            for _, field_name, _ in _NOISE_FIELDS:
                value = getattr(noise, field_name)
                if not (_is_finite(value) and value > 0.0):
                    raise ScenarioError(f"{label}.{field_name} must be positive and finite, got {value!r}")


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


def _number(value) -> float:
    """A scenario number as a float; a bool, string or other non-number is malformed."""
    if not _is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _numbers_to_dict(record, table) -> dict:
    return {key: float(getattr(record, name)) / unit for key, name, unit in table}


def _numbers_from_dict(data: dict, table) -> dict:
    return {name: _number(data[key]) * unit for key, name, unit in table}


def _reject_unknown_keys(record, known: set, where: str) -> None:
    """Raise ScenarioError naming the first key of record outside known, if record is a dict."""
    if isinstance(record, dict):
        for key in record:
            if key not in known:
                raise ScenarioError(f"malformed scenario: unknown key {key!r} in {where}")


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready form of Python ints and floats; angular fields are stored in degrees."""
    return {
        "schema": SCENARIO_SCHEMA,
        "landmarks": [[int(lm.id), float(lm.x), float(lm.y)] for lm in scenario.landmarks],
        "waypoints": [[float(x), float(y)] for x, y in scenario.waypoints],
        **_numbers_to_dict(scenario, _NUMBER_FIELDS),
        **{label: _numbers_to_dict(getattr(scenario, label), _NOISE_FIELDS) for label in _NOISE_RECORDS},
        "seed": int(scenario.seed),
        "start": [float(v) for v in scenario.start],
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of scenario_to_dict; validates the result, and rejects a key that it does not write."""
    if not isinstance(data, dict):
        raise ScenarioError(f"malformed scenario: expected a JSON object, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported scenario schema: {schema!r} (expected {SCENARIO_SCHEMA!r})")
    _reject_unknown_keys(data, _SCENARIO_KEYS, "the scenario")
    for label in _NOISE_RECORDS:
        _reject_unknown_keys(data.get(label), _NOISE_KEYS, label)
    try:
        scenario = Scenario(
            landmarks=tuple(Landmark(i, _number(x), _number(y)) for i, x, y in data["landmarks"]),
            waypoints=tuple((_number(x), _number(y)) for x, y in data["waypoints"]),
            **_numbers_from_dict(data, _NUMBER_FIELDS),
            **{label: NoiseSpec(**_numbers_from_dict(data[label], _NOISE_FIELDS))
               for label in _NOISE_RECORDS},
            seed=data.get("seed", 0),
            start=tuple(_number(v) for v in data.get("start", (0.0, 0.0, 0.0))),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    scenario.validate()
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write scenario as JSON; ScenarioError, before anything is written, if validate rejects it."""
    scenario.validate()
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON file; ScenarioError names the path if it cannot be read or parsed."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


class WaypointDriver:
    """Constant-speed waypoint pursuit with saturated steering.

    Waypoints cycle; reaching the last one returns pursuit to the first.
    run_once writes steer out in its own tick loop, with this class as the
    reference its tests compare against.
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
    as WaypointDriver.drive draws them. Each block is drawn when its first
    pair is asked for, and its pairs are zipped from one iterator over it,
    so the caller's loop takes them without resuming a generator frame.
    """
    sigmas = (noise.sigma_v, noise.sigma_gamma)
    blocks = (memoryview(rng.normal(0.0, sigmas, size=(min(CONTROL_NOISE_BLOCK, n - start), 2)))
              .cast("B").cast("d") for start in range(0, n, CONTROL_NOISE_BLOCK))
    return chain.from_iterable(zip(*[iter(block)] * 2) for block in blocks)


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
        scan.append(_measurement(lm.id, 0.0 if z_r < 0.0 else z_r, z_theta))
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

    def digest(self) -> RunDigest:
        """The members of this run that build_report reads, with the same bits."""
        return RunDigest(self.variant, self.t, self.nees, self.position_error(), self.summary())


@dataclass
class RunDigest:
    """What build_report reads of one run: a RunLog's variant, t and nees,
    its position error and its summary.

    It answers position_error() and summary() as the RunLog does and pickles
    to about an eighth of the RunLog's size, so the CLI's worker processes
    send it back instead of the RunLog.
    """

    variant: str
    t: np.ndarray  # (n,)
    nees: np.ndarray  # (n,)
    pos_error: np.ndarray  # (n,)
    run_summary: RunSummary

    def position_error(self) -> np.ndarray:
        return self.pos_error

    def summary(self) -> RunSummary:
        return self.run_summary


def _start(
    scenario: Scenario, variant: str, seed: int | None, adaptation: AdaptationConfig | None,
    seed_name: str = "seed",
) -> tuple[CovPair, CovarianceAdapter | None]:
    """Check a run's arguments; return its start covariances and its adapter.

    In this order: ValueError on a variant not in VARIANTS, ValueError naming
    seed_name on a seed that _is_seed rejects (the check Scenario.validate
    makes; None stands for the scenario's seed), then scenario.validate().
    The CovPair comes from the assumed noise. The adapter is None for the
    plain filter; its constructor rejects a q_floor above the Q ceiling.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if seed is not None and not _is_seed(seed):
        raise ValueError(f"{seed_name} must be a nonnegative integer, got {seed!r}")
    scenario.validate()
    cov = CovPair.from_noise(scenario.assumed_noise)
    mode = _VARIANT_MODE[variant]
    return cov, CovarianceAdapter(mode, cov, adaptation) if mode else None


def run_once(
    scenario: Scenario,
    variant: str,
    seed: int | None = None,
    adaptation: AdaptationConfig | None = None,
) -> RunLog:
    """Simulate one run of the chosen filter variant.

    The filter starts at the true pose with covariance diag(DEFAULT_P0_DIAG),
    read when the run starts, and gates measurements at
    ekf.DEFAULT_GATE_THRESHOLD. On every control tick the truth moves with a
    noisy command while the filter predicts with the clean one; on
    observation ticks the filter fuses the scan, after which the adapter (if
    the variant has one) rewrites the covariances used from the next tick on.

    Args:
        scenario: world description; validated before the run.
        variant: one of VARIANTS.
        seed: run seed; defaults to scenario.seed.
        adaptation: adapter parameters; defaults to AdaptationConfig().

    Returns:
        A RunLog with one row per control tick.

    Raises:
        ValueError, ScenarioError: what _start rejects, before any rng is built.
    """
    cov, adapter = _start(scenario, variant, seed, adaptation)
    if seed is None:
        seed = scenario.seed
    control_rng, sensor_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )

    dt = scenario.dt
    wheelbase = scenario.wheelbase
    speed = scenario.speed
    ratio = scenario.ticks_per_observation
    n = int(round(scenario.ticks))

    landmark_map = LandmarkMap(scenario.landmarks)
    tx, ty, tphi = scenario.start
    tphi = models.wrap_angle(tphi)
    state = GaussianState((tx, ty, tphi), np.diag(DEFAULT_P0_DIAG))
    q_mode = adapter is not None and "q" in adapter.mode

    t = np.arange(1, n + 1) * dt
    truth_arr = np.empty((n, 3))
    est_arr = np.empty((n, 3))
    p_upper = np.empty((n, 6))  # P's upper triangle, row by row
    n_meas = np.zeros(n, dtype=int)
    n_gated = np.zeros(n, dtype=int)
    # R and Q change only when the adapter runs. Each CovPair in force is
    # kept with the tick it took over on, and the R and Q columns are
    # written after the loop: the pair an adapter gives on tick i is in
    # force from row i until the next one takes over.
    held_from, held = [0], [cov]
    q_v, q_gamma = cov.Q
    dom_diag = np.full((n, 2), np.nan)
    delta_dom_diag = np.full((n, 2), np.nan)
    applied_delta_r = np.full((n, 2), np.nan)
    q_factor = np.full(n, np.nan)

    # Between scans the truth pose and the belief (mean and P's upper
    # triangle) live as floats, and each tick's row goes straight into the
    # arrays above through flat views. Scan ticks hand them to sense and
    # ekf.step through the private builders, which skip the checks of values
    # already in form. NEES is computed once, after the loop. The
    # steer, the truth's motion and the prediction between scans are written
    # out in this frame, every operation in the order of its reference:
    # WaypointDriver.steer, models.motion_floats and ekf.predict_floats.
    x, y, phi = state.mean
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
    truth_out, est_out, p_out, dom_out, delta_dom_out, applied_out, q_factor_out = (
        memoryview(a).cast("B").cast("d")
        for a in (truth_arr, est_arr, p_upper, dom_diag, delta_dom_diag, applied_delta_r, q_factor)
    )
    # WaypointDriver's pursuit state, and the products of predict_floats
    # that depend on the clean speed alone
    waypoints, gamma_max = scenario.waypoints, scenario.gamma_max
    wp_index = reached = 0
    wx, wy = waypoints[0]
    dtv, ndtv = dt * speed, -dt * speed
    dtv_wb = dtv / wheelbase

    i = 0
    try:
        for i, (dv, dgamma) in enumerate(_control_noise(control_rng, scenario.true_noise, n)):
            # steer: advance inside the radius, wrap the bearing error, then
            # clamp it with min(max(steer, -gamma_max), gamma_max)'s comparisons
            if hypot(wx - tx, wy - ty) <= WAYPOINT_RADIUS:
                wp_index = (wp_index + 1) % len(waypoints)
                reached += 1
                wx, wy = waypoints[wp_index]
            steer = (atan2(wy - ty, wx - tx) - tphi) % TWO_PI
            if steer > pi:
                steer -= TWO_PI
            if -gamma_max > steer:
                steer = -gamma_max
            if gamma_max < steer:
                steer = gamma_max
            # the truth's command is drive's noisy one, clean + draw, applied as
            # motion_step(clean, noise=noisy - clean) applies it, rounding
            # included; then motion_floats and the wrap
            v = speed + ((speed + dv) - speed)
            gamma = steer + ((steer + dgamma) - steer)
            heading = tphi + gamma
            tv = dt * v
            tx, ty, tphi = tx + tv * cos(heading), ty + tv * sin(heading), tphi + tv / wheelbase * sin(gamma)
            tphi %= TWO_PI
            if tphi > pi:
                tphi -= TWO_PI
            if (i + 1) % ratio:
                # ekf.predict_floats with the clean command (speed, steer)
                heading = phi + steer
                sin_h, cos_h = sin(heading), cos(heading)
                sin_g, cos_g = sin(steer), cos(steer)
                g11 = dtv * cos_h
                x, y, phi = x + g11, y + dtv * sin_h, phi + dtv_wb * sin_g
                g00, g01, g10 = dt * cos_h, ndtv * sin_h, dt * sin_h
                g20, g21 = dt * sin_g / wheelbase, dtv * cos_g / wheelbase
                n02 = p02 + g01 * p22
                n12 = p12 + g11 * p22
                w00, w01 = g00 * q_v, g01 * q_gamma
                w10, w11 = g10 * q_v, g11 * q_gamma
                w20, w21 = g20 * q_v, g21 * q_gamma
                p00, p01, p02, p11, p12, p22 = (
                    p00 + g01 * p02 + g01 * n02 + w00 * g00 + w01 * g01,
                    p01 + g01 * p12 + g11 * n02 + w00 * g10 + w01 * g11,
                    n02 + w00 * g20 + w01 * g21,
                    p11 + g11 * p12 + g11 * n12 + w10 * g10 + w11 * g11,
                    n12 + w10 * g20 + w11 * g21,
                    p22 + w20 * g20 + w21 * g21,
                )
                phi %= TWO_PI
                if phi > pi:
                    phi -= TWO_PI
            else:
                # tphi is a wrap_angle output, as _pose requires
                scan = sense(_pose(tx, ty, tphi), landmark_map, scenario, sensor_rng)
                prior = ekf._belief(x, y, phi, p00, p01, p02, p11, p12, p22)
                state, records = ekf.step(
                    prior, _control(speed, steer), scan, cov, landmark_map, dt, wheelbase,
                    timestep=i + 1,
                )
                accepted = [rec.accepted for rec in records].count(True)
                n_meas[i] = accepted
                n_gated[i] = len(records) - accepted
                if adapter is not None:
                    G_u = (models.motion_with_jacobian_floats(
                        x, y, phi, speed, steer, dt, wheelbase)[3:] if q_mode else None)
                    cov, trace = adapter.after_update(records, G_u, cov)
                    q_v, q_gamma = cov.Q
                    held_from.append(i)
                    held.append(cov)
                    if trace.active:
                        k = 2 * i
                        dom_out[k], dom_out[k + 1] = trace.dom_diag
                        delta_dom_out[k], delta_dom_out[k + 1] = trace.delta_dom_diag
                        applied_out[k], applied_out[k + 1] = trace.applied_delta_r
                        q_factor_out[i] = trace.q_factor
                x, y, phi = state.mean
                (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
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
    held_from.append(n)
    rows_held = np.diff(held_from)
    r_diag = np.repeat([pair.R for pair in held], rows_held, axis=0)
    q_diag = np.repeat([pair.Q for pair in held], rows_held, axis=0)

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
        timed_out=reached == 0,
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
    one-way pipe. The calling thread takes each result from whichever
    worker is ready, holding at most one result per worker until its turn,
    so a worker whose result is ready before an earlier item's goes on to
    its next item instead of waiting in send. Results are yielded in item
    order, each as soon as it and every earlier one have arrived, so they
    equal the serial ones. No helper thread receives anything: a result
    unpickled on another thread would fill that thread's malloc arena,
    which this process keeps and every later forked worker inherits. With
    one worker or one item the calls run in this process, each when its
    result is asked for. job must be a module-level function, so that a
    spawned worker can unpickle it. Where workers start by fork (the
    default on Linux before Python 3.14), numpy.random is loaded here
    before the first worker starts, so each worker inherits it; a worker
    started by spawn or forkserver imports it on its first run.

    An exception raised by job is raised here, with its type and message,
    and a worker that exits without sending its results raises
    RuntimeError, each at its item's turn: when several items fail, the
    first of them in item order is the one raised. Every worker is joined
    before the generator finishes, raises or is closed; on a failure or a
    close the workers still running are terminated first.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        yield from (job(*args) for args in items)
        return
    # Imported here, as numpy.random is below, so that importing this
    # package does not load it.
    from multiprocessing.connection import wait

    if get_start_method() == "fork":
        # numpy loads numpy.random on first use. Loaded here, every forked
        # worker inherits it instead of importing it on its first run; loaded
        # at module level, it would slow every import of this package.
        import numpy.random  # noqa: F401
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
        held = {}  # worker -> what it sent for its next item, or None if it exited; one each
        for i in range(len(items)):
            while i % workers not in held:
                waiting = {conns[w]: w for w in range(workers) if w not in held}
                for conn in wait(list(waiting)):
                    w = waiting[conn]
                    try:
                        held[w] = conn.recv()
                    except EOFError:
                        held[w] = None
            result = held.pop(i % workers)
            if result is None:
                proc = procs[i % workers]
                proc.join()
                raise RuntimeError(
                    f"worker process {proc.pid} exited with code {proc.exitcode} "
                    f"before returning item {i}"
                )
            ok, value = result
            if not ok:
                raise value
            yield value
            # Free the result the caller is done with before the next one arrives.
            del result, value
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
) -> list[RunLog]:
    """Run n_runs independent simulations seeded base_seed + run index.

    Results are ordered by run index regardless of worker scheduling, so a
    parallel invocation is interchangeable with a serial one. fan_out starts
    at most one worker process per run, and none for a single worker or run.
    Before any process starts, a ValueError names n_runs or max_workers if
    it is a bool, not an integer or below 1, and _start makes run_once's
    checks, with base_seed as the seed.
    """
    for name, count in (("n_runs", n_runs), ("max_workers", max_workers)):
        if not (_is_seed(count) and count >= 1):
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    _start(scenario, variant, base_seed, adaptation, "base_seed")
    runs = [(scenario, variant, seed, adaptation) for seed in range(base_seed, base_seed + n_runs)]
    return list(fan_out(run_once, runs, max_workers))
