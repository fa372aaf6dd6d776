"""Vehicle kinematics, range-bearing sensing, and their Jacobians.

Angles are radians wrapped to (-pi, pi]; distances are meters. The motion
model is a discrete-time steered vehicle: the commanded speed and steer angle
are corrupted by additive noise before they act on the pose, so process noise
enters through the control channel rather than directly on the state.

The float kernels compute the motion (motion_floats) and the motion with its
control Jacobian G (motion_with_jacobian_floats), with the same products for
the motion; the latter is the one place G is written.
wrap_angles is wrap_angle over an array, the one wrap of logged heading errors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DegenerateGeometryError, UnknownLandmarkError

TWO_PI = 2.0 * math.pi

#: Robot-landmark distances below this are treated as degenerate geometry.
DEFAULT_EPSILON_RANGE = 1e-9


def _is_number(value) -> bool:
    """Whether value is a real number that is not a bool, as a scenario or config number must be."""
    return type(value) is not bool and isinstance(value, numbers.Real)


def _is_finite(value) -> bool:
    """Whether value is a number (see _is_number) with a finite float value."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]; the -pi boundary maps to +pi."""
    wrapped = angle % TWO_PI
    if wrapped > math.pi:
        wrapped -= TWO_PI
    return wrapped


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """wrap_angle of every entry, bit for bit; a NaN or infinite angle gives NaN."""
    with np.errstate(invalid="ignore"):
        wrapped = np.remainder(angles, TWO_PI)
    return np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)


@dataclass(frozen=True, slots=True)
class Pose:
    """Planar pose: position (x, y) in meters, heading phi in radians.

    The heading is wrapped on construction, so two Pose objects describing
    the same physical pose compare equal.
    """

    x: float
    y: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", wrap_angle(self.phi))

    def as_array(self) -> np.ndarray:
        """Pose as a (3,) float array (x, y, phi)."""
        return np.array([self.x, self.y, self.phi], dtype=float)


_SET_POSE = (Pose.x.__set__, Pose.y.__set__, Pose.phi.__set__)


def _pose(x: float, y: float, phi: float) -> Pose:
    """Pose(x, y, phi) for a phi that wrap_angle's operations gave.

    wrap_angle is idempotent on its outputs, so __post_init__'s wrap would
    return phi bit for bit; it is skipped, with the frozen __init__, and
    the slots are filled directly.
    """
    pose = object.__new__(Pose)
    set_x, set_y, set_phi = _SET_POSE
    set_x(pose, x)
    set_y(pose, y)
    set_phi(pose, phi)
    return pose


@dataclass(frozen=True, slots=True)
class ControlInput:
    """Speed command v (m/s) and steer angle gamma (rad)."""

    v: float
    gamma: float


_SET_CONTROL = (ControlInput.v.__set__, ControlInput.gamma.__set__)


def _control(v: float, gamma: float) -> ControlInput:
    """ControlInput(v, gamma) with its slots filled directly: the frozen
    __init__ only stores the fields."""
    control = object.__new__(ControlInput)
    set_v, set_gamma = _SET_CONTROL
    set_v(control, v)
    set_gamma(control, gamma)
    return control


@dataclass(frozen=True)
class Landmark:
    """Point feature of the known map with a stable integer id."""

    id: int
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class Measurement:
    """Range-bearing reading of one landmark.

    Attributes
    ----------
    landmark_id : id of the observed landmark (known correspondence).
    r : measured range in meters, nominally nonnegative.
    theta : bearing relative to the robot heading, wrapped to (-pi, pi].
    """

    landmark_id: int
    r: float
    theta: float


_SET_MEASUREMENT = (Measurement.landmark_id.__set__, Measurement.r.__set__, Measurement.theta.__set__)


def _measurement(landmark_id: int, r: float, theta: float) -> Measurement:
    """Measurement(landmark_id, r, theta) with its slots filled directly:
    the frozen __init__ only stores the fields."""
    measurement = object.__new__(Measurement)
    set_id, set_r, set_theta = _SET_MEASUREMENT
    set_id(measurement, landmark_id)
    set_r(measurement, r)
    set_theta(measurement, theta)
    return measurement


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations of the control and sensor noise channels."""

    sigma_v: float  # m/s
    sigma_gamma: float  # rad
    sigma_r: float  # m
    sigma_theta: float  # rad


class LandmarkMap:
    """Ordered collection of landmarks with unique-id lookup."""

    def __init__(self, landmarks: Iterable[Landmark]):
        self.landmarks: tuple[Landmark, ...] = tuple(landmarks)
        self._by_id: dict[int, Landmark] = {}
        for lm in self.landmarks:
            if lm.id in self._by_id:
                raise ValueError(f"duplicate landmark id {lm.id}")
            self._by_id[lm.id] = lm

    def __len__(self) -> int:
        return len(self.landmarks)

    def __iter__(self) -> Iterator[Landmark]:
        return iter(self.landmarks)

    def __contains__(self, landmark_id: int) -> bool:
        return landmark_id in self._by_id

    def __getitem__(self, landmark_id: int) -> Landmark:
        try:
            return self._by_id[landmark_id]
        except KeyError:
            raise UnknownLandmarkError(landmark_id) from None


def motion_step(
    pose: Pose,
    u: ControlInput,
    dt: float,
    wheelbase: float,
    noise: tuple[float, float] = (0.0, 0.0),
) -> Pose:
    """Propagate a pose one control period.

    Args:
        pose: current pose.
        u: commanded speed and steer angle.
        dt: control period in seconds.
        wheelbase: distance between axles in meters.
        noise: additive (dv, dgamma) perturbation on the command; zero for
            the filter's mean propagation, sampled for ground truth.

    Returns:
        The pose after one period, heading wrapped.
    """
    v = u.v + noise[0]
    gamma = u.gamma + noise[1]
    return Pose(*motion_floats(pose.x, pose.y, pose.phi, v, gamma, dt, wheelbase))


def motion_floats(
    x: float, y: float, phi: float, v: float, gamma: float, dt: float, wheelbase: float
) -> tuple[float, float, float]:
    """motion_step on plain floats: the next (x, y, phi), heading not wrapped."""
    heading = phi + gamma
    return (
        x + dt * v * math.cos(heading),
        y + dt * v * math.sin(heading),
        phi + dt * v / wheelbase * math.sin(gamma),
    )


def motion_with_jacobian_floats(
    x: float, y: float, phi: float, v: float, gamma: float, dt: float, wheelbase: float
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """motion_floats and its control Jacobian G of one command in one call:
    the next (x, y, phi), heading not wrapped, then G's six entries row-major.

    Each of sin and cos is taken once of the heading and once of gamma, and
    every motion product is motion_floats', with dt * v computed once where
    it is the left factor, so the first three floats are bit for bit its.
    phi and gamma enter the position only through heading = phi + gamma, so
    the position entries of G's steer column (the fifth and seventh floats)
    are also d(x, y)/dphi; they do not depend on the wheelbase.
    """
    heading = phi + gamma
    sin_h, cos_h = math.sin(heading), math.cos(heading)
    sin_g, cos_g = math.sin(gamma), math.cos(gamma)
    dtv = dt * v
    return (
        x + dtv * cos_h,
        y + dtv * sin_h,
        phi + dtv / wheelbase * sin_g,
        dt * cos_h, -dt * v * sin_h,
        dt * sin_h, dtv * cos_h,
        dt * sin_g / wheelbase, dtv * cos_g / wheelbase,
    )


def control_cov_floats(
    g00: float, g01: float, g10: float, g11: float, g20: float, g21: float,
    q_v: float, q_gamma: float,
) -> tuple[float, float, float, float, float, float]:
    """G Q G^T on floats: its upper triangle (m00, m01, m02, m11, m12, m22), row by row.

    G is the 3x2 control Jacobian, row-major (motion_with_jacobian_floats[3:]), and
    Q is given by its two variances, as ekf.predict_floats takes it.
    """
    # rows of G Q
    w00, w01 = g00 * q_v, g01 * q_gamma
    w10, w11 = g10 * q_v, g11 * q_gamma
    w20, w21 = g20 * q_v, g21 * q_gamma
    return (
        w00 * g00 + w01 * g01, w00 * g10 + w01 * g11, w00 * g20 + w01 * g21,
        w10 * g10 + w11 * g11, w10 * g20 + w11 * g21,
        w20 * g20 + w21 * g21,
    )


def motion_jacobian_state(pose: Pose, u: ControlInput, dt: float) -> np.ndarray:
    """Jacobian of the noise-free motion step w.r.t. (x, y, phi).

    The heading row is independent of the pose, so the matrix is identity
    plus a heading-to-position shear.
    """
    # the shear is G's steer column above its heading row, whatever the wheelbase
    _, shear_x, _, shear_y, _, _ = motion_with_jacobian_floats(
        pose.x, pose.y, pose.phi, u.v, u.gamma, dt, 1.0)[3:]
    return np.array(
        [
            [1.0, 0.0, shear_x],
            [0.0, 1.0, shear_y],
            [0.0, 0.0, 1.0],
        ]
    )


def motion_jacobian_control(
    pose: Pose, u: ControlInput, dt: float, wheelbase: float
) -> np.ndarray:
    """Jacobian of the motion step w.r.t. the noisy command (v, gamma).

    Evaluated at zero noise; this is the matrix that maps control noise
    covariance into pose covariance during the filter's time update.
    """
    g = motion_with_jacobian_floats(pose.x, pose.y, pose.phi, u.v, u.gamma, dt, wheelbase)[3:]
    return np.array(g).reshape(3, 2)


def observe(pose: Pose, landmark: Landmark, noise: tuple[float, float] = (0.0, 0.0)) -> Measurement:
    """Range-bearing observation of a landmark from a pose.

    noise = (dr, dtheta) is added exactly; the bearing is wrapped after the
    noise is applied.
    """
    r, theta = range_bearing(pose.x, pose.y, pose.phi, landmark)
    return Measurement(landmark.id, r + noise[0], wrap_angle(theta + noise[1]))


def _degenerate(landmark: Landmark) -> DegenerateGeometryError:
    return DegenerateGeometryError(
        f"landmark {landmark.id} within {DEFAULT_EPSILON_RANGE} m of the robot"
    )


def range_bearing(x: float, y: float, phi: float, landmark: Landmark) -> tuple[float, float]:
    """Noise-free (range, bearing) of a landmark on plain floats, bearing not wrapped."""
    dx = landmark.x - x
    dy = landmark.y - y
    r = math.hypot(dx, dy)
    if r < DEFAULT_EPSILON_RANGE:
        raise _degenerate(landmark)
    return r, math.atan2(dy, dx) - phi


def range_bearing_jacobian(
    x: float, y: float, landmark: Landmark
) -> tuple[float, float, float, float]:
    """The pose-dependent entries of observation_jacobian, row-major.

    Those are the (x, y) columns; the phi column is always (0, -1).
    """
    dx = landmark.x - x
    dy = landmark.y - y
    q = dx * dx + dy * dy
    r = math.sqrt(q)
    if r < DEFAULT_EPSILON_RANGE:
        raise _degenerate(landmark)
    return -dx / r, -dy / r, dy / q, -dx / q


def observation_jacobian(pose: Pose, landmark: Landmark) -> np.ndarray:
    """Jacobian of (range, bearing) w.r.t. (x, y, phi).

    Rows are (range, bearing); d(bearing)/d(phi) is exactly -1.
    """
    h00, h01, h10, h11 = range_bearing_jacobian(pose.x, pose.y, landmark)
    return np.array(
        [
            [h00, h01, 0.0],
            [h10, h11, -1.0],
        ]
    )

