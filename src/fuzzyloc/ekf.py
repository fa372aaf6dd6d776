"""Extended Kalman filter localization cycle.

The filter owns nothing but the Gaussian belief; the noise covariances are
passed in every step so an external adapter can rewrite them between steps.
Measurements are processed sequentially with a Mahalanobis acceptance gate.

Q and R are diagonal, so a CovPair holds each as its two variances. The
state is 3-dimensional and a measurement 2-dimensional, so every step is
written out entry by entry on Python floats; no step calls LAPACK. Each
formula is one float kernel (predict_floats, innovation_cov_floats,
innovation_floats, inverse_2x2_floats, gate_floats, update_floats), and the
array-level predict, predict_measurement, innovation, gate and update are
thin wrappers over them. predict_floats takes the next pose and the control
Jacobian from one models kernel, motion_with_jacobian_floats, so a
prediction evaluates two sines and two cosines. step calls the kernels
directly, so the belief and the records stay on floats through a whole scan,
and each measurement takes one closed-form 2x2 inverse of its innovation
covariance S, shared by the gate and the update. The inverse rejects S
unless all four entries are finite and its 2-norm condition number,
sigma_max^2 / |det| after scaling S by its largest |entry|, is at most 1e12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import SingularInnovationError
from .models import ControlInput, Landmark, LandmarkMap, Measurement, NoiseSpec, Pose

#: Chi-square 95% quantile for 2 degrees of freedom.
DEFAULT_GATE_THRESHOLD = 5.991

_COND_LIMIT = 1e12


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


@dataclass
class GaussianState:
    """Gaussian pose belief: mean (x, y, phi) and 3x3 covariance P.

    The heading component of the mean is wrapped and P is symmetrized on
    construction, so every state produced by the filter satisfies both.
    """

    mean: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).copy()
        self.mean[2] = models.wrap_angle(self.mean[2])
        self.P = _symmetrize(np.asarray(self.P, dtype=float))

    @property
    def pose(self) -> Pose:
        return Pose(self.mean[0], self.mean[1], self.mean[2])


@dataclass(frozen=True)
class CovPair:
    """Process variances Q = (q_v, q_gamma) and measurement variances R = (r_r, r_theta).

    Each pair is stored as two floats, so a mutable input cannot leak in and
    a 2x2 array fails loudly. Adapters produce new pairs.
    """

    Q: tuple[float, float]
    R: tuple[float, float]

    def __post_init__(self) -> None:
        (q0, q1), (r0, r1) = self.Q, self.R
        object.__setattr__(self, "Q", (float(q0), float(q1)))
        object.__setattr__(self, "R", (float(r0), float(r1)))

    @classmethod
    def from_noise(cls, noise: NoiseSpec) -> "CovPair":
        """Variances from per-channel standard deviations."""
        return cls(
            Q=(noise.sigma_v**2, noise.sigma_gamma**2),
            R=(noise.sigma_r**2, noise.sigma_theta**2),
        )


@dataclass
class InnovationRecord:
    """One measurement's residual and the covariance it was judged against, as float tuples."""

    residual: tuple  # (dr, dtheta), bearing component wrapped
    S: tuple  # 2x2 innovation covariance, row by row
    landmark_id: int
    timestep: int
    accepted: bool = True
    H: tuple | None = None  # 2x3 observation Jacobian row by row, kept for adaptation


def inverse_2x2_floats(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """S^-1 of S = [[a, b], [c, d]], row-major, by the adjugate, after the conditioning test.

    S is first divided by its largest |entry|, so neither the determinant
    nor the Frobenius norm can overflow or underflow. For a 2x2 matrix
    sigma_max * sigma_min = |det| and sigma_max^2 + sigma_min^2 = |S|_F^2,
    so the 2-norm condition number is sigma_max^2 / |det|.

    Raises:
        SingularInnovationError: an entry is not finite, or cond(S) > 1e12.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise SingularInnovationError("innovation covariance is not finite")
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale > 0.0:
        a, b, c, d = a / scale, b / scale, c / scale, d / scale
        det = a * d - b * c
        fro2 = a * a + b * b + c * c + d * d
        sigma_max2 = 0.5 * (fro2 + math.sqrt(max(fro2 * fro2 - 4.0 * det * det, 0.0)))
        if sigma_max2 <= _COND_LIMIT * abs(det):
            k = 1.0 / det / scale
            return d * k, -b * k, -c * k, a * k
    raise SingularInnovationError("innovation covariance is ill-conditioned")


def _inverse_2x2(S) -> tuple[float, float, float, float]:
    """inverse_2x2_floats of a 2x2 array or nested tuple."""
    (a, b), (c, d) = np.asarray(S, dtype=float).tolist()
    return inverse_2x2_floats(a, b, c, d)


def _belief(x: float, y: float, phi: float, p00: float, p01: float, p02: float,
            p11: float, p12: float, p22: float) -> GaussianState:
    """GaussianState from floats, phi already wrapped, P mirrored from its upper triangle.

    P is symmetric by construction here, so __post_init__'s copy,
    wrapping and symmetrization are skipped.
    """
    state = object.__new__(GaussianState)
    state.mean = np.array([x, y, phi])
    state.P = np.array([p00, p01, p02, p01, p11, p12, p02, p12, p22]).reshape(3, 3)
    return state


def predict_floats(
    x: float, y: float, phi: float,
    p00: float, p01: float, p02: float, p11: float, p12: float, p22: float,
    v: float, gamma: float, q_v: float, q_gamma: float,
    dt: float, wheelbase: float,
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """predict on plain floats: the next mean (heading wrapped) and P's upper triangle.

    P is given by its upper triangle (p00, p01, p02, p11, p12, p22) and Q by
    its two variances; the result is in the same order as the arguments: x,
    y, phi, then P's upper triangle row by row. The mean and G come from
    models.motion_with_jacobian_floats.
    """
    x, y, phi, g00, g01, g10, g11, g20, g21 = models.motion_with_jacobian_floats(
        x, y, phi, v, gamma, dt, wheelbase,
    )
    fx, fy = g01, g11
    # F P F^T: third column first, it feeds the other entries
    n02 = p02 + fx * p22
    n12 = p12 + fy * p22
    # rows of G Q
    w00, w01 = g00 * q_v, g01 * q_gamma
    w10, w11 = g10 * q_v, g11 * q_gamma
    w20, w21 = g20 * q_v, g21 * q_gamma
    return (
        x, y, models.wrap_angle(phi),
        p00 + fx * p02 + fx * n02 + w00 * g00 + w01 * g01,
        p01 + fx * p12 + fy * n02 + w00 * g10 + w01 * g11,
        n02 + w00 * g20 + w01 * g21,
        p11 + fy * p12 + fy * n12 + w10 * g10 + w11 * g11,
        n12 + w10 * g20 + w11 * g21,
        p22 + w20 * g20 + w21 * g21,
    )


def predict(
    state: GaussianState,
    u: ControlInput,
    Q: tuple[float, float],
    dt: float,
    wheelbase: float,
) -> GaussianState:
    """Time update: propagate the mean and inflate P through the motion model.

    P' = F P F^T + G Q G^T with F, G the motion Jacobians w.r.t. the state
    and the noisy command, both linearized at the current mean. F is the
    identity except for (fx, fy) above the diagonal in its heading column,
    and those equal the position entries of G's steer column (see
    models.position_jacobian). Q is the variance pair (q_v, q_gamma). The
    arithmetic is predict_floats'.
    """
    x, y, phi = state.mean.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P.tolist()
    x, y, phi, p00, p01, p02, p11, p12, p22 = predict_floats(
        x, y, phi, p00, p01, p02, p11, p12, p22, u.v, u.gamma, *Q, dt, wheelbase,
    )
    return _belief(x, y, phi, p00, p01, p02, p11, p12, p22)


def innovation_cov_floats(
    p00: float, p01: float, p02: float, p11: float, p12: float, p22: float,
    h00: float, h01: float, h10: float, h11: float,
    r_r: float, r_theta: float,
) -> tuple[float, float, float]:
    """S = H P H^T + R on floats: (s00, s01, s11).

    P is given by its upper triangle, H by the entries of its (x, y) columns
    (its phi column is (0, -1)) and R by its two variances. S is computed
    with one off-diagonal entry, so it is exactly symmetric.
    """
    # rows of H P, with H's phi column (0, -1)
    a0, a1, a2 = h00 * p00 + h01 * p01, h00 * p01 + h01 * p11, h00 * p02 + h01 * p12
    b0 = h10 * p00 + h11 * p01 - p02
    b1 = h10 * p01 + h11 * p11 - p12
    b2 = h10 * p02 + h11 * p12 - p22
    return (
        a0 * h00 + a1 * h01 + r_r,
        a0 * h10 + a1 * h11 - a2,
        b0 * h10 + b1 * h11 - b2 + r_theta,
    )


def innovation_floats(z: Measurement, r: float, theta: float) -> tuple[float, float]:
    """Residual z - (r, theta) with the bearing difference wrapped."""
    return z.r - r, models.wrap_angle(z.theta - theta)


def gate_floats(v0: float, v1: float, i00: float, i01: float, i10: float, i11: float,
                threshold: float) -> bool:
    """Mahalanobis acceptance test v^T S^-1 v <= threshold, given S^-1's entries."""
    return v0 * (i00 * v0 + i01 * v1) + v1 * (i10 * v0 + i11 * v1) <= threshold


def update_floats(
    x: float, y: float, phi: float,
    p00: float, p01: float, p02: float, p11: float, p12: float, p22: float,
    v0: float, v1: float,
    h00: float, h01: float, h02: float, h10: float, h11: float, h12: float,
    i00: float, i01: float, i10: float, i11: float,
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """update on floats: the posterior mean (heading wrapped) and P's upper triangle.

    Takes the residual v, the six entries of a general 2x3 H and the entries
    of S^-1, row-major. With K^T = S^-1 H P the covariance is P - K (H P).
    Only its upper triangle is evaluated: for a symmetric S, K H P is
    symmetric.
    """
    # rows of H P
    a0, a1, a2 = (h00 * p00 + h01 * p01 + h02 * p02, h00 * p01 + h01 * p11 + h02 * p12,
                  h00 * p02 + h01 * p12 + h02 * p22)
    b0, b1, b2 = (h10 * p00 + h11 * p01 + h12 * p02, h10 * p01 + h11 * p11 + h12 * p12,
                  h10 * p02 + h11 * p12 + h12 * p22)
    # rows of K^T = S^-1 H P
    k0, k1, k2 = i00 * a0 + i01 * b0, i00 * a1 + i01 * b1, i00 * a2 + i01 * b2
    l0, l1, l2 = i10 * a0 + i11 * b0, i10 * a1 + i11 * b1, i10 * a2 + i11 * b2
    return (
        x + k0 * v0 + l0 * v1,
        y + k1 * v0 + l1 * v1,
        models.wrap_angle(phi + k2 * v0 + l2 * v1),
        p00 - (k0 * a0 + l0 * b0),
        p01 - (k0 * a1 + l0 * b1),
        p02 - (k0 * a2 + l0 * b2),
        p11 - (k1 * a1 + l1 * b1),
        p12 - (k1 * a2 + l1 * b2),
        p22 - (k2 * a2 + l2 * b2),
    )


def predict_measurement(
    state: GaussianState, landmark: Landmark, R: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted (range, bearing), innovation covariance, and Jacobian, given
    the variance pair R = (r_r, r_theta).

    Returns:
        zhat: (2,) predicted measurement at the current mean.
        S: 2x2 H P H^T + R from innovation_cov_floats, exactly symmetric.
        H: 2x3 observation Jacobian at the current mean.
    """
    x, y, phi = state.mean.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P.tolist()
    r, bearing = models.range_bearing(x, y, phi, landmark)
    h00, h01, h10, h11 = models.range_bearing_jacobian(x, y, landmark)
    s00, s01, s11 = innovation_cov_floats(p00, p01, p02, p11, p12, p22, h00, h01, h10, h11, *R)
    return (
        np.array((r, models.wrap_angle(bearing))),
        np.array(((s00, s01), (s01, s11))),
        np.array(((h00, h01, 0.0), (h10, h11, -1.0))),
    )


def innovation(z: Measurement, zhat: np.ndarray) -> np.ndarray:
    """Residual z - zhat with the bearing difference wrapped."""
    r, theta = zhat.tolist()
    return np.array(innovation_floats(z, r, theta))


def gate(residual: np.ndarray, S: np.ndarray, threshold: float) -> bool:
    """Mahalanobis acceptance test: residual^T S^-1 residual <= threshold."""
    i00, i01, i10, i11 = _inverse_2x2(S)
    v0, v1 = np.asarray(residual, dtype=float).tolist()
    return gate_floats(v0, v1, i00, i01, i10, i11, threshold)


def update(state: GaussianState, record: InnovationRecord, H: np.ndarray) -> GaussianState:
    """Measurement update with gain K = P H^T S^-1; the arithmetic is update_floats'."""
    i00, i01, i10, i11 = _inverse_2x2(record.S)
    v0, v1 = np.asarray(record.residual, dtype=float).tolist()
    x, y, phi = state.mean.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P.tolist()
    (h00, h01, h02), (h10, h11, h12) = np.asarray(H, dtype=float).tolist()
    return _belief(*update_floats(
        x, y, phi, p00, p01, p02, p11, p12, p22, v0, v1,
        h00, h01, h02, h10, h11, h12, i00, i01, i10, i11,
    ))


def step(
    state: GaussianState,
    u: ControlInput,
    measurements: list[Measurement],
    cov: CovPair,
    landmark_map: LandmarkMap,
    dt: float,
    wheelbase: float,
    gate_threshold: float = DEFAULT_GATE_THRESHOLD,
    timestep: int = 0,
) -> tuple[GaussianState, list[InnovationRecord]]:
    """One full localization cycle: predict, then gate and fuse each measurement.

    Measurements are fused sequentially in arrival order; each one is judged
    against the belief updated by its predecessors. Rejected measurements are
    recorded with accepted=False and leave the belief untouched.

    The belief stays on Python floats from the prediction to the last
    measurement: each measurement takes one inverse of its S, shared by the
    gate and the update, and one GaussianState is built at the end. The
    records' residual, S and H are the tuples of floats the loop computed.
    The arithmetic is that of predict, predict_measurement, innovation, gate
    and update, through the same float kernels, so the result is bit for bit
    theirs.

    Returns:
        The posterior state and one InnovationRecord per input measurement.
    """
    x, y, phi = state.mean.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P.tolist()
    x, y, phi, p00, p01, p02, p11, p12, p22 = predict_floats(
        x, y, phi, p00, p01, p02, p11, p12, p22, u.v, u.gamma, *cov.Q, dt, wheelbase,
    )
    if not measurements:
        return _belief(x, y, phi, p00, p01, p02, p11, p12, p22), []
    r_r, r_theta = cov.R
    records = []
    for z in measurements:
        landmark = landmark_map[z.landmark_id]
        r, bearing = models.range_bearing(x, y, phi, landmark)
        h00, h01, h10, h11 = models.range_bearing_jacobian(x, y, landmark)
        s00, s01, s11 = innovation_cov_floats(
            p00, p01, p02, p11, p12, p22, h00, h01, h10, h11, r_r, r_theta,
        )
        v0, v1 = innovation_floats(z, r, models.wrap_angle(bearing))
        i00, i01, i10, i11 = inverse_2x2_floats(s00, s01, s01, s11)
        accepted = gate_floats(v0, v1, i00, i01, i10, i11, gate_threshold)
        records.append(InnovationRecord(
            (v0, v1), ((s00, s01), (s01, s11)), z.landmark_id, timestep, accepted,
            ((h00, h01, 0.0), (h10, h11, -1.0)),
        ))
        if accepted:
            x, y, phi, p00, p01, p02, p11, p12, p22 = update_floats(
                x, y, phi, p00, p01, p02, p11, p12, p22, v0, v1,
                h00, h01, 0.0, h10, h11, -1.0, i00, i01, i10, i11,
            )
    return _belief(x, y, phi, p00, p01, p02, p11, p12, p22), records
