"""Extended Kalman filter localization cycle.

The filter owns nothing but the Gaussian belief; the noise covariances are
passed in every step so an external adapter can rewrite them between steps.
Measurements are processed sequentially with a Mahalanobis acceptance gate.

GaussianState holds the belief as float tuples, and Q and R are diagonal, so
a CovPair holds each as its two variances. The state is 3-dimensional and a
measurement 2-dimensional, so every step is written out entry by entry on
Python floats; no step calls LAPACK, and step calls no numpy at all. The
time update is one float kernel, predict_floats, which predict, step and
the simulator's ticks between scans call. predict_measurement, gate and
update each hold their formula, with two float kernels of two callers each:
innovation_cov_floats (predict_measurement, the Q adapter's sensitivity)
and inverse_2x2_floats (gate, update). step writes the rest of the cycle
out in one frame, bit for bit theirs: each measurement takes one
closed-form 2x2 inverse of its innovation covariance S, shared by the gate
and the update, which also reuses S's rows of H P. The inverse rejects S
unless all four entries are finite and its 2-norm condition number,
sigma_max^2 / |det| after scaling S by its largest |entry|, is at most 1e12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import atan2, cos, hypot, isfinite, pi, sin, sqrt

import numpy as np

from . import models
from .errors import SingularInnovationError
from .models import (
    DEFAULT_EPSILON_RANGE, TWO_PI, ControlInput, Landmark, LandmarkMap, Measurement, NoiseSpec, Pose,
)

#: Chi-square 95% quantile for 2 degrees of freedom.
DEFAULT_GATE_THRESHOLD = 5.991

_COND_LIMIT = 1e12


@dataclass(slots=True)
class GaussianState:
    """Gaussian pose belief: mean (x, y, phi) and 3x3 covariance P, as float tuples.

    Any (3,) mean and 3x3 P, sequence or array, is accepted; any other shape
    raises ValueError. The heading is wrapped and P, three row tuples, is
    symmetrized on construction. np.asarray(state.P) gives P as an array.
    """

    mean: tuple[float, float, float]
    P: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        mean, P = np.asarray(self.mean, dtype=float), np.asarray(self.P, dtype=float)
        if mean.shape != (3,) or P.shape != (3, 3):
            raise ValueError(f"expected a (3,) mean and a (3, 3) P, got {mean.shape} and {P.shape}")
        x, y, phi = mean.tolist()
        self.mean = (x, y, models.wrap_angle(phi))
        self.P = tuple(map(tuple, (0.5 * (P + P.T)).tolist()))

    @property
    def pose(self) -> Pose:
        return Pose(*self.mean)


@dataclass(frozen=True, slots=True)
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


_SET_COV_PAIR = (CovPair.Q.__set__, CovPair.R.__set__)


def _cov_pair(Q: tuple[float, float], R: tuple[float, float]) -> CovPair:
    """CovPair(Q, R) for two tuples of two Python floats each, which
    __post_init__'s float() would return unchanged; it is skipped, with the
    frozen __init__, and the slots are filled directly."""
    pair = object.__new__(CovPair)
    set_q, set_r = _SET_COV_PAIR
    set_q(pair, Q)
    set_r(pair, R)
    return pair


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


def _belief(x: float, y: float, phi: float, p00: float, p01: float, p02: float,
            p11: float, p12: float, p22: float) -> GaussianState:
    """GaussianState from floats, phi already wrapped, P mirrored from its upper triangle.

    P is symmetric by construction here, so __post_init__'s checks,
    wrapping and symmetrization are skipped.
    """
    state = object.__new__(GaussianState)
    state.mean = (x, y, phi)
    state.P = ((p00, p01, p02), (p01, p11, p12), (p02, p12, p22))
    return state


def predict_floats(
    x: float, y: float, phi: float, p00: float, p01: float, p02: float, p11: float, p12: float,
    p22: float, v: float, gamma: float, q_v: float, q_gamma: float, dt: float, wheelbase: float,
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """The time update on floats: the next (x, y, phi), heading wrapped, then
    P's upper triangle, row by row.

    P' = F P F^T + G Q G^T with F, G the motion Jacobians w.r.t. the state
    and the command (v, gamma) at the current mean, and Q = diag(q_v, q_gamma).
    F is the identity but for (g01, g11) above the diagonal in its heading
    column. The mean and G are models.motion_with_jacobian_floats' operations
    in its order, written out here rather than called, which measured faster.
    """
    heading = phi + gamma
    sin_h, cos_h = sin(heading), cos(heading)
    sin_g, cos_g = sin(gamma), cos(gamma)
    dtv = dt * v
    g11 = dtv * cos_h
    x, y, phi = x + g11, y + dtv * sin_h, phi + dtv / wheelbase * sin_g
    phi %= TWO_PI
    if phi > pi:
        phi -= TWO_PI
    g00, g01, g10 = dt * cos_h, -dt * v * sin_h, dt * sin_h
    g20, g21 = dt * sin_g / wheelbase, dtv * cos_g / wheelbase
    # F P F^T: third column first, it feeds the other entries
    n02 = p02 + g01 * p22
    n12 = p12 + g11 * p22
    # rows of G Q
    w00, w01 = g00 * q_v, g01 * q_gamma
    w10, w11 = g10 * q_v, g11 * q_gamma
    w20, w21 = g20 * q_v, g21 * q_gamma
    return (
        x, y, phi,
        p00 + g01 * p02 + g01 * n02 + w00 * g00 + w01 * g01,
        p01 + g01 * p12 + g11 * n02 + w00 * g10 + w01 * g11,
        n02 + w00 * g20 + w01 * g21,
        p11 + g11 * p12 + g11 * n12 + w10 * g10 + w11 * g11,
        n12 + w10 * g20 + w11 * g21,
        p22 + w20 * g20 + w21 * g21,
    )


def predict(state: GaussianState, u: ControlInput, Q: tuple[float, float], dt: float,
            wheelbase: float) -> GaussianState:
    """Time update of the belief by predict_floats. Q is the variance pair
    (q_v, q_gamma), each through float() as CovPair takes it, so a 2x2
    matrix raises TypeError."""
    x, y, phi = state.mean
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
    q_v, q_gamma = Q
    return _belief(*predict_floats(
        x, y, phi, p00, p01, p02, p11, p12, p22, u.v, u.gamma, float(q_v), float(q_gamma),
        dt, wheelbase,
    ))


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


def predict_measurement(
    state: GaussianState, landmark: Landmark, R: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted (range, bearing), innovation covariance, and Jacobian, given
    the variance pair R = (r_r, r_theta). Each variance goes through float(),
    as CovPair takes it, so a 2x2 matrix raises TypeError.

    Returns:
        zhat: (2,) predicted measurement at the current mean.
        S: 2x2 H P H^T + R from innovation_cov_floats, exactly symmetric.
        H: 2x3 models.observation_jacobian at the current mean.
    """
    x, y, phi = state.mean
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
    r_r, r_theta = R
    r, bearing = models.range_bearing(x, y, phi, landmark)
    H = models.observation_jacobian(models._pose(x, y, phi), landmark)  # the belief's phi is wrapped
    (h00, h01, _), (h10, h11, _) = H.tolist()
    s00, s01, s11 = innovation_cov_floats(
        p00, p01, p02, p11, p12, p22, h00, h01, h10, h11, float(r_r), float(r_theta))
    return np.array((r, models.wrap_angle(bearing))), np.array(((s00, s01), (s01, s11))), H


def gate(residual: np.ndarray, S: np.ndarray, threshold: float) -> bool:
    """Mahalanobis acceptance test: residual^T S^-1 residual <= threshold."""
    (s00, s01), (s10, s11) = np.asarray(S, dtype=float).tolist()
    i00, i01, i10, i11 = inverse_2x2_floats(s00, s01, s10, s11)
    v0, v1 = np.asarray(residual, dtype=float).tolist()
    return v0 * (i00 * v0 + i01 * v1) + v1 * (i10 * v0 + i11 * v1) <= threshold


def update(state: GaussianState, record: InnovationRecord, H: np.ndarray) -> GaussianState:
    """Measurement update with gain K = P H^T S^-1.

    Takes the record's residual v and S and a general 2x3 H. With
    K^T = S^-1 H P the covariance is P - K (H P). Only its upper triangle is
    evaluated: for a symmetric S, K H P is symmetric.
    """
    (s00, s01), (s10, s11) = np.asarray(record.S, dtype=float).tolist()
    i00, i01, i10, i11 = inverse_2x2_floats(s00, s01, s10, s11)
    v0, v1 = np.asarray(record.residual, dtype=float).tolist()
    x, y, phi = state.mean
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
    (h00, h01, h02), (h10, h11, h12) = np.asarray(H, dtype=float).tolist()
    # rows of H P
    a0, a1, a2 = (h00 * p00 + h01 * p01 + h02 * p02, h00 * p01 + h01 * p11 + h02 * p12,
                  h00 * p02 + h01 * p12 + h02 * p22)
    b0, b1, b2 = (h10 * p00 + h11 * p01 + h12 * p02, h10 * p01 + h11 * p11 + h12 * p12,
                  h10 * p02 + h11 * p12 + h12 * p22)
    # rows of K^T = S^-1 H P
    k0, k1, k2 = i00 * a0 + i01 * b0, i00 * a1 + i01 * b1, i00 * a2 + i01 * b2
    l0, l1, l2 = i10 * a0 + i11 * b0, i10 * a1 + i11 * b1, i10 * a2 + i11 * b2
    return _belief(
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

    The prediction is predict_floats; the rest of the cycle is written out
    in this one frame: per measurement the range, bearing and Jacobian of
    one (dx, dy), S, the residual, the inverse of S with its tests, the gate
    and the update. Every operation is the array-level functions' in their
    order, so the records and the posterior are bit for bit what predict,
    predict_measurement, the wrapped residual, gate and update give, and the
    errors are theirs at the same measurement. The update takes S's rows of
    H P, with update's 0.0 * p terms on the range row. step calls no numpy.

    Returns:
        The posterior state and one InnovationRecord per input measurement.
    """
    x, y, phi = state.mean
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
    q_v, q_gamma = cov.Q
    x, y, phi, p00, p01, p02, p11, p12, p22 = predict_floats(
        x, y, phi, p00, p01, p02, p11, p12, p22, u.v, u.gamma, q_v, q_gamma, dt, wheelbase,
    )
    if not measurements:
        return _belief(x, y, phi, p00, p01, p02, p11, p12, p22), []
    r_r, r_theta = cov.R
    records = []
    for z in measurements:
        landmark = landmark_map[z.landmark_id]
        # range_bearing and observation_jacobian
        dx = landmark.x - x
        dy = landmark.y - y
        r = hypot(dx, dy)
        if r < DEFAULT_EPSILON_RANGE:
            raise models._degenerate(landmark)
        bearing = atan2(dy, dx) - phi
        q = dx * dx + dy * dy
        rq = sqrt(q)
        if rq < DEFAULT_EPSILON_RANGE:
            raise models._degenerate(landmark)
        h00, h01, h10, h11 = -dx / rq, -dy / rq, dy / q, -dx / q
        # innovation_cov_floats: rows of H P, then S
        a0, a1, a2 = h00 * p00 + h01 * p01, h00 * p01 + h01 * p11, h00 * p02 + h01 * p12
        b0 = h10 * p00 + h11 * p01 - p02
        b1 = h10 * p01 + h11 * p11 - p12
        b2 = h10 * p02 + h11 * p12 - p22
        s00 = a0 * h00 + a1 * h01 + r_r
        s01 = a0 * h10 + a1 * h11 - a2
        s11 = b0 * h10 + b1 * h11 - b2 + r_theta
        # the residual, of the wrapped bearing
        bearing %= TWO_PI
        if bearing > pi:
            bearing -= TWO_PI
        v0, v1 = z.r - r, z.theta - bearing
        v1 %= TWO_PI
        if v1 > pi:
            v1 -= TWO_PI
        # inverse_2x2_floats of [[s00, s01], [s01, s11]]
        if not (isfinite(s00) and isfinite(s01) and isfinite(s11)):
            raise SingularInnovationError("innovation covariance is not finite")
        scale = abs(s00)
        if abs(s01) > scale:
            scale = abs(s01)
        if abs(s11) > scale:
            scale = abs(s11)
        if not scale > 0.0:
            raise SingularInnovationError("innovation covariance is ill-conditioned")
        n00, n01, n11 = s00 / scale, s01 / scale, s11 / scale
        det = n00 * n11 - n01 * n01
        fro2 = n00 * n00 + n01 * n01 + n01 * n01 + n11 * n11
        disc = fro2 * fro2 - 4.0 * det * det
        if disc < 0.0:
            disc = 0.0
        if not 0.5 * (fro2 + sqrt(disc)) <= _COND_LIMIT * abs(det):
            raise SingularInnovationError("innovation covariance is ill-conditioned")
        k = 1.0 / det / scale
        i00, i01, i11 = n11 * k, -n01 * k, n00 * k
        # gate; S^-1 is symmetric, its (1, 0) entry is i01
        accepted = v0 * (i00 * v0 + i01 * v1) + v1 * (i01 * v0 + i11 * v1) <= gate_threshold
        records.append(InnovationRecord(
            (v0, v1), ((s00, s01), (s01, s11)), z.landmark_id, timestep, accepted,
            ((h00, h01, 0.0), (h10, h11, -1.0)),
        ))
        if accepted:
            # update with H's phi column (0, -1): a + 0.0 * p keeps the
            # sign of a zero and the NaN of an infinite p, b - p is b + -1.0 * p
            a0, a1, a2 = a0 + 0.0 * p02, a1 + 0.0 * p12, a2 + 0.0 * p22
            k0, k1, k2 = i00 * a0 + i01 * b0, i00 * a1 + i01 * b1, i00 * a2 + i01 * b2
            l0, l1, l2 = i01 * a0 + i11 * b0, i01 * a1 + i11 * b1, i01 * a2 + i11 * b2
            x, y, phi = x + k0 * v0 + l0 * v1, y + k1 * v0 + l1 * v1, phi + k2 * v0 + l2 * v1
            phi %= TWO_PI
            if phi > pi:
                phi -= TWO_PI
            p00, p01, p02, p11, p12, p22 = (
                p00 - (k0 * a0 + l0 * b0),
                p01 - (k0 * a1 + l0 * b1),
                p02 - (k0 * a2 + l0 * b2),
                p11 - (k1 * a1 + l1 * b1),
                p12 - (k1 * a2 + l1 * b2),
                p22 - (k2 * a2 + l2 * b2),
            )
    return _belief(x, y, phi, p00, p01, p02, p11, p12, p22), records
