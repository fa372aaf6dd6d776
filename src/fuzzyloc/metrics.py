"""Ensemble error and consistency metrics.

NEES is computed by one kernel, nees_floats, on plain floats; nees_rows runs
the same operations elementwise over a whole run's rows, so a run computes
its NEES column in one pass after its tick loop. The chi-square quantiles
needed for consistency bands are computed here from the regularized
incomplete gamma function, so the runtime has no dependency beyond numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ekf import GaussianState
from .errors import SingularCovarianceError
from .models import Pose, wrap_angle, wrap_angles

STATE_DIM = 3

#: Rows per nees_rows block; bounds the temporaries of one pass.
NEES_BLOCK = 256

#: Column of P's upper triangle (p00, p01, p02, p11, p12, p22) behind each
#: entry of the full 3x3 P, row by row.
_FULL_FROM_UPPER = (0, 1, 2, 1, 3, 4, 2, 4, 5)


def nees(truth: Pose, est: GaussianState) -> float:
    """Normalized estimation error squared e^T P^-1 e; see nees_floats.

    Exactly matching truth gives 0; a consistent filter yields chi-square
    values with one degree of freedom per state dimension.

    Raises:
        SingularCovarianceError: a pivot is exactly zero, as in gesv.
    """
    p0, p1, p2 = est.P.tolist()
    return nees_floats(truth.x, truth.y, truth.phi, *est.mean.tolist(), *p0, *p1, *p2)


def nees_floats(
    tx: float, ty: float, tphi: float, x: float, y: float, phi: float,
    a0: float, a1: float, a2: float,
    b0: float, b1: float, b2: float,
    c0: float, c1: float, c2: float,
) -> float:
    """nees on plain floats: true pose, estimated mean, then P's rows a, b, c.

    The heading error is wrapped before weighting. P^-1 e is solved by
    Gaussian elimination with partial pivoting, unrolled for 3x3: the
    algorithm of LAPACK's gesv, which is backward stable, so the error stays
    of order cond(P) * eps at any scale of P. Each row carries its entry of
    e as a fourth column (a3, b3, c3).

    Raises:
        SingularCovarianceError: a pivot is exactly zero, as in gesv.
    """
    e0, e1, e2 = tx - x, ty - y, wrap_angle(tphi - phi)
    a3, b3, c3 = e0, e1, e2
    if abs(b0) > abs(a0):
        a0, a1, a2, a3, b0, b1, b2, b3 = b0, b1, b2, b3, a0, a1, a2, a3
    if abs(c0) > abs(a0):
        a0, a1, a2, a3, c0, c1, c2, c3 = c0, c1, c2, c3, a0, a1, a2, a3
    if a0 != 0.0:
        l1, l2 = b0 / a0, c0 / a0
        # the 2x2 system left after eliminating column 0, rows s and t
        s0, s1, s2 = b1 - l1 * a1, b2 - l1 * a2, b3 - l1 * a3
        t0, t1, t2 = c1 - l2 * a1, c2 - l2 * a2, c3 - l2 * a3
        if abs(t0) > abs(s0):
            s0, s1, s2, t0, t1, t2 = t0, t1, t2, s0, s1, s2
        if s0 != 0.0:
            l3 = t0 / s0
            u22 = t1 - l3 * s1
            if u22 != 0.0:
                x2 = (t2 - l3 * s2) / u22
                x1 = (s2 - s1 * x2) / s0
                x0 = (a3 - a2 * x2 - a1 * x1) / a0
                return max(e0 * x0 + e1 * x1 + e2 * x2, 0.0)
    raise SingularCovarianceError("state covariance is singular")


def nees_rows(truth: np.ndarray, est: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """nees_floats of every row, bit for bit: truth and est are (n, 3) poses,
    upper is (n, 6), the upper triangle of each row's P, row by row. Only a
    NaN's sign may differ: from two NaN operands, numpy and CPython may pass
    on different ones.

    The rows are solved NEES_BLOCK at a time with nees_floats' operations
    in its order: pivot swaps become selections, max(q, 0.0) keeps q unless
    0.0 > q (so NaN and -0.0 pass as they do through max), and the heading
    error is wrapped by models.wrap_angles.

    Raises:
        SingularCovarianceError: some row has an exactly zero pivot.
    """
    truth, est, upper = (np.asarray(a, dtype=float) for a in (truth, est, upper))
    out = np.empty(len(truth))
    with np.errstate(all="ignore"):  # a singular row raises below; a NaN row stays NaN
        for start in range(0, len(out), NEES_BLOCK):
            stop = start + NEES_BLOCK
            out[start:stop] = _nees_block(truth[start:stop], est[start:stop], upper[start:stop])
    return out


def _nees_block(truth: np.ndarray, est: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """nees_rows of one block: the augmented rows [P | e] eliminated as in nees_floats."""
    e = truth - est
    e[:, 2] = wrap_angles(e[:, 2])
    aug = np.empty((len(e), 3, 4))
    aug[:, :, :3] = upper[:, _FULL_FROM_UPPER].reshape(-1, 3, 3)
    aug[:, :, 3] = e
    a, b, c = aug[:, 0], aug[:, 1], aug[:, 2]
    swap = (np.abs(b[:, 0]) > np.abs(a[:, 0]))[:, None]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    swap = (np.abs(c[:, 0]) > np.abs(a[:, 0]))[:, None]
    a, c = np.where(swap, c, a), np.where(swap, a, c)
    a0, a1, a2, a3 = a.T
    l1, l2 = b[:, 0] / a0, c[:, 0] / a0
    # the 2x2 system left after eliminating column 0, rows s and t
    s = b[:, 1:] - l1[:, None] * a[:, 1:]
    t = c[:, 1:] - l2[:, None] * a[:, 1:]
    swap = (np.abs(t[:, 0]) > np.abs(s[:, 0]))[:, None]
    (s0, s1, s2), (t0, t1, t2) = np.where(swap, t, s).T, np.where(swap, s, t).T
    l3 = t0 / s0
    u22 = t1 - l3 * s1
    if ((a0 == 0.0) | (s0 == 0.0) | (u22 == 0.0)).any():
        raise SingularCovarianceError("state covariance is singular")
    x2 = (t2 - l3 * s2) / u22
    x1 = (s2 - s1 * x2) / s0
    x0 = (a3 - a2 * x2 - a1 * x1) / a0
    e0, e1, e2 = e.T
    q = e0 * x0 + e1 * x1 + e2 * x2
    return np.where(0.0 > q, 0.0, q)


def _stack_nees(logs: Sequence) -> np.ndarray:
    lengths = {len(log.nees) for log in logs}
    if len(lengths) != 1:
        raise ValueError("runs have different lengths; cannot average per timestep")
    return np.array([log.nees for log in logs])


def average_nees(logs: Sequence) -> np.ndarray:
    """Per-timestep mean NEES across runs."""
    return _stack_nees(logs).mean(axis=0)


def rmse(logs: Sequence) -> np.ndarray:
    """Per-timestep position RMSE across runs."""
    sq = np.array([log.position_error() ** 2 for log in logs])
    return np.sqrt(sq.mean(axis=0))


def in_band_fraction(series: np.ndarray, lo: float, hi: float) -> float:
    """Fraction of entries inside [lo, hi]."""
    series = np.asarray(series)
    return float(np.mean((series >= lo) & (series <= hi)))


def _reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x).

    Series expansion for x < a + 1, continued fraction (modified Lentz)
    otherwise; both converge fast in that split.
    """
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        n = a
        for _ in range(1000):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return min(total * math.exp(log_prefactor), 1.0)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(1.0 - h * math.exp(log_prefactor), 0.0)


def _inv_reg_lower_gamma(a: float, p: float) -> float:
    """Solve P(a, x) = p for x by bracketed bisection."""
    hi = max(a, 1.0)
    while _reg_lower_gamma(a, hi) < p and hi < 1e12:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _reg_lower_gamma(a, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_ppf(p: float, dof: int) -> float:
    """Chi-square quantile function for dof degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    return 2.0 * _inv_reg_lower_gamma(0.5 * dof, p)


@functools.lru_cache
def chi2_band(n_runs: int, state_dim: int, confidence: float) -> tuple[float, float]:
    """Two-sided acceptance band for the per-timestep average NEES.

    The average of n_runs independent NEES values, scaled by n_runs, is
    chi-square with n_runs * state_dim degrees of freedom; the band is that
    distribution's central confidence interval divided back by n_runs.
    The band depends on the arguments alone and is cached per argument tuple.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if state_dim < 1:
        raise ValueError("state_dim must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    dof = n_runs * state_dim
    q_lo = 0.5 * (1.0 - confidence)
    q_hi = 0.5 * (1.0 + confidence)
    return chi2_ppf(q_lo, dof) / n_runs, chi2_ppf(q_hi, dof) / n_runs


@dataclass
class EnsembleReport:
    """Monte Carlo ensemble evaluation of one variant on one scenario."""

    variant: str
    n_runs: int
    t: np.ndarray
    rmse_pos: np.ndarray
    avg_nees: np.ndarray
    band: tuple[float, float]
    in_band: float
    run_summaries: list

    @property
    def time_avg_rmse_pos(self) -> float:
        return float(np.mean(self.rmse_pos))


def build_report(logs: Sequence, confidence: float = 0.95) -> EnsembleReport:
    """Aggregate an ensemble of run logs into one report.

    All logs must come from the same scenario (equal lengths and variant).
    """
    if not logs:
        raise ValueError("cannot build a report from zero runs")
    variants = {log.variant for log in logs}
    if len(variants) != 1:
        raise ValueError(f"mixed variants in one ensemble: {sorted(variants)}")
    n_runs = len(logs)
    avg = average_nees(logs)
    band = chi2_band(n_runs, STATE_DIM, confidence)
    return EnsembleReport(
        variant=variants.pop(),
        n_runs=n_runs,
        t=logs[0].t.copy(),
        rmse_pos=rmse(logs),
        avg_nees=avg,
        band=band,
        in_band=in_band_fraction(avg, band[0], band[1]),
        run_summaries=[log.summary() for log in logs],
    )
