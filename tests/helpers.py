"""Independent oracles used across the test modules.

Everything here recomputes quantities by a different route than the package
code: central finite differences for Jacobians and gradients, a rule-by-rule
scalar loop for the fuzzy forward pass, the input clamp through builtin min
and max, a textbook Kalman filter with an
explicit matrix inverse, the filter cycle as numpy matrix products with a
LAPACK solve, the filter step as a chain of the array-level ekf functions,
a deterministic residual stream whose sample covariance is
known in closed form, sensing with one noise-free and one noisy
models.observe per landmark, CSV rows formatted value by value through
csv.writer, a run loop that moves Pose/ControlInput/GaussianState objects
through every tick, the NEES elimination on row tuples, the covariance
adapter as one AnfisNet object per fuzzy network with a deque residual
window, and the stacked fuzzy network and Q sensitivity as numpy array
expressions. NoNumpy stands in for a module's numpy in the guard tests.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from fuzzyloc import ekf, metrics, models, simulator
from fuzzyloc.adaptation import (
    DEFAULT_LEAK,
    Q_CEILING_RATIO,
    Q_FLOOR_RATIO,
    Q_SINGLETON_RATIO,
    R_SINGLETON_RATIO,
    SCALE_REL_FLOOR,
    AdaptationConfig,
    CovarianceAdapter,
    StepTrace,
)
from fuzzyloc.anfis import (
    CONSEQUENT,
    DEFAULT_DELTA_FLOOR,
    INPUT_SATURATION_WIDTHS,
    N_PARAMS,
    N_RULES,
    N_SINGLETONS,
    N_TERMS,
    AnfisNet,
    gradient_floats,
)
from fuzzyloc.ekf import CovPair, GaussianState, InnovationRecord
from fuzzyloc.errors import SingularCovarianceError, SingularInnovationError, ZeroFiringError
from fuzzyloc.models import ControlInput, Measurement, Pose, wrap_angle


class NoNumpy:
    """Stands in for a module's numpy: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used")


def fd_jacobian(f, x, h=1e-6, wrap_rows=()):
    """Central-difference Jacobian of f: R^n -> R^m at x.

    Rows listed in wrap_rows hold angles; their differences are wrapped so
    evaluation points near +-pi do not produce spurious 2*pi jumps.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        dx = np.zeros_like(x)
        dx[j] = h
        diff = np.asarray(f(x + dx), dtype=float) - np.asarray(f(x - dx), dtype=float)
        for row in wrap_rows:
            diff[row] = wrap_angle(diff[row])
        jac[:, j] = diff / (2.0 * h)
    return jac


def anfis_forward_brute(net: AnfisNet, in1: float, in2: float) -> float:
    """Rule-by-rule forward pass of net 0 of a stack, written independently
    of the float kernels."""
    p = net.params[0]
    num = 0.0
    den = 0.0
    for i in range(1, 6):
        m1, d1 = p[i - 1], p[10 + i - 1]
        mu1 = math.exp(-(((in1 - m1) / d1) ** 2))
        for j in range(1, 6):
            m2, d2 = p[5 + j - 1], p[15 + j - 1]
            mu2 = math.exp(-(((in2 - m2) / d2) ** 2))
            firing = mu1 * mu2
            label = min(max(10 - i - j, 1), 7)  # anti-diagonal rule table, 1-based
            num += firing * p[20 + label - 1]
            den += firing
    return num / den


def anfis_analytic_gradients(net: AnfisNet, traces) -> np.ndarray:
    """Analytic output gradients of a one-net stack in the 27-scalar param layout."""
    return np.array(gradient_floats(net.params[0], traces[0]))


def anfis_fd_gradients(net: AnfisNet, in1: float, in2: float, h: float = 1e-6) -> np.ndarray:
    """Output gradients of a one-net stack w.r.t. all 27 parameters by central differences."""
    params = net.params[0]
    grads = np.zeros(len(params))
    for k in range(len(params)):
        hk = h * max(1.0, abs(params[k]))
        hi = list(params)
        lo = list(params)
        hi[k] += hk
        lo[k] -= hk
        out_hi, _ = AnfisNet([hi], net.eta).forward([(in1, in2)])
        out_lo, _ = AnfisNet([lo], net.eta).forward([(in1, in2)])
        grads[k] = (out_hi[0] - out_lo[0]) / (2.0 * hk)
    return grads


def saturate_min_max(p: list[float], in1: float, in2: float) -> tuple[float, float]:
    """anfis.saturate_floats through builtin min and max, as it was first written."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, *_ = p
    reach1 = INPUT_SATURATION_WIDTHS * max(w0, w1, w2, w3, w4)
    reach2 = INPUT_SATURATION_WIDTHS * max(w5, w6, w7, w8, w9)
    return (
        min(max(in1, min(c0, c1, c2, c3, c4) - reach1), max(c0, c1, c2, c3, c4) + reach1),
        min(max(in2, min(c5, c6, c7, c8, c9) - reach2), max(c5, c6, c7, c8, c9) + reach2),
    )


def random_net(rng, singleton_span: float = 2.0, k: int = 1) -> AnfisNet:
    """Stack of k well-conditioned random networks: ordered centers, moderate widths."""
    centers = np.sort(rng.uniform(-3.0, 3.0, (k, 2, 5)), axis=2)
    widths = rng.uniform(0.6, 2.0, (k, 2, 5))
    singletons = rng.uniform(-singleton_span, singleton_span, (k, 7))
    return AnfisNet(np.concatenate((centers.reshape(k, 10), widths.reshape(k, 10), singletons), axis=1).tolist())


def random_pose(rng, span: float = 50.0) -> Pose:
    return Pose(
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(-math.pi, math.pi)),
    )


def random_control(rng) -> ControlInput:
    return ControlInput(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-0.5, 0.5)))


class LinearKF:
    """Textbook Kalman filter with an explicit inverse, as an oracle."""

    def __init__(self, x0, P0):
        self.x = np.array(x0, dtype=float)
        self.P = np.array(P0, dtype=float)

    def predict(self, F, Q):
        self.x = F @ self.x
        self.P = F @ self.P @ F.T + Q

    def update(self, C, R, z):
        S = C @ self.P @ C.T + R
        K = self.P @ C.T @ np.linalg.inv(S)
        self.x = self.x + K @ (z - C @ self.x)
        self.P = (np.eye(self.x.size) - K @ C) @ self.P


def _symmetrize(mat):
    return 0.5 * (mat + mat.T)


def _solve_innovation(S, rhs):
    if not np.all(np.isfinite(S)) or np.linalg.cond(S) > 1e12:
        raise SingularInnovationError("innovation covariance is ill-conditioned")
    return np.linalg.solve(S, rhs)


def numpy_predict(state, u, Q, dt, wheelbase):
    """ekf.predict as matrix products of the model Jacobians."""
    pose = state.pose
    next_pose = models.motion_step(pose, u, dt, wheelbase)
    F = models.motion_jacobian_state(pose, u, dt)
    G = models.motion_jacobian_control(pose, u, dt, wheelbase)
    P = F @ np.asarray(state.P) @ F.T + G @ Q @ G.T
    return GaussianState(next_pose.as_array(), P)


def numpy_predict_measurement(state, landmark, R):
    """ekf.predict_measurement as matrix products: (zhat, S, H)."""
    pose = state.pose
    z = models.observe(pose, landmark)
    H = models.observation_jacobian(pose, landmark)
    S = _symmetrize(H @ np.asarray(state.P) @ H.T + R)
    return np.array([z.r, z.theta]), S, H


def numpy_gate(residual, S, threshold):
    """ekf.gate with np.linalg.cond as the conditioning test and a LAPACK solve."""
    d = float(residual @ _solve_innovation(S, residual))
    return d <= threshold


def numpy_update(state, record, H):
    """ekf.update as (I - K H) P with K^T solved from S K^T = H P."""
    P = np.asarray(state.P)
    K = _solve_innovation(record.S, H @ P).T
    mean = np.asarray(state.mean) + K @ record.residual
    return GaussianState(mean, (np.eye(3) - K @ H) @ P)


def step_object_chain(
    state, u, measurements, cov, landmark_map, dt, wheelbase,
    gate_threshold=ekf.DEFAULT_GATE_THRESHOLD, timestep=0,
):
    """ekf.step as a chain of the array-level functions: predict, then
    predict_measurement, innovation, gate and update for each measurement,
    a GaussianState between every two of them."""
    state = ekf.predict(state, u, cov.Q, dt, wheelbase)
    records = []
    for z in measurements:
        landmark = landmark_map[z.landmark_id]
        zhat, S, H = ekf.predict_measurement(state, landmark, cov.R)
        residual = ekf.innovation(z, zhat)
        accepted = ekf.gate(residual, S, gate_threshold)
        record = InnovationRecord(residual, S, z.landmark_id, timestep, accepted, H)
        if accepted:
            state = ekf.update(state, record, H)
        records.append(record)
    return state, records


def record_drive(scenario, seed):
    """Clean commands and scans of one run_once drive, drawn in its RNG order.

    Returns:
        One (clean ControlInput, scan) pair per control tick; scans are empty
        lists off observation ticks.
    """
    control_rng, sensor_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    landmark_map = models.LandmarkMap(scenario.landmarks)
    driver = simulator.WaypointDriver(scenario)
    truth = Pose(*scenario.start)
    ticks = []
    for k in range(1, int(round(scenario.duration * scenario.control_rate)) + 1):
        clean, noisy = driver.drive(truth, control_rng, scenario.true_noise)
        truth = models.motion_step(
            truth, clean, scenario.dt, scenario.wheelbase,
            noise=(noisy.v - clean.v, noisy.gamma - clean.gamma),
        )
        scan = []
        if k % scenario.ticks_per_observation == 0:
            scan = simulator.sense(truth, landmark_map, scenario, sensor_rng)
        ticks.append((clean, scan))
    return ticks


def run_once_object_loop(scenario, variant, seed=None, adaptation=None):
    """simulator.run_once as a loop over objects: every tick goes through
    WaypointDriver.drive, models.motion_step, ekf.step and metrics.nees,
    with one scalar rng.normal per control-noise channel and tick."""
    if variant not in simulator.VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    scenario.validate()
    if seed is None:
        seed = scenario.seed
    control_rng, sensor_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    dt, wheelbase = scenario.dt, scenario.wheelbase
    ratio = scenario.ticks_per_observation
    n = int(round(scenario.duration * scenario.control_rate))
    landmark_map = models.LandmarkMap(scenario.landmarks)
    truth = Pose(*scenario.start)
    state = GaussianState(truth.as_array(), np.diag(simulator.DEFAULT_P0_DIAG))
    cov = CovPair.from_noise(scenario.assumed_noise)
    driver = simulator.WaypointDriver(scenario)
    mode = {"ekf": None, "anfekf-r": "r", "anfekf-q": "q", "anfekf-rq": "rq"}[variant]
    adapter = CovarianceAdapter(mode, cov, adaptation) if mode else None

    truth_arr, est_arr, p_diag = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    nees_arr = np.empty(n)
    n_meas, n_gated = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    r_diag, q_diag = np.empty((n, 2)), np.empty((n, 2))
    dom_diag, delta_dom_diag = np.full((n, 2), np.nan), np.full((n, 2), np.nan)
    applied_delta_r, q_factor = np.full((n, 2), np.nan), np.full(n, np.nan)
    for i in range(n):
        clean, noisy = driver.drive(truth, control_rng, scenario.true_noise)
        truth = models.motion_step(
            truth, clean, dt, wheelbase, noise=(noisy.v - clean.v, noisy.gamma - clean.gamma),
        )
        obs_tick = (i + 1) % ratio == 0
        scan = simulator.sense(truth, landmark_map, scenario, sensor_rng) if obs_tick else []
        prior = state
        state, records = ekf.step(state, clean, scan, cov, landmark_map, dt, wheelbase, timestep=i + 1)
        if obs_tick:
            n_meas[i] = sum(rec.accepted for rec in records)
            n_gated[i] = len(records) - n_meas[i]
            if adapter is not None:
                G_u = models.motion_jacobian_control(prior.pose, clean, dt, wheelbase).ravel().tolist()
                cov, trace = adapter.after_update(records, G_u, cov)
                if trace.active:
                    dom_diag[i] = trace.dom_diag
                    delta_dom_diag[i] = trace.delta_dom_diag
                    applied_delta_r[i] = trace.applied_delta_r
                    q_factor[i] = trace.q_factor
        truth_arr[i] = (truth.x, truth.y, truth.phi)
        est_arr[i] = state.mean
        p_diag[i] = np.diag(np.asarray(state.P))
        nees_arr[i] = metrics.nees(truth, state)
        r_diag[i] = cov.R
        q_diag[i] = cov.Q
    return simulator.RunLog(
        variant=variant, seed=seed, t=np.arange(1, n + 1) * dt,
        truth=truth_arr, est_mean=est_arr, p_diag=p_diag, nees=nees_arr,
        n_meas=n_meas, n_gated=n_gated, r_diag=r_diag, q_diag=q_diag,
        dom_diag=dom_diag, delta_dom_diag=delta_dom_diag,
        applied_delta_r=applied_delta_r, q_factor=q_factor,
        timed_out=driver.reached == 0,
    )


def nees_row_tuples(truth, est):
    """metrics.nees with each row of [P | e] held as a 4-tuple while pivoting."""
    x, y, phi = np.asarray(est.mean).tolist()
    e0, e1, e2 = truth.x - x, truth.y - y, wrap_angle(truth.phi - phi)
    p0, p1, p2 = np.asarray(est.P).tolist()
    r0, r1, r2 = (*p0, e0), (*p1, e1), (*p2, e2)
    if abs(r1[0]) > abs(r0[0]):
        r0, r1 = r1, r0
    if abs(r2[0]) > abs(r0[0]):
        r0, r2 = r2, r0
    if r0[0] != 0.0:
        l1, l2 = r1[0] / r0[0], r2[0] / r0[0]
        s1 = (r1[1] - l1 * r0[1], r1[2] - l1 * r0[2], r1[3] - l1 * r0[3])
        s2 = (r2[1] - l2 * r0[1], r2[2] - l2 * r0[2], r2[3] - l2 * r0[3])
        if abs(s2[0]) > abs(s1[0]):
            s1, s2 = s2, s1
        if s1[0] != 0.0:
            l3 = s2[0] / s1[0]
            u22 = s2[1] - l3 * s1[1]
            if u22 != 0.0:
                x2 = (s2[2] - l3 * s1[2]) / u22
                x1 = (s1[2] - s1[1] * x2) / s1[0]
                x0 = (r0[3] - r0[2] * x2 - r0[1] * x1) / r0[0]
                return max(e0 * x0 + e1 * x1 + e2 * x2, 0.0)
    raise SingularCovarianceError("state covariance is singular")


def alternating_residuals(sigma1: float, sigma2: float) -> list[np.ndarray]:
    """Four-residual cycle whose per-channel second moment is exactly sigma^2.

    Every element has |r_i| = sigma_i, so the diagonal of the windowed outer
    product average equals diag(sigma1^2, sigma2^2) for any window length;
    the alternating signs keep the off-diagonal near zero.
    """
    return [
        np.array([+sigma1, +sigma2]),
        np.array([-sigma1, -sigma2]),
        np.array([+sigma1, -sigma2]),
        np.array([-sigma1, +sigma2]),
    ]


def drive_r_adapter(
    r0_diag,
    true_sigmas,
    n_steps: int,
    config: AdaptationConfig | None = None,
):
    """Feed an R-mode adapter a frozen surrogate stream.

    The filter's S is taken to be R itself (no state-uncertainty term) while
    the actual residuals come from alternating_residuals, so the mismatch is
    exactly R - diag(true_sigmas^2) on every evaluated step.

    Returns:
        (dom_diag, r_diag): arrays of shape (n_steps, 2); dom rows are NaN on
        warm-up steps.
    """
    cov = CovPair((0.09, 0.0027), r0_diag)
    adapter = CovarianceAdapter("r", cov, config)
    pattern = alternating_residuals(*true_sigmas)
    G_u = (0.0,) * 6
    doms = np.full((n_steps, 2), np.nan)
    rs = np.empty((n_steps, 2))
    for k in range(n_steps):
        rec = InnovationRecord(
            residual=pattern[k % 4].copy(),
            S=np.diag(cov.R),
            landmark_id=1,
            timestep=k,
            accepted=True,
        )
        cov, trace = adapter.after_update([rec], G_u, cov)
        if trace.active:
            doms[k] = trace.dom_diag
        rs[k] = cov.R
    return doms, rs


def sense_observe_twice(truth, landmark_map, scenario, rng):
    """simulator.sense with a noise-free observe for visibility, then a noisy one."""
    half_fov = 0.5 * scenario.sensor_fov
    noise = scenario.true_noise
    scan = []
    for lm in landmark_map:
        clean = models.observe(truth, lm)
        if clean.r > scenario.sensor_range or abs(clean.theta) > half_fov:
            continue
        dr = rng.normal(0.0, noise.sigma_r)
        dtheta = rng.normal(0.0, noise.sigma_theta)
        z = models.observe(truth, lm, noise=(dr, dtheta))
        if z.r < 0.0:
            z = Measurement(z.landmark_id, 0.0, z.theta)
        scan.append(z)
    return scan


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_csv_rows(path, schema, columns, rows):
    """A CSV through csv.writer, each value formatted on its own."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def runs_rows(logs):
    """runs.csv rows, indexed value by value."""
    for run_idx, log in enumerate(logs):
        for i in range(len(log.t)):
            yield (
                run_idx, i + 1, log.t[i],
                log.truth[i, 0], log.truth[i, 1], log.truth[i, 2],
                log.est_mean[i, 0], log.est_mean[i, 1], log.est_mean[i, 2],
                log.p_diag[i, 0], log.p_diag[i, 1], log.p_diag[i, 2],
                log.nees[i], log.n_meas[i], log.n_gated[i],
                log.r_diag[i, 0], log.r_diag[i, 1],
                log.q_diag[i, 0], log.q_diag[i, 1],
                log.dom_diag[i, 0], log.dom_diag[i, 1],
            )


def report_rows(report):
    """report.csv rows, indexed value by value."""
    for i in range(len(report.t)):
        yield (
            i + 1, report.t[i], report.rmse_pos[i], report.avg_nees[i],
            report.band[0], report.band[1],
        )


def compare_rows(rep_a, rep_b):
    """compare.csv rows, indexed value by value."""
    for i in range(len(rep_a.t)):
        yield (
            i + 1, rep_a.t[i],
            rep_a.rmse_pos[i], rep_b.rmse_pos[i],
            rep_a.avg_nees[i], rep_b.avg_nees[i],
            rep_a.band[0], rep_a.band[1],
        )


# -- The covariance adapter before its nets were stacked --------------------
# One AnfisNet object per fuzzy network with (2, 5) centers and widths and
# (7,) singletons, a deque residual window re-stacked on every scan, and the
# R and Q adapters trained through an isinstance dispatch. It is the
# byte-equality oracle of fuzzyloc.adaptation.CovarianceAdapter.


@dataclass
class LegacyForwardTrace:
    in1: float
    in2: float
    mu: np.ndarray  # (2, 5)
    firing: np.ndarray  # (5, 5)
    total: float
    normalized: np.ndarray  # (5, 5)
    out: float


@dataclass
class LegacyAnfisNet:
    """One two-input network: centers and widths (2, 5), singletons (7,)."""

    centers: np.ndarray
    widths: np.ndarray
    singletons: np.ndarray
    eta: float = 0.01
    delta_floor: float = 1e-4

    def __post_init__(self) -> None:
        self.centers = np.array(self.centers, dtype=float)
        self.widths = np.array(self.widths, dtype=float)
        self.singletons = np.asarray(self.singletons, dtype=float).copy()

    def forward(self, in1: float, in2: float) -> tuple[float, LegacyForwardTrace]:
        z = (np.array([[in1], [in2]]) - self.centers) / self.widths
        mu = np.exp(-z * z)
        firing = mu[0, :, None] * mu[1]
        total = float(firing.sum())
        if total < 1e-300:
            raise ZeroFiringError(f"zero total firing at inputs ({in1}, {in2})")
        normalized = firing / total
        out = float((normalized * self.singletons[CONSEQUENT]).sum())
        return out, LegacyForwardTrace(in1, in2, mu, firing, total, normalized, out)

    def output_gradients(self, trace: LegacyForwardTrace):
        d_w = np.bincount(CONSEQUENT.ravel(), trace.normalized.ravel(), 7)
        excess = self.singletons[CONSEQUENT] - trace.out
        g_mu = np.array([excess @ trace.mu[1], excess.T @ trace.mu[0]]) / trace.total
        diff = np.array([[trace.in1], [trace.in2]]) - self.centers
        d_mu = g_mu * trace.mu * 2.0
        d_centers = d_mu * diff / self.widths**2
        d_widths = d_mu * diff**2 / self.widths**3
        return d_w, d_centers, d_widths

    def train_step(self, trace: LegacyForwardTrace, e: float, ds_dout: float) -> "LegacyAnfisNet":
        g = self.eta * e * ds_dout
        if g == 0.0:
            return self
        d_w, d_centers, d_widths = self.output_gradients(trace)
        self.singletons -= g * d_w
        self.centers -= g * d_centers
        self.widths = np.maximum(self.widths - g * d_widths, self.delta_floor)
        return self


def legacy_params(net: LegacyAnfisNet) -> list[float]:
    """10 centers, 10 widths, 7 singletons."""
    return np.concatenate((net.centers.ravel(), net.widths.ravel(), net.singletons)).tolist()


def _legacy_spread_net(scale1, scale2, singletons, eta, delta_floor) -> LegacyAnfisNet:
    scales = np.array([[scale1], [scale2]])
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    return LegacyAnfisNet(offsets * scales, np.repeat(scales, 5, axis=1), singletons, eta, delta_floor)


def legacy_saturated_forward(net: LegacyAnfisNet, in1: float, in2: float):
    clamped = []
    for u, centers, widths in zip((in1, in2), net.centers.tolist(), net.widths.tolist()):
        reach = INPUT_SATURATION_WIDTHS * max(widths)
        clamped.append(min(max(float(u), min(centers) - reach), max(centers) + reach))
    return net.forward(*clamped)


def legacy_leak_toward(net: LegacyAnfisNet, anchor, rate: float) -> LegacyAnfisNet:
    if rate == 0.0:
        return net
    params = np.concatenate((net.centers.ravel(), net.widths.ravel(), net.singletons))
    params += rate * (np.asarray(anchor, dtype=float) - params)
    net.centers, net.widths = params[:20].reshape(2, 2, 5)
    np.maximum(net.widths, net.delta_floor, out=net.widths)
    net.singletons = params[20:]
    return net


@dataclass
class _LegacyRAdapter:
    nets: tuple
    r_floor: float


@dataclass
class _LegacyQAdapter:
    net: LegacyAnfisNet
    q_floor: np.ndarray
    q_ceiling: np.ndarray


def _legacy_train(adapter, dom, traces, q_sensitivity=None):
    if isinstance(adapter, _LegacyRAdapter):
        for i, (net, trace) in enumerate(zip(adapter.nets, traces)):
            net.train_step(trace, float(dom[i, i]), 1.0)
    elif isinstance(adapter, _LegacyQAdapter):
        e = 0.5 * float(dom[0, 0] + dom[1, 1])
        ds = 0.5 * float(q_sensitivity[0] + q_sensitivity[1])
        adapter.net.train_step(traces, e, ds)
    else:
        raise TypeError(f"unknown adapter type {type(adapter).__name__}")


class LegacyCovarianceAdapter:
    """CovarianceAdapter with per-net objects, a deque window and per-net leaks."""

    def __init__(self, mode, initial_cov, config=None):
        if mode not in ("r", "q", "rq"):
            raise ValueError(f"unknown adaptation mode {mode!r}")
        self.mode = mode
        self.config = config if config is not None else AdaptationConfig()
        self.window = deque(maxlen=self.config.window)
        self.dom = None
        self.delta_dom = None
        self.r_adapter = None
        self.q_adapter = None
        self._built = False
        self._s_samples = []
        self._initial_r = np.array(initial_cov.R)
        self._initial_q = np.array(initial_cov.Q)
        self._r_anchors = []
        self._q_anchor = None

    def _input_scale(self, samples):
        spread = float(np.std(samples))
        floor = SCALE_REL_FLOOR * float(np.mean(np.abs(samples)))
        return max(spread, floor, 1e-12)

    def _build_nets(self):
        cfg = self.config
        samples = np.array(self._s_samples)
        scales = (self._input_scale(samples[:, 0]), self._input_scale(samples[:, 1]))
        if self.mode in ("r", "rq"):
            nets = tuple(
                _legacy_spread_net(scales[i], 0.5 * scales[i],
                                   R_SINGLETON_RATIO * self._initial_r[i] * np.arange(-3.0, 4.0),
                                   cfg.eta, DEFAULT_DELTA_FLOOR)
                for i in range(2)
            )
            self.r_adapter = _LegacyRAdapter(nets, cfg.r_floor)
            self._r_anchors = [np.array(legacy_params(net)) for net in nets]
        if self.mode in ("q", "rq"):
            net = _legacy_spread_net(scales[0], scales[1], Q_SINGLETON_RATIO ** np.arange(-3.0, 4.0),
                                     cfg.eta, DEFAULT_DELTA_FLOOR)
            if cfg.q_floor is not None:
                q_floor = np.full(2, float(cfg.q_floor))
            else:
                q_floor = Q_FLOOR_RATIO * self._initial_q
            self.q_adapter = _LegacyQAdapter(net, q_floor, Q_CEILING_RATIO * self._initial_q)
            self._q_anchor = np.array(legacy_params(net))
        self._built = True

    def _apply_leak(self):
        rate = DEFAULT_LEAK
        if not self._built or rate == 0.0:
            return
        if self.r_adapter is not None:
            for net, anchor in zip(self.r_adapter.nets, self._r_anchors):
                legacy_leak_toward(net, anchor, rate)
        if self.q_adapter is not None:
            legacy_leak_toward(self.q_adapter.net, self._q_anchor, rate)

    def after_update(self, records, G_u, cov):
        trace = StepTrace()
        self._apply_leak()
        if not records:
            return cov, trace
        for rec in records:
            self.window.append(np.asarray(rec.residual, dtype=float).copy())
        S = [np.asarray(rec.S) for rec in records]
        S_scan = sum(S[1:], S[0]) / len(S)
        accepted = [rec for rec in records if rec.accepted]
        if not accepted:
            return cov, trace
        if not self._built and self.config.eta != 0.0:
            self._s_samples.append(S_scan.diagonal().copy())
        if len(self.window) < self.config.window:
            return cov, trace
        arr = np.array(self.window)
        c_hat = arr.T @ arr / self.config.window
        dom = np.asarray(S_scan, dtype=float) - np.asarray(c_hat, dtype=float)
        self.delta_dom = np.zeros_like(dom) if self.dom is None else dom - self.dom
        self.dom = dom
        trace.active = True
        (d00, _), (_, d11) = self.dom.tolist()
        (dd00, _), (_, dd11) = self.delta_dom.tolist()
        trace.dom_diag = (d00, d11)
        trace.delta_dom_diag = (dd00, dd11)
        if self.config.eta == 0.0:
            return cov, trace
        if not self._built:
            self._build_nets()
        R, Q = np.diag(cov.R), np.diag(cov.Q)
        R_next, Q_next = R, Q
        if self.r_adapter is not None:
            R_next = np.array(R, dtype=float, copy=True)
            r_traces = []
            for i, net in enumerate(self.r_adapter.nets):
                delta, t = legacy_saturated_forward(net, float(self.dom[i, i]), float(self.delta_dom[i, i]))
                R_next[i, i] = max(R[i, i] + delta, self.r_adapter.r_floor)
                r_traces.append(t)
            _legacy_train(self.r_adapter, self.dom, r_traces)
            trace.applied_delta_r = (
                float(R_next[0, 0] - R[0, 0]),
                float(R_next[1, 1] - R[1, 1]),
            )
        if self.q_adapter is not None:
            sens = numpy_q_factor_sensitivity(accepted, np.reshape(G_u, (3, 2)), Q)
            factor, q_trace = legacy_saturated_forward(
                self.q_adapter.net, float(self.dom[0, 0]), float(self.dom[1, 1]))
            Q_next = np.array(Q, dtype=float, copy=True)
            for i in range(2):
                Q_next[i, i] = min(max(Q[i, i] * factor, self.q_adapter.q_floor[i]),
                                   self.q_adapter.q_ceiling[i])
            _legacy_train(self.q_adapter, self.dom, q_trace, q_sensitivity=sens)
            trace.q_factor = float(q_trace.out)
        return CovPair(np.diag(Q_next), np.diag(R_next)), trace


# -- The fuzzy network stack and Q sensitivity as numpy expressions ----------
# The package's array code before the adapter moved to float kernels: one
# (k, 27) parameter array per stack, every pass a batched numpy expression,
# the gradient's products through matmul and bincount, and G Q G^T and
# H G Q G^T H^T as matrix products. Its BLAS calls may round differently
# under another OpenBLAS kernel, so it is a reference within tolerances.


def numpy_q_factor_sensitivity(records, G_u, Q):
    """[H G Q G^T H^T]_ii averaged over the accepted records with an H."""
    GQG = G_u @ Q @ G_u.T
    sens = np.zeros(2)
    n = 0
    for rec in records:
        if rec.accepted and rec.H is not None:
            H = np.asarray(rec.H)
            sens += (H @ GQG @ H.T).diagonal()
            n += 1
    return sens / max(n, 1)


@dataclass
class NumpyForwardTrace:
    inputs: np.ndarray  # (k, 2, 1)
    mu: np.ndarray  # (k, 2, 5)
    total: np.ndarray  # (k,)
    normalized: np.ndarray  # (k, 5, 5)
    table: np.ndarray  # (k, 5, 5), C-contiguous
    out: np.ndarray  # (k,)


class NumpyAnfisNet:
    """A stack of k nets held as one (k, 27) array, a row per net."""

    def __init__(self, params, eta=0.01):
        self.params = np.array(params, dtype=float).reshape(-1, N_PARAMS)
        self.eta = eta
        k = len(self.params)
        self.centers = self.params[:, :10].reshape(k, 2, N_TERMS)
        self.widths = self.params[:, 10:20].reshape(k, 2, N_TERMS)
        self.singletons = self.params[:, 20:]

    def forward(self, inputs):
        u = np.asarray(inputs, dtype=float).reshape(-1, 2, 1)
        z = (u - self.centers) / self.widths
        mu = np.exp(-z * z)
        firing = mu[:, 0, :, None] * mu[:, 1, None, :]
        total = firing.reshape(-1, N_RULES).sum(axis=1)
        if any(t < 1e-300 for t in total.tolist()):
            raise ZeroFiringError(f"zero total firing at inputs {u.reshape(-1, 2).tolist()}")
        normalized = firing / total[:, None, None]
        table = np.take(self.singletons, CONSEQUENT.ravel(), axis=1).reshape(-1, N_TERMS, N_TERMS)
        out = (normalized * table).reshape(-1, N_RULES).sum(axis=1)
        return out, NumpyForwardTrace(u, mu, total, normalized, table, out)

    def output_gradients(self, trace):
        k = len(self.params)
        bins = (CONSEQUENT.ravel() + N_SINGLETONS * np.arange(k)[:, None]).ravel()
        d_w = np.bincount(bins, trace.normalized.ravel(), N_SINGLETONS * k)
        excess = trace.table - trace.out[:, None, None]
        g_mu = np.concatenate((
            np.matmul(excess, trace.mu[:, 1, :, None]),
            np.matmul(excess.transpose(0, 2, 1), trace.mu[:, 0, :, None]),
        ), axis=2).transpose(0, 2, 1) / trace.total[:, None, None]
        diff = trace.inputs - self.centers
        d_mu = g_mu * trace.mu * 2.0
        d_centers = d_mu * diff / self.widths**2
        d_widths = d_mu * diff**2 / self.widths**3
        return d_w.reshape(k, N_SINGLETONS), d_centers, d_widths

    def train_step(self, trace, e, ds_dout):
        g = self.eta * np.asarray(e, dtype=float) * np.asarray(ds_dout, dtype=float)
        g = np.broadcast_to(g, len(self.params))
        idle = g == 0.0
        kept = self.params[idle]
        d_w, d_centers, d_widths = self.output_gradients(trace)
        self.singletons -= g[:, None] * d_w
        g = g[:, None, None]
        self.centers -= g * d_centers
        np.maximum(self.widths - g * d_widths, DEFAULT_DELTA_FLOOR, out=self.widths)
        self.params[idle] = kept
        return self
