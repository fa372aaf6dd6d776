"""Independent oracles used across the test modules.

Everything here recomputes quantities by a different route than the package
code: central finite differences for Jacobians and gradients, a rule-by-rule
scalar loop for the fuzzy forward pass, a textbook Kalman filter with an
explicit matrix inverse, the filter cycle as numpy matrix products with a
LAPACK solve, a deterministic residual stream whose sample covariance is
known in closed form, sensing with one noise-free and one noisy
models.observe per landmark, CSV rows formatted value by value through
csv.writer, a run loop that moves Pose/ControlInput/GaussianState objects
through every tick, and the NEES elimination on row tuples.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from fuzzyloc import ekf, metrics, models, simulator
from fuzzyloc.adaptation import AdaptationConfig, CovarianceAdapter
from fuzzyloc.anfis import AnfisNet, net_from_params, net_to_params
from fuzzyloc.ekf import CovPair, GaussianState, InnovationRecord
from fuzzyloc.errors import SingularCovarianceError, SingularInnovationError
from fuzzyloc.models import ControlInput, Measurement, Pose, wrap_angle


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
    """Rule-by-rule forward pass, written independently of the array code."""
    num = 0.0
    den = 0.0
    for i in range(1, 6):
        m1, d1 = float(net.centers[0, i - 1]), float(net.widths[0, i - 1])
        mu1 = math.exp(-(((in1 - m1) / d1) ** 2))
        for j in range(1, 6):
            m2, d2 = float(net.centers[1, j - 1]), float(net.widths[1, j - 1])
            mu2 = math.exp(-(((in2 - m2) / d2) ** 2))
            firing = mu1 * mu2
            label = min(max(10 - i - j, 1), 7)  # anti-diagonal rule table, 1-based
            num += firing * float(net.singletons[label - 1])
            den += firing
    return num / den


def anfis_analytic_gradients(net: AnfisNet, trace) -> np.ndarray:
    """Analytic output gradients flattened into the 27-scalar param layout."""
    d_w, d_centers, d_widths = net.output_gradients(trace)
    return np.concatenate([d_centers.ravel(), d_widths.ravel(), d_w])


def anfis_fd_gradients(net: AnfisNet, in1: float, in2: float, h: float = 1e-6) -> np.ndarray:
    """Output gradients w.r.t. all 27 parameters by central differences."""
    params = net_to_params(net)
    grads = np.zeros(len(params))
    for k in range(len(params)):
        hk = h * max(1.0, abs(params[k]))
        hi = list(params)
        lo = list(params)
        hi[k] += hk
        lo[k] -= hk
        out_hi, _ = net_from_params(hi, eta=net.eta, delta_floor=net.delta_floor).forward(in1, in2)
        out_lo, _ = net_from_params(lo, eta=net.eta, delta_floor=net.delta_floor).forward(in1, in2)
        grads[k] = (out_hi - out_lo) / (2.0 * hk)
    return grads


def random_net(rng, singleton_span: float = 2.0) -> AnfisNet:
    """Well-conditioned random network: ordered centers, moderate widths."""
    m1, d1 = np.sort(rng.uniform(-3.0, 3.0, 5)), rng.uniform(0.6, 2.0, 5)
    m2, d2 = np.sort(rng.uniform(-3.0, 3.0, 5)), rng.uniform(0.6, 2.0, 5)
    singletons = rng.uniform(-singleton_span, singleton_span, 7)
    return AnfisNet([m1, m2], [d1, d2], singletons)


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
    P = F @ state.P @ F.T + G @ Q @ G.T
    return GaussianState(next_pose.as_array(), P)


def numpy_predict_measurement(state, landmark, R):
    """ekf.predict_measurement as matrix products: (zhat, S, H)."""
    pose = state.pose
    z = models.observe(pose, landmark)
    H = models.observation_jacobian(pose, landmark)
    S = _symmetrize(H @ state.P @ H.T + R)
    return np.array([z.r, z.theta]), S, H


def numpy_gate(residual, S, threshold):
    """ekf.gate with np.linalg.cond as the conditioning test and a LAPACK solve."""
    d = float(residual @ _solve_innovation(S, residual))
    return d <= threshold


def numpy_update(state, record, H):
    """ekf.update as (I - K H) P with K^T solved from S K^T = H P."""
    K = _solve_innovation(record.S, H @ state.P).T
    mean = state.mean + K @ record.residual
    P = (np.eye(3) - K @ H) @ state.P
    return GaussianState(mean, P)


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


def run_once_object_loop(
    scenario,
    variant,
    seed=None,
    adaptation=None,
    gate_threshold=ekf.DEFAULT_GATE_THRESHOLD,
    p0_diag=simulator.DEFAULT_P0_DIAG,
):
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
    state = GaussianState(truth.as_array(), np.diag(p0_diag))
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
        state, records = ekf.step(
            state, clean, scan, cov, landmark_map, dt, wheelbase,
            gate_threshold=gate_threshold, timestep=i + 1,
        )
        if obs_tick:
            n_meas[i] = sum(rec.accepted for rec in records)
            n_gated[i] = len(records) - n_meas[i]
            if adapter is not None:
                G_u = models.motion_jacobian_control(prior.pose, clean, dt, wheelbase)
                cov, trace = adapter.after_update(records, G_u, cov)
                if trace.active:
                    dom_diag[i] = trace.dom_diag
                    delta_dom_diag[i] = trace.delta_dom_diag
                    applied_delta_r[i] = trace.applied_delta_r
                    q_factor[i] = trace.q_factor
        truth_arr[i] = (truth.x, truth.y, truth.phi)
        est_arr[i] = state.mean
        p_diag[i] = np.diag(state.P)
        nees_arr[i] = metrics.nees(truth, state)
        r_diag[i] = np.diag(cov.R)
        q_diag[i] = np.diag(cov.Q)
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
    x, y, phi = est.mean.tolist()
    e0, e1, e2 = truth.x - x, truth.y - y, wrap_angle(truth.phi - phi)
    p0, p1, p2 = est.P.tolist()
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
    cov = CovPair(np.diag([0.09, 0.0027]), np.diag(np.asarray(r0_diag, dtype=float)))
    adapter = CovarianceAdapter("r", cov, config)
    pattern = alternating_residuals(*true_sigmas)
    G_u = np.zeros((3, 2))
    doms = np.full((n_steps, 2), np.nan)
    rs = np.empty((n_steps, 2))
    for k in range(n_steps):
        rec = InnovationRecord(
            residual=pattern[k % 4].copy(),
            S=cov.R.copy(),
            landmark_id=1,
            timestep=k,
            accepted=True,
        )
        cov, trace = adapter.after_update([rec], G_u, cov)
        if trace.active:
            doms[k] = trace.dom_diag
        rs[k] = (cov.R[0, 0], cov.R[1, 1])
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
