"""Release acceptance suite.

Eight criteria, one test and one printed verdict line each. The ensemble
criteria run full Monte Carlo experiments on the built-in scenario and are
the slow part of the test suite (a couple of minutes on a few cores).
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

import helpers
from fuzzyloc import ekf, models
from fuzzyloc.adaptation import AdaptationConfig, CovarianceAdapter
from fuzzyloc.ekf import CovPair, GaussianState, InnovationRecord
from fuzzyloc.metrics import build_report, chi2_band
from fuzzyloc.models import ControlInput, Landmark, LandmarkMap, Pose
from fuzzyloc.simulator import default_scenario, run_monte_carlo, run_once

WORKERS = min(4, os.cpu_count() or 1)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def misspecified_scenario(sigma_v=None, sigma_gamma_deg=None, sigma_r=None, sigma_theta_deg=None):
    """Default scenario with selected assumed-noise channels overridden."""
    s = default_scenario()
    assumed = s.assumed_noise
    overrides = {}
    if sigma_v is not None:
        overrides["sigma_v"] = sigma_v
    if sigma_gamma_deg is not None:
        overrides["sigma_gamma"] = math.radians(sigma_gamma_deg)
    if sigma_r is not None:
        overrides["sigma_r"] = sigma_r
    if sigma_theta_deg is not None:
        overrides["sigma_theta"] = math.radians(sigma_theta_deg)
    return dataclasses.replace(s, assumed_noise=dataclasses.replace(assumed, **overrides))


def ensemble_pair(scenario, adaptive_variant, n_runs, base_seed):
    """Reference EKF and one adaptive variant on identical seeds."""
    logs_ref = run_monte_carlo(scenario, "ekf", n_runs, base_seed, max_workers=WORKERS)
    logs_ad = run_monte_carlo(scenario, adaptive_variant, n_runs, base_seed, max_workers=WORKERS)
    return build_report(logs_ref), build_report(logs_ad)


def paired_win_fraction(rep_ref, rep_adaptive) -> float:
    pairs = list(zip(rep_ref.run_summaries, rep_adaptive.run_summaries))
    wins = sum(1 for ref, ad in pairs if ad.time_avg_pos_rmse < ref.time_avg_pos_rmse)
    return wins / len(pairs)


@pytest.fixture(scope="module")
def matched_pair():
    t0 = time.monotonic()
    pair = ensemble_pair(default_scenario(), "anfekf-r", n_runs=50, base_seed=100)
    return (*pair, time.monotonic() - t0)


@pytest.fixture(scope="module")
def wrong_sensor_pair():
    scenario = misspecified_scenario(sigma_r=2.0, sigma_theta_deg=0.1)
    return ensemble_pair(scenario, "anfekf-r", n_runs=25, base_seed=2000)


@pytest.fixture(scope="module")
def wrong_control_pair():
    scenario = misspecified_scenario(sigma_v=0.03, sigma_gamma_deg=0.5)
    return ensemble_pair(scenario, "anfekf-q", n_runs=25, base_seed=3000)


@pytest.fixture(scope="module")
def consistency_pair():
    scenario = misspecified_scenario(sigma_r=2.0, sigma_theta_deg=0.5)
    return ensemble_pair(scenario, "anfekf-r", n_runs=20, base_seed=5000)


def test_criterion_1_chi_square_band_anchor():
    lo, hi = chi2_band(20, 3, 0.95)
    ok = abs(lo - 2.02) <= 0.01 and abs(hi - 4.17) <= 0.01
    verdict(1, "chi-square band anchor", ok, f"band=({lo:.4f}, {hi:.4f})")


def test_criterion_2_matched_statistics_parity(matched_pair):
    rep_ekf, rep_anf, elapsed = matched_pair
    rel = abs(rep_anf.time_avg_rmse_pos - rep_ekf.time_avg_rmse_pos) / rep_ekf.time_avg_rmse_pos
    ok = rel < 0.15 and elapsed < 300.0
    verdict(
        2, "matched statistics parity", ok,
        f"ekf={rep_ekf.time_avg_rmse_pos:.4f} m, anfekf-r={rep_anf.time_avg_rmse_pos:.4f} m, "
        f"rel_diff={rel:.1%}, elapsed={elapsed:.0f}s",
    )


def test_criterion_3_misspecified_sensor_noise(wrong_sensor_pair):
    rep_ekf, rep_anf = wrong_sensor_pair
    wins = paired_win_fraction(rep_ekf, rep_anf)
    ok = rep_anf.time_avg_rmse_pos < rep_ekf.time_avg_rmse_pos and wins >= 0.70
    verdict(
        3, "adaptive R under misspecified sensor noise", ok,
        f"ekf={rep_ekf.time_avg_rmse_pos:.4f} m, anfekf-r={rep_anf.time_avg_rmse_pos:.4f} m, "
        f"paired_wins={wins:.0%}",
    )


def test_criterion_4_misspecified_control_noise(wrong_control_pair):
    rep_ekf, rep_anf = wrong_control_pair
    wins = paired_win_fraction(rep_ekf, rep_anf)
    ok = rep_anf.time_avg_rmse_pos < rep_ekf.time_avg_rmse_pos and wins >= 0.70
    verdict(
        4, "adaptive Q under misspecified control noise", ok,
        f"ekf={rep_ekf.time_avg_rmse_pos:.4f} m, anfekf-q={rep_anf.time_avg_rmse_pos:.4f} m, "
        f"paired_wins={wins:.0%}",
    )


def test_criterion_5_consistency_under_misspecification(consistency_pair):
    rep_ekf, rep_anf = consistency_pair
    ok = rep_anf.in_band > rep_ekf.in_band
    verdict(
        5, "average NEES consistency", ok,
        f"in_band ekf={rep_ekf.in_band:.3f}, anfekf-r={rep_anf.in_band:.3f}, "
        f"band=({rep_anf.band[0]:.2f}, {rep_anf.band[1]:.2f})",
    )


def _linear_filter_worst_gap() -> float:
    """Drive the filter on an exactly linear surrogate (zero speed keeps the
    motion model linear) against a textbook Kalman filter."""
    rng = np.random.default_rng(42)
    dt, wheelbase = 0.1, 2.0
    u = ControlInput(0.0, 0.35)
    q = (0.04, 0.01)
    Q = np.diag(q)
    R = np.diag([0.09, 0.04])
    C = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.3]])
    state = GaussianState(np.array([1.0, -2.0, 0.4]), np.diag([0.5, 0.4, 0.2]))
    ref = helpers.LinearKF(state.mean.copy(), state.P.copy())
    worst = 0.0
    for k in range(100):
        G = models.motion_jacobian_control(state.pose, u, dt, wheelbase)
        state = ekf.predict(state, u, q, dt, wheelbase)
        ref.predict(np.eye(3), G @ Q @ G.T)
        z = C @ ref.x + rng.normal(scale=0.05, size=2)
        rec = InnovationRecord(
            residual=z - C @ state.mean, S=C @ state.P @ C.T + R,
            landmark_id=1, timestep=k,
        )
        state = ekf.update(state, rec, C)
        ref.update(C, R, z)
        p_ref = 0.5 * (ref.P + ref.P.T)
        worst = max(worst, float(np.abs(state.mean - ref.x).max()), float(np.abs(state.P - p_ref).max()))
    return worst


def _window_estimator_worst_gap(rng) -> float:
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        scale = float(rng.uniform(0.1, 3.0))
        residuals = rng.normal(size=(n, 2)) * scale
        cov = CovPair((1.0, 1.0), (1.0, 1.0))
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=n, eta=0.0))
        for r in residuals:
            record = InnovationRecord(residual=r, S=np.eye(2), landmark_id=1, timestep=0, accepted=True)
            adapter.after_update([record], (0.0,) * 6, cov)
        brute = sum(np.outer(r, r) for r in residuals) / n
        worst = max(worst, float(np.abs(np.array(adapter.actual_cov_floats()) - brute[np.triu_indices(2)]).max()))
    return worst


def _jacobians_match(rng, n_configs=200) -> bool:
    for _ in range(n_configs):
        pose = helpers.random_pose(rng)
        u = helpers.random_control(rng)
        dt = float(rng.uniform(0.01, 0.5))
        wheelbase = float(rng.uniform(1.0, 5.0))

        def step_pose(arr, u=u, dt=dt, b=wheelbase):
            return models.motion_step(Pose(*arr), u, dt, b).as_array()

        fd = helpers.fd_jacobian(step_pose, pose.as_array(), wrap_rows=(2,))
        an = models.motion_jacobian_state(pose, u, dt)
        if not np.allclose(an, fd, rtol=1e-5, atol=1e-8):
            return False

        def step_control(arr, pose=pose, dt=dt, b=wheelbase):
            return models.motion_step(pose, ControlInput(arr[0], arr[1]), dt, b).as_array()

        fd = helpers.fd_jacobian(step_control, np.array([u.v, u.gamma]), wrap_rows=(2,))
        an = models.motion_jacobian_control(pose, u, dt, wheelbase)
        if not np.allclose(an, fd, rtol=1e-5, atol=1e-8):
            return False

        lm = Landmark(1, float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        if math.hypot(lm.x - pose.x, lm.y - pose.y) < 0.5:
            continue

        def obs(arr, lm=lm):
            z = models.observe(Pose(*arr), lm)
            return np.array([z.r, z.theta])

        fd = helpers.fd_jacobian(obs, pose.as_array(), wrap_rows=(1,))
        an = models.observation_jacobian(pose, lm)
        if not np.allclose(an, fd, rtol=1e-5, atol=1e-7):
            return False
    return True


def _anfis_gradients_match(rng, n_configs=200) -> bool:
    for _ in range(n_configs):
        net = helpers.random_net(rng)
        in1 = float(rng.uniform(-3.5, 3.5))
        in2 = float(rng.uniform(-3.5, 3.5))
        _, traces = net.forward([(in1, in2)])
        analytic = helpers.anfis_analytic_gradients(net, traces)
        fd = helpers.anfis_fd_gradients(net, in1, in2)
        if not np.allclose(analytic, fd, rtol=1e-5, atol=1e-8):
            return False
    return True


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(606)
    linear_gap = _linear_filter_worst_gap()
    window_gap = _window_estimator_worst_gap(rng)
    jac_ok = _jacobians_match(rng)
    grad_ok = _anfis_gradients_match(rng)
    ok = linear_gap <= 1e-10 and window_gap <= 1e-12 and jac_ok and grad_ok
    verdict(
        6, "oracle equivalences", ok,
        f"linear_gap={linear_gap:.2e}, window_gap={window_gap:.2e}, "
        f"jacobians_fd={'ok' if jac_ok else 'FAIL'}, anfis_grads_fd={'ok' if grad_ok else 'FAIL'}",
    )


def _soak_invariants() -> tuple[bool, float]:
    """10,000-step predict/update soak on a circular course."""
    landmarks = [
        Landmark(i + 1, 25.0 * math.cos(a), 25.0 * math.sin(a))
        for i, a in enumerate(np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))
    ]
    lm_map = LandmarkMap(landmarks)
    cov = CovPair((0.09, 0.0027), (0.01, 0.0003))
    state = GaussianState(np.array([25.0, 0.0, math.pi / 2]), np.diag([0.1, 0.1, 0.02]))
    u = ControlInput(3.0, 0.12)
    rng = np.random.default_rng(77)
    truth = state.pose
    min_eig = np.inf
    for k in range(1, 10_001):
        truth = models.motion_step(
            truth, u, 0.025, 4.0,
            noise=(rng.normal(0.0, 0.1), rng.normal(0.0, 0.02)),
        )
        scan = []
        if k % 8 == 0:
            for lm in lm_map:
                z = models.observe(truth, lm, noise=(rng.normal(0.0, 0.1), rng.normal(0.0, 0.017)))
                if z.r < 30.0:
                    scan.append(z)
        state, _ = ekf.step(state, u, scan, cov, lm_map, 0.025, 4.0, timestep=k)
        if not np.array_equal(state.P, state.P.T) or not np.all(np.isfinite(state.P)):
            return False, float("nan")
        min_eig = min(min_eig, float(np.linalg.eigvalsh(state.P).min()))
        if min_eig < -1e-9:
            return False, min_eig
    return True, min_eig


def _network_bounds_hold(rng, n_configs=300) -> bool:
    for _ in range(n_configs):
        net = helpers.random_net(rng)
        out, traces = net.forward([(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))])
        _, mu, total, _, _ = traces[0]
        normalized = np.outer(mu[:5], mu[5:]) / total
        if abs(float(normalized.sum()) - 1.0) > 1e-12 or np.any(normalized < 0.0):
            return False
        singletons = net.params[0][20:]
        if not (min(singletons) - 1e-12 <= out[0] <= max(singletons) + 1e-12):
            return False
    return True


def _floors_hold_under_adaptation() -> bool:
    scenario = dataclasses.replace(
        misspecified_scenario(sigma_r=2.0, sigma_theta_deg=0.1), duration=60.0
    )
    q0 = np.array(CovPair.from_noise(scenario.assumed_noise).Q)
    log = run_once(scenario, "anfekf-rq", seed=0)
    if not np.all(log.r_diag >= 1e-8 - 1e-20):
        return False
    if not np.all(log.q_diag >= 0.01 * q0 - 1e-15):
        return False
    return bool(np.all(log.q_diag <= 100.0 * q0 + 1e-9))


def _determinism_holds() -> bool:
    scenario = dataclasses.replace(default_scenario(), duration=10.0)
    a = run_once(scenario, "anfekf-rq", seed=13)
    b = run_once(scenario, "anfekf-rq", seed=13)
    for name in ("truth", "est_mean", "p_diag", "r_diag", "q_diag", "nees"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    serial = run_monte_carlo(scenario, "anfekf-r", 2, base_seed=7)
    parallel = run_monte_carlo(scenario, "anfekf-r", 2, base_seed=7, max_workers=2)
    for x, y in zip(serial, parallel):
        if not (np.array_equal(x.est_mean, y.est_mean) and np.array_equal(x.r_diag, y.r_diag)):
            return False
    return True


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(707)
    soak_ok, min_eig = _soak_invariants()
    net_ok = _network_bounds_hold(rng)
    floors_ok = _floors_hold_under_adaptation()
    det_ok = _determinism_holds()
    ok = soak_ok and net_ok and floors_ok and det_ok
    verdict(
        7, "structural invariants", ok,
        f"soak={'ok' if soak_ok else 'FAIL'} (min_eig={min_eig:.1e}), "
        f"network_bounds={'ok' if net_ok else 'FAIL'}, "
        f"floors={'ok' if floors_ok else 'FAIL'}, determinism={'ok' if det_ok else 'FAIL'}",
    )


def test_criterion_8_adaptation_directionality():
    true_sigmas = (0.1, 0.05)
    r0 = [4.0 * true_sigmas[0] ** 2, 4.0 * true_sigmas[1] ** 2]
    doms, _ = helpers.drive_r_adapter(r0, true_sigmas, n_steps=200)
    active = ~np.isnan(doms[:, 0])
    mean_abs = np.abs(doms[active]).mean(axis=1)
    drop = 1.0 - mean_abs[-1] / mean_abs[0]
    ok = bool(active.sum() >= 150 and drop >= 0.5)
    verdict(
        8, "adaptation directionality", ok,
        f"mean|mismatch| {mean_abs[0]:.4f} -> {mean_abs[-1]:.4f} ({drop:.0%} drop in "
        f"{int(active.sum())} active steps)",
    )
