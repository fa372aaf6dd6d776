"""Filter-cycle tests: linear-oracle equivalence, gating, and invariants."""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fuzzyloc import ekf, metrics, models
from fuzzyloc.ekf import (
    DEFAULT_GATE_THRESHOLD,
    CovPair,
    GaussianState,
    InnovationRecord,
    gate,
    inverse_2x2_floats,
    predict,
    predict_measurement,
    step,
    update,
)
from fuzzyloc.errors import (
    DegenerateGeometryError,
    FuzzylocError,
    SingularInnovationError,
    UnknownLandmarkError,
)
from fuzzyloc.models import (
    ControlInput,
    Landmark,
    LandmarkMap,
    Measurement,
    NoiseSpec,
    Pose,
    motion_jacobian_control,
    observe,
    wrap_angle,
)
from fuzzyloc.simulator import DEFAULT_P0_DIAG, default_scenario


class TestGaussianState:
    def test_wraps_heading_and_symmetrizes(self):
        P = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        s = GaussianState(np.array([0.0, 0.0, 3.0 * math.pi]), P)
        assert s.mean[2] == pytest.approx(math.pi)
        assert np.array_equal(np.asarray(s.P), np.asarray(s.P).T)
        assert s.P[0][1] == pytest.approx(0.25)

    def test_holds_float_tuples(self):
        s = GaussianState([1, np.float64(2.0), 0.3], np.eye(3).tolist())
        assert s.mean == (1.0, 2.0, 0.3) and s.P == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert type(s.mean) is tuple and all(type(v) is float for v in s.mean)
        assert type(s.P) is tuple and all(type(v) is float for row in s.P for v in row)

    def test_symmetrizes_as_the_array_formula(self):
        # 0.5 * (P + P^T) on the diagonal too, so a huge diagonal overflows to inf
        P = np.array([[1e308, 0.1, 0.2], [0.3, 2.0, 0.5], [0.7, 0.11, 1.7e308]])
        with np.errstate(over="ignore"):
            s = GaussianState(np.zeros(3), P)
            expected = 0.5 * (P + P.T)
        assert np.asarray(s.P).tobytes() == expected.tobytes()
        assert s.P[0][0] == s.P[2][2] == math.inf

    @pytest.mark.parametrize("mean, P", [
        (np.zeros(4), np.eye(3)),
        (np.zeros(3), np.eye(2)),
        (np.zeros((3, 1)), np.eye(3)),
        (np.zeros(3), np.ones(9)),
        (0.0, np.eye(3)),
    ])
    def test_refuses_other_shapes(self, mean, P):
        with pytest.raises(ValueError, match=r"\(3,\) mean and a \(3, 3\) P"):
            GaussianState(mean, P)

    def test_accepts_non_finite_values(self):
        s = GaussianState([math.nan, math.inf, 0.0], np.full((3, 3), -math.inf))
        assert math.isnan(s.mean[0]) and s.mean[1] == math.inf
        assert all(v == -math.inf for row in s.P for v in row)

    def test_pose_property(self):
        s = GaussianState(np.array([1.0, 2.0, 0.3]), np.eye(3))
        assert s.pose == Pose(1.0, 2.0, 0.3)

    def test_copies_inputs(self):
        mean = np.zeros(3)
        s = GaussianState(mean, np.eye(3))
        mean[0] = 99.0
        assert s.mean[0] == 0.0


class TestCovPair:
    def test_from_noise(self):
        noise = NoiseSpec(sigma_v=0.3, sigma_gamma=0.05, sigma_r=0.1, sigma_theta=0.02)
        cov = CovPair.from_noise(noise)
        assert cov.Q == pytest.approx((0.09, 0.0025))
        assert cov.R == pytest.approx((0.01, 0.0004))

    def test_copies_inputs(self):
        Q = [1.0, 1.0]
        cov = CovPair(Q, np.ones(2))
        Q[0] = 7.0
        assert cov.Q[0] == 1.0

    def test_holds_two_python_floats_per_covariance(self):
        cov = CovPair(np.array([0.09, 0.0027]), (1, np.float64(0.0003)))
        assert cov.Q == (0.09, 0.0027) and cov.R == (1.0, 0.0003)
        for pair in (cov.Q, cov.R):
            assert type(pair) is tuple and all(type(v) is float for v in pair)

    @pytest.mark.parametrize("field", ["Q", "R"])
    def test_a_2x2_matrix_is_refused(self, field):
        pairs = {"Q": (0.09, 0.0027), "R": (0.01, 0.0003)}
        pairs[field] = np.diag(pairs[field])
        with pytest.raises(TypeError):
            CovPair(**pairs)

    def test_frozen(self):
        cov = CovPair((0.09, 0.0027), (0.01, 0.0003))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cov.R = (1.0, 1.0)

    @given(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
    def test_private_builder_equals_constructor(self, q0, q1, r0, r1):
        # the adapter builds its pairs with ekf._cov_pair from Python floats
        built, public = ekf._cov_pair((q0, q1), (r0, r1)), CovPair((q0, q1), (r0, r1))
        assert type(built) is CovPair
        assert built == public
        assert hash(built) == hash(public)
        assert repr(built) == repr(public)
        assert dataclasses.astuple(built) == dataclasses.astuple(public)
        assert pickle.loads(pickle.dumps(built)) == public


class TestPredict:
    def test_zero_speed_mean_fixed_covariance_grows(self):
        state = GaussianState(np.array([1.0, 2.0, 0.4]), np.diag([0.1, 0.1, 0.01]))
        u = ControlInput(0.0, 0.3)
        q = (0.09, 0.003)
        Q = np.diag(q)
        out = predict(state, u, q, dt=0.1, wheelbase=4.0)
        assert np.allclose(out.mean, state.mean, atol=1e-15)
        G = motion_jacobian_control(state.pose, u, 0.1, 4.0)
        np.testing.assert_allclose(out.P, state.P + G @ Q @ G.T, atol=1e-15)

    def test_matches_explicit_formula(self, rng):
        for _ in range(50):
            pose = helpers.random_pose(rng)
            A = rng.normal(size=(3, 3))
            state = GaussianState(pose.as_array(), A @ A.T + 0.1 * np.eye(3))
            u = helpers.random_control(rng)
            q = tuple(rng.uniform(0.001, 0.1, 2).tolist())
            Q = np.diag(q)
            out = predict(state, u, q, dt=0.05, wheelbase=3.0)
            from fuzzyloc.models import motion_jacobian_state, motion_step

            F = motion_jacobian_state(pose, u, 0.05)
            G = motion_jacobian_control(pose, u, 0.05, 3.0)
            np.testing.assert_allclose(out.P, F @ state.P @ F.T + G @ Q @ G.T, rtol=1e-12)
            expected = motion_step(pose, u, 0.05, 3.0)
            np.testing.assert_allclose(out.mean, expected.as_array(), atol=1e-12)

    def test_a_2x2_q_is_refused(self):
        state = GaussianState(np.array([1.0, 2.0, 0.4]), np.diag([0.1, 0.1, 0.01]))
        with pytest.raises(TypeError):
            predict(state, ControlInput(1.0, 0.1), np.diag([0.09, 0.003]), 0.1, 4.0)

    def test_takes_q_through_float(self):
        state = GaussianState(np.array([1.0, 2.0, 0.4]), np.diag([0.1, 0.1, 0.01]))
        u = ControlInput(1.0, 0.1)
        out = predict(state, u, np.array([0.09, 0.003]), 0.1, 4.0)
        assert out == predict(state, u, (0.09, 0.003), 0.1, 4.0)
        for row in (out.mean, *out.P):
            assert all(type(v) is float for v in row)


class TestPredictMeasurement:
    def test_zhat_s_h(self):
        state = GaussianState(np.array([0.0, 0.0, 0.0]), np.diag([0.2, 0.1, 0.05]))
        lm = Landmark(1, 10.0, 0.0)
        r = (0.01, 0.001)
        R = np.diag(r)
        zhat, S, H = predict_measurement(state, lm, r)
        assert zhat[0] == pytest.approx(10.0)
        assert zhat[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(S, H @ state.P @ H.T + R, atol=1e-15)
        assert np.array_equal(S, S.T)

    def test_a_2x2_r_is_refused(self):
        state = GaussianState(np.zeros(3), np.diag([0.2, 0.1, 0.05]))
        with pytest.raises(TypeError):
            predict_measurement(state, Landmark(1, 10.0, 0.0), np.diag([0.01, 0.001]))

    def test_takes_r_through_float(self):
        state = GaussianState(np.zeros(3), np.diag([0.2, 0.1, 0.05]))
        lm = Landmark(1, 10.0, 0.0)
        ours = predict_measurement(state, lm, np.array([0.01, 0.001]))
        for a, b in zip(ours, predict_measurement(state, lm, (0.01, 0.001))):
            assert np.array_equal(a, b)


class TestInnovation:
    def test_plain_difference(self):
        v = helpers.innovation(Measurement(1, 5.2, 0.1), np.array([5.0, 0.05]))
        assert v[0] == pytest.approx(0.2)
        assert v[1] == pytest.approx(0.05)

    def test_bearing_wraps_across_pi(self):
        v = helpers.innovation(Measurement(1, 5.0, -math.pi + 0.01), np.array([5.0, math.pi - 0.01]))
        assert v[1] == pytest.approx(0.02, abs=1e-12)


class TestGate:
    def test_accepts_everything_at_infinite_threshold(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) * 100.0
            assert gate(v, np.eye(2), math.inf)

    def test_rejects_everything_at_zero_threshold(self):
        assert not gate(np.array([0.1, 0.0]), np.eye(2), 0.0)

    def test_zero_residual_always_accepted(self):
        assert gate(np.zeros(2), np.eye(2), 0.0)

    def test_boundary_inclusive(self):
        v = np.array([2.0, 0.0])
        S = np.eye(2)
        d = float(v @ np.linalg.solve(S, v))
        assert gate(v, S, d)
        assert not gate(v, S, d - 1e-12)

    def test_singular_s_raises(self):
        with pytest.raises(SingularInnovationError):
            gate(np.array([1.0, 0.0]), np.zeros((2, 2)), 5.0)

    def test_ill_conditioned_s_raises(self):
        with pytest.raises(SingularInnovationError):
            gate(np.array([1.0, 0.0]), np.diag([1.0, 1e-15]), 5.0)

    def test_nonfinite_s_raises(self):
        with pytest.raises(SingularInnovationError):
            gate(np.array([1.0, 0.0]), np.array([[np.nan, 0.0], [0.0, 1.0]]), 5.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_any_nonfinite_entry_raises(self, bad, index):
        S = np.eye(2)
        S[index] = bad
        with pytest.raises(SingularInnovationError):
            gate(np.array([1.0, 0.0]), S, 5.0)

    @staticmethod
    def _assert_gate_at(residual, S):
        """The gate accepts at the oracle's distance and rejects just below it."""
        d = float(residual @ np.linalg.solve(S, residual))
        assert gate(residual, S, d * (1.0 + 1e-12))
        assert not gate(residual, S, d * (1.0 - 1e-12))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    def test_extreme_scales_gate_normally(self, scale):
        # a scaled identity has cond 1; only its magnitude is extreme
        residual = math.sqrt(scale) * np.array([1.0, -0.5])
        self._assert_gate_at(residual, scale * np.eye(2))

    @pytest.mark.parametrize("small, raises", [(0.9e-12, True), (1.1e-12, False)])
    def test_condition_limit_matches_numpy_cond(self, small, raises):
        S = np.diag([1.0, small])
        assert bool(np.linalg.cond(S) > ekf._COND_LIMIT) == raises
        if raises:
            with pytest.raises(SingularInnovationError):
                gate(np.array([1.0, 0.0]), S, 5.0)
        else:
            self._assert_gate_at(np.array([1.0, 1e-6]), S)

    def test_nonsymmetric_s_matches_solve(self):
        S = np.array([[2.0, 0.7], [-0.3, 1.5]])
        self._assert_gate_at(np.array([0.8, -1.1]), S)
        np.testing.assert_allclose(
            np.array(inverse_2x2_floats(*S.ravel().tolist())).reshape(2, 2) @ np.array([0.8, -1.1]),
            np.linalg.solve(S, np.array([0.8, -1.1])),
            rtol=1e-14,
        )


def _matrix_2x2(draw):
    angle = draw(st.floats(0.0, math.pi))
    scale = 10.0 ** draw(st.floats(-290.0, 290.0))
    log_cond = draw(st.floats(0.0, 13.0))
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return scale * rot @ np.diag([1.0, 10.0**-log_cond]) @ rot.T


class TestInverse2x2:
    """Closed-form inverse against LAPACK on SPD matrices from well- to ill-conditioned."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_solve_or_raises_past_the_limit(self, data):
        S = _matrix_2x2(data.draw)
        rhs = np.array([1.0, -0.3])
        cond = np.linalg.cond(S)
        if cond > 1.01 * ekf._COND_LIMIT:
            with pytest.raises(SingularInnovationError):
                inverse_2x2_floats(*S.ravel().tolist())
            return
        if cond < 0.99 * ekf._COND_LIMIT:
            expected = np.linalg.solve(S, rhs)
            got = np.array(inverse_2x2_floats(*S.ravel().tolist())).reshape(2, 2) @ rhs
            # both sides carry an error of order cond * eps
            tol = 16.0 * cond * np.finfo(float).eps * np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= tol


class TestNumpyOracle:
    """The closed-form cycle against the same cycle as numpy matrix products,
    fed the same state at every tick of a recorded default-scenario drive."""

    #: max |closed form - numpy| relative to the largest |entry| of the numpy side
    TOL = 1e-12

    def _close(self, ours, theirs):
        ours, theirs = np.asarray(ours), np.asarray(theirs)
        assert np.max(np.abs(ours - theirs)) <= self.TOL * np.max(np.abs(theirs))

    def test_replay_default_drive(self):
        scenario = default_scenario()
        lmap = LandmarkMap(scenario.landmarks)
        cov = CovPair.from_noise(scenario.assumed_noise)
        state = GaussianState(np.array(scenario.start, dtype=float), np.diag(DEFAULT_P0_DIAG))
        dt, wheelbase = scenario.dt, scenario.wheelbase
        n_accepted = n_rejected = 0
        for u, scan in helpers.record_drive(scenario, seed=0):
            ours = predict(state, u, cov.Q, dt, wheelbase)
            theirs = helpers.numpy_predict(state, u, np.diag(cov.Q), dt, wheelbase)
            self._close(ours.mean, theirs.mean)
            self._close(ours.P, theirs.P)
            state = ours
            for z in scan:
                landmark = lmap[z.landmark_id]
                zhat, S, H = predict_measurement(state, landmark, cov.R)
                theirs = helpers.numpy_predict_measurement(state, landmark, np.diag(cov.R))
                for a, b in zip((zhat, S, H), theirs):
                    self._close(a, b)
                residual = helpers.innovation(z, zhat)
                accepted = gate(residual, S, DEFAULT_GATE_THRESHOLD)
                assert accepted == helpers.numpy_gate(residual, S, DEFAULT_GATE_THRESHOLD)
                if not accepted:
                    n_rejected += 1
                    continue
                n_accepted += 1
                record = InnovationRecord(residual, S, z.landmark_id, 0, True, H)
                ours = update(state, record, H)
                theirs = helpers.numpy_update(state, record, H)
                self._close(ours.mean, theirs.mean)
                self._close(ours.P, theirs.P)
                assert np.array_equal(np.asarray(ours.P), np.asarray(ours.P).T)
                state = ours
        assert n_accepted > 400 and n_rejected > 0


class TestNoLapack:
    """The per-tick path calls no LAPACK routine: a timing-free guard."""

    def test_step_and_nees_without_linalg(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg called on the per-tick path")

        for name in ("solve", "cond", "svd", "inv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        lmap = LandmarkMap(
            [Landmark(1, 10.0, 0.0), Landmark(2, 0.0, 10.0), Landmark(3, -8.0, -6.0)]
        )
        state = GaussianState(np.zeros(3), np.diag([0.1, 0.1, 0.02]))
        cov = CovPair((0.09, 0.003), (0.01, 0.0003))
        truth = Pose(0.1, 0.0, 0.0)
        scan = [observe(truth, lm) for lm in lmap]
        out, records = step(state, ControlInput(1.0, 0.0), scan, cov, lmap, 0.1, 4.0)
        assert len(records) == 3 and all(rec.accepted for rec in records)
        assert metrics.nees(truth, out) >= 0.0


def _assert_same_array(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def _assert_same_step(ours, theirs):
    """Posterior mean and P, and every record, equal bit for bit."""
    (state, records), (their_state, their_records) = ours, theirs
    _assert_same_array(np.asarray(state.mean), np.asarray(their_state.mean))
    _assert_same_array(np.asarray(state.P), np.asarray(their_state.P))
    assert len(records) == len(their_records)
    for rec, their in zip(records, their_records):
        for name in ("residual", "S", "H"):
            _assert_same_array(np.asarray(getattr(rec, name)), np.asarray(getattr(their, name)))
        assert type(rec.accepted) is type(their.accepted)
        assert (rec.accepted, rec.landmark_id, rec.timestep) == (
            their.accepted, their.landmark_id, their.timestep)


def _outcome(fn, *args, **kwargs):
    """(result, None), or (None, (error type, message)) for a package error."""
    try:
        return fn(*args, **kwargs), None
    except FuzzylocError as exc:
        return None, (type(exc), str(exc))


class _LoggedMap(LandmarkMap):
    """A LandmarkMap that logs every id it is asked for."""

    def __init__(self, landmarks):
        super().__init__(landmarks)
        self.asked = []

    def __getitem__(self, landmark_id):
        self.asked.append(landmark_id)
        return super().__getitem__(landmark_id)


class TestStepOracle:
    """The float-native step against the chain of array-level functions it
    replaced (helpers.step_object_chain), fed the same state every tick."""

    @staticmethod
    def _replay(scenario, seed, gate_threshold=DEFAULT_GATE_THRESHOLD):
        lmap = LandmarkMap(scenario.landmarks)
        cov = CovPair.from_noise(scenario.assumed_noise)
        state = GaussianState(np.array(scenario.start, dtype=float), np.diag(DEFAULT_P0_DIAG))
        accepted = rejected = largest_scan = 0
        for k, (u, scan) in enumerate(helpers.record_drive(scenario, seed), start=1):
            args = (state, u, scan, cov, lmap, scenario.dt, scenario.wheelbase)
            ours = step(*args, gate_threshold=gate_threshold, timestep=k)
            _assert_same_step(
                ours, helpers.step_object_chain(*args, gate_threshold=gate_threshold, timestep=k),
            )
            state = ours[0]
            n = [rec.accepted for rec in ours[1]].count(True)
            accepted, rejected = accepted + n, rejected + len(scan) - n
            largest_scan = max(largest_scan, len(scan))
        return accepted, rejected, largest_scan

    def test_default_drive(self):
        accepted, rejected, _ = self._replay(default_scenario(), seed=0)
        assert accepted > 400 and rejected > 0

    def test_dense_360_degree_drive(self):
        scenario = dataclasses.replace(
            default_scenario(), sensor_range=35.0, sensor_fov=2.0 * math.pi, duration=60.0,
        )
        accepted, rejected, largest_scan = self._replay(scenario, seed=3)
        assert accepted > 1000 and rejected > 0 and largest_scan >= 5

    @pytest.mark.parametrize("threshold", [0.0, math.inf])
    def test_gate_threshold_extremes(self, threshold):
        scenario = dataclasses.replace(default_scenario(), duration=40.0)
        accepted, rejected, _ = self._replay(scenario, seed=0, gate_threshold=threshold)
        assert (accepted == 0) if threshold == 0.0 else (rejected == 0)
        assert accepted + rejected > 100


class TestStepErrorParity:
    """step raises what the chain raises, at the same measurement."""

    LANDMARKS = [Landmark(1, 10.0, 0.0), Landmark(2, 0.0, 10.0), Landmark(3, 5e-10, 0.0)]

    def _assert_same_raise(self, scan, cov, error):
        outcomes, asked = [], []
        for fn in (step, helpers.step_object_chain):
            lmap = _LoggedMap(self.LANDMARKS)
            state = GaussianState(np.zeros(3), np.diag([0.1, 0.1, 0.02]))
            # zero speed keeps the predicted mean at the origin
            outcomes.append(_outcome(fn, state, ControlInput(0.0, 0.0), scan, cov, lmap, 0.1, 4.0))
            asked.append(lmap.asked)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1][0] is error
        assert asked[0] == asked[1]
        return asked[0]

    @staticmethod
    def _cov(R=(0.01, 0.0003)):
        return CovPair((0.09, 0.003), R)

    def test_unknown_landmark_after_fused_ones(self):
        scan = [Measurement(1, 9.9, 0.01), Measurement(2, 10.1, 1.56), Measurement(99, 5.0, 0.0)]
        assert self._assert_same_raise(scan, self._cov(), UnknownLandmarkError) == [1, 2, 99]

    def test_degenerate_geometry_after_fused_ones(self):
        # readings equal to the prediction leave the mean on the origin,
        # 5e-10 m from landmark 3
        scan = [Measurement(1, 10.0, 0.0), Measurement(2, 10.0, math.pi / 2), Measurement(3, 1.0, 0.0)]
        assert self._assert_same_raise(scan, self._cov(), DegenerateGeometryError) == [1, 2, 3]

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_r(self, bad, index):
        R = [0.01, 0.0003]
        R[index] = bad
        scan = [Measurement(2, 10.0, math.pi / 2), Measurement(1, 10.0, 0.0)]
        assert self._assert_same_raise(scan, self._cov(R), SingularInnovationError) == [2]


def _positive(draw, lo, hi):
    return 10.0 ** draw(st.floats(lo, hi))


def _variances(draw, lo, hi):
    """A variance pair, each drawn log-uniformly."""
    return [_positive(draw, lo, hi), _positive(draw, lo, hi)]


@st.composite
def _step_case(draw):
    coord = st.floats(-60.0, 60.0)
    x, y = draw(coord), draw(coord)
    phi = draw(st.floats(-math.pi, math.pi))
    L = np.zeros((3, 3))
    L[np.tril_indices(3, -1)] = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    L[np.diag_indices(3)] = [_positive(draw, -4.0, 1.0) for _ in range(3)]
    state = GaussianState(np.array([x, y, phi]), L @ L.T)
    u = ControlInput(draw(st.floats(-5.0, 5.0)), draw(st.floats(-0.5, 0.5)))
    if draw(st.booleans()):
        u = ControlInput(0.0, u.gamma)  # the mean stays put: landmark 5 is degenerate
    q, r = _variances(draw, -6.0, 0.0), _variances(draw, -6.0, 0.0)
    if draw(st.integers(0, 9)) == 0:
        r[draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    cov = CovPair(q, r)
    landmarks = [Landmark(i, draw(coord), draw(coord)) for i in range(1, 5)]
    landmarks.append(Landmark(5, x + draw(st.floats(-1e-9, 1e-9)), y))
    scan = []
    for _ in range(draw(st.integers(0, 6))):
        landmark_id = draw(st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 5, 99]))
        if landmark_id <= 4 and draw(st.booleans()):
            # a reading near the truth at the prior pose, so that some pass the gate
            lm = landmarks[landmark_id - 1]
            r, bearing = math.hypot(lm.x - x, lm.y - y), math.atan2(lm.y - y, lm.x - x) - phi
            noise = st.floats(-0.5, 0.5)
            scan.append(Measurement(landmark_id, r + draw(noise), wrap_angle(bearing + draw(noise))))
        else:
            scan.append(Measurement(landmark_id, draw(st.floats(0.0, 80.0)),
                                    draw(st.floats(-math.pi, math.pi))))
    threshold = draw(st.sampled_from([DEFAULT_GATE_THRESHOLD, 0.0, math.inf, 1e3]))
    return state, u, scan, cov, LandmarkMap(landmarks), threshold


class TestStepProperty:
    # max_examples comes from the hypothesis profile (tests/conftest.py)
    @settings(deadline=None, derandomize=True, database=None)
    @given(case=_step_case())
    def test_equals_chain_or_raises_the_same(self, case):
        state, u, scan, cov, lmap, threshold = case
        args = (state, u, scan, cov, lmap, 0.025, 4.0)
        ours, our_error = _outcome(step, *args, gate_threshold=threshold, timestep=7)
        theirs, their_error = _outcome(
            helpers.step_object_chain, *args, gate_threshold=threshold, timestep=7,
        )
        assert our_error == their_error
        if our_error is None:
            _assert_same_step(ours, theirs)


@st.composite
def _predict_case(draw):
    """An SPD P whose standard deviations span 1e-3..1e3, so its diagonal
    spans 1e-6..1e6, with a drawn correlation; a drawn command, Q, dt and
    wheelbase."""
    mean = (draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0)),
            draw(st.floats(-math.pi, math.pi)))
    A = np.eye(3)
    A[np.tril_indices(3, -1)] = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    C = A @ A.T
    sigma = np.array([_positive(draw, -3.0, 3.0) for _ in range(3)])
    P = C * np.outer(sigma, sigma) / np.sqrt(np.outer(np.diag(C), np.diag(C)))
    u = ControlInput(draw(st.floats(-5.0, 5.0)), draw(st.floats(-1.0, 1.0)))
    q = _variances(draw, -6.0, 2.0)
    dt, wheelbase = _positive(draw, -3.0, -1.0), draw(st.floats(0.5, 10.0))
    return GaussianState(mean, P), u, q, dt, wheelbase


class TestPredictProperty:
    """The one time update against numpy's matrix products of the model
    Jacobians, and its mean against the models kernel bit for bit."""

    # max_examples comes from the hypothesis profile (tests/conftest.py)
    @settings(deadline=None, derandomize=True, database=None)
    @given(case=_predict_case())
    def test_equals_numpy_and_the_motion_kernel(self, case):
        state, u, q, dt, wheelbase = case
        ours = predict(state, u, q, dt, wheelbase)
        theirs = helpers.numpy_predict(state, u, np.diag(q), dt, wheelbase)
        for a, b in ((ours.mean, theirs.mean), (ours.P, theirs.P)):
            a, b = np.asarray(a), np.asarray(b)
            assert np.max(np.abs(a - b)) <= TestNumpyOracle.TOL * np.max(np.abs(b))
        (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P
        kernel = ekf.predict_floats(*state.mean, p00, p01, p02, p11, p12, p22, u.v, u.gamma, *q,
                                    dt, wheelbase)
        x, y, phi = models.motion_with_jacobian_floats(*state.mean, u.v, u.gamma, dt, wheelbase)[:3]
        assert list(map(float.hex, kernel[:3])) == list(map(float.hex, (x, y, wrap_angle(phi))))


def _float_bits(value):
    """A nonnegative float's bits as an int; the order of the ints is the floats'."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class TestStepConditioning:
    """step's own copy of the inverse's tests against the chain: S on either
    side of the 1e12 condition limit, and S with entries near 1e+-150."""

    LANDMARKS = [Landmark(1, 7.0, -4.0), Landmark(2, -3.0, 9.0)]
    DT, WHEELBASE = 0.025, 4.0
    # an SPD matrix with every off-diagonal entry nonzero
    M = np.array([[1.0, 0.3, 0.2], [0.3, 2.0, -0.4], [0.2, -0.4, 1.5]])

    @staticmethod
    def _case(P, R):
        # Q = 0, so only the motion changes P
        return GaussianState(np.zeros(3), P), ControlInput(1.0, 0.1), CovPair((0.0, 0.0), R)

    def _near_limit(self, scale, t):
        """S is scale * (diag(1, t) + 1e-14 H M H^T): its determinant does not
        cancel, so the inverse's cond(S) moves with t to its last bits."""
        return self._case(scale * 1e-14 * self.M, (scale, scale * t))

    def _generic(self, scale):
        """S is scale * (H w w^T H^T + 0.01 I), w not along any axis."""
        w = np.array([1.0, 2.0, 0.5])
        return self._case(scale * np.outer(w, w), (scale * 0.01, scale * 0.01))

    def _prior_and_s(self, case):
        state, u, cov = case
        prior = predict(state, u, cov.Q, self.DT, self.WHEELBASE)
        _, S, _ = predict_measurement(prior, self.LANDMARKS[0], cov.R)
        return prior, S

    def _limit(self, scale):
        """Adjacent t: the inverse rejects the first S and accepts the second."""
        def accepted(bits):
            _, S = self._prior_and_s(self._near_limit(scale, _bits_float(bits)))
            try:
                inverse_2x2_floats(*S.ravel().tolist())
            except SingularInnovationError:
                return False
            return True

        lo, hi = _float_bits(1e-20), _float_bits(1.0)
        assert not accepted(lo) and accepted(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
        return _bits_float(lo), _bits_float(hi)

    def _assert_step_equals_chain(self, case, threshold):
        """step's outcome, which must be the chain's: the accepted flags, or the error."""
        prior, _ = self._prior_and_s(case)
        scan = []
        for lm in self.LANDMARKS:  # readings offset from the predictions at the prior
            zhat, _, _ = predict_measurement(prior, lm, (1.0, 1.0))
            scan.append(Measurement(lm.id, float(zhat[0]) + 1e-3, wrap_angle(float(zhat[1]) - 1e-4)))
        state, u, cov = case
        args = (state, u, scan, cov, LandmarkMap(self.LANDMARKS), self.DT, self.WHEELBASE)
        ours, our_error = _outcome(step, *args, gate_threshold=threshold, timestep=3)
        theirs, their_error = _outcome(
            helpers.step_object_chain, *args, gate_threshold=threshold, timestep=3,
        )
        assert our_error == their_error
        if our_error is None:
            _assert_same_step(ours, theirs)
            return [rec.accepted for rec in ours[1]]
        return our_error

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_either_side_of_the_condition_limit(self, scale):
        above, below = self._limit(scale)
        for t in (above, below):
            _, S = self._prior_and_s(self._near_limit(scale, t))
            assert S[0, 1] != 0.0
            assert np.linalg.cond(S / scale) == pytest.approx(ekf._COND_LIMIT, rel=1e-9)
        assert self._assert_step_equals_chain(self._near_limit(scale, above), math.inf) == (
            SingularInnovationError, "innovation covariance is ill-conditioned")
        assert self._assert_step_equals_chain(self._near_limit(scale, below), math.inf)[0] is True

    @pytest.mark.parametrize("threshold", [DEFAULT_GATE_THRESHOLD, math.inf])
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales(self, scale, threshold):
        _, S = self._prior_and_s(self._generic(scale))
        assert np.all(np.abs(S) / scale > 1e-3) and np.all(np.abs(S) / scale < 1e3)
        accepted = self._assert_step_equals_chain(self._generic(scale), threshold)
        # the offsets are tiny beside sqrt(1e150) and huge beside sqrt(1e-150)
        assert accepted == [threshold == math.inf or scale > 1.0] * 2


class TestStepCallGuard:
    """step is one frame: a call-count guard, free of timing."""

    ARRAY_LEVEL = ("predict", "predict_measurement", "gate", "update")
    KERNELS = ARRAY_LEVEL + ("predict_floats", "inverse_2x2_floats", "innovation_cov_floats")
    MODEL_KERNELS = ("motion_with_jacobian_floats", "range_bearing", "observation_jacobian",
                     "wrap_angle")

    @staticmethod
    def _scan_args():
        """A four-landmark scan whose readings all pass the gate."""
        lmap = LandmarkMap(
            [Landmark(1, 10.0, 0.0), Landmark(2, 0.0, 10.0), Landmark(3, -8.0, -6.0),
             Landmark(4, 6.0, -9.0)]
        )
        state = GaussianState(np.zeros(3), np.diag([0.1, 0.1, 0.02]))
        cov = CovPair((0.09, 0.003), (0.01, 0.0003))
        truth = Pose(0.1, 0.0, 0.0)
        scan = [observe(truth, lm) for lm in lmap]
        return state, ControlInput(1.0, 0.0), scan, cov, lmap, 0.1, 4.0

    @staticmethod
    def _count(monkeypatch, module, names, calls):
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            calls[name] = 0
            monkeypatch.setattr(module, name, counted)

    def _assert_step_calls_none(self, args, calls):
        _, records = step(*args)
        assert len(records) == 4 and all(rec.accepted for rec in records)
        assert calls == dict.fromkeys(calls, 0)

    def test_scan_calls_no_array_level_function(self, monkeypatch):
        args, calls = self._scan_args(), {}
        self._count(monkeypatch, ekf, self.ARRAY_LEVEL, calls)
        self._count(monkeypatch, helpers, ("innovation",), calls)
        self._assert_step_calls_none(args, calls)
        # the counters see the array-level chain
        helpers.step_object_chain(*args)
        assert calls == {"predict": 1, "predict_measurement": 4, "innovation": 4,
                         "gate": 4, "update": 4}

    def test_scan_calls_one_float_kernel(self, monkeypatch):
        args, calls = self._scan_args(), {}
        self._count(monkeypatch, ekf, self.KERNELS, calls)
        self._count(monkeypatch, models, self.MODEL_KERNELS, calls)
        _, records = step(*args)
        assert len(records) == 4 and all(rec.accepted for rec in records)
        # the time update is the one kernel step calls
        assert calls == {**dict.fromkeys(calls, 0), "predict_floats": 1}
        calls.update(dict.fromkeys(calls, 0))
        # the counters see the functions of the array-level chain and the
        # kernels under it: predict calls the time update, gate and update
        # each invert S, and predict_measurement, innovation and update each
        # wrap an angle
        helpers.step_object_chain(*args)
        assert calls == {
            "predict": 1, "predict_measurement": 4, "gate": 4, "update": 4,
            "predict_floats": 1, "inverse_2x2_floats": 8, "innovation_cov_floats": 4,
            "motion_with_jacobian_floats": 0, "range_bearing": 4, "observation_jacobian": 4,
            "wrap_angle": 12,
        }

    def test_step_calls_no_numpy_once_the_prior_exists(self, monkeypatch):
        state, u, scan, cov, lmap, dt, wheelbase = self._scan_args()
        scan.append(Measurement(2, 17.0, -1.2))  # absurd range error, must be gated
        monkeypatch.setattr(ekf, "np", helpers.NoNumpy())
        monkeypatch.setattr(models, "np", helpers.NoNumpy())
        state, records = step(state, u, [], cov, lmap, dt, wheelbase)
        assert records == []
        state, records = step(state, u, scan, cov, lmap, dt, wheelbase)
        assert [rec.accepted for rec in records] == [True, True, True, True, False]
        for rec in records:
            assert type(rec.S) is tuple and type(rec.H) is tuple
            for row in (rec.residual, *rec.S, *rec.H):
                assert type(row) is tuple and all(type(v) is float for v in row)
        for row in (state.mean, *state.P):
            assert type(row) is tuple and all(type(v) is float for v in row)


class TestLinearOracle:
    """With zero speed the motion model is exactly linear (F = I), and update()
    consumes externally built residual/S/H, so the whole cycle can be compared
    against a textbook Kalman filter on a time-varying linear system."""

    def test_matches_textbook_kf_over_100_steps(self, rng):
        u = ControlInput(0.0, 0.35)
        dt, wheelbase = 0.1, 4.0
        q = (0.04, 0.002)
        Q = np.diag(q)
        R = np.diag([0.05, 0.02])
        C = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.3]])
        x0 = np.array([0.2, -0.1, 0.05])
        A = rng.normal(size=(3, 3))
        P0 = A @ A.T + 0.5 * np.eye(3)

        state = GaussianState(x0, P0)
        oracle = helpers.LinearKF(x0, state.P)
        x_true = x0.copy()
        for k in range(100):
            # time update: mean is a fixed point at v = 0, P inflates by G Q G'
            state = predict(state, u, q, dt, wheelbase)
            G = motion_jacobian_control(Pose(*oracle.x), u, dt, wheelbase)
            oracle.predict(np.eye(3), G @ Q @ G.T)

            x_true = x_true + rng.normal(scale=0.01, size=3)
            z = C @ x_true + rng.normal(scale=0.05, size=2)

            S = C @ state.P @ C.T + R
            rec = InnovationRecord(z - C @ state.mean, S, landmark_id=1, timestep=k)
            state = update(state, rec, C)
            oracle.update(C, R, z)

            np.testing.assert_allclose(state.mean, oracle.x, rtol=0, atol=1e-10)
            np.testing.assert_allclose(state.P, 0.5 * (oracle.P + oracle.P.T), rtol=0, atol=1e-10)

    def test_sequential_fusion_equals_batch(self, rng):
        # two independent linear measurements fused one at a time must match
        # one stacked joint update
        x0 = np.array([0.1, 0.2, -0.1])
        A = rng.normal(size=(3, 3))
        P0 = A @ A.T + 0.5 * np.eye(3)
        C1 = np.array([[1.0, 0.0, 0.1], [0.0, 1.0, -0.2]])
        C2 = np.array([[0.5, 0.5, 0.0], [0.2, -0.1, 1.0]])
        R1 = np.diag([0.05, 0.08])
        R2 = np.diag([0.03, 0.06])
        z1 = np.array([0.15, 0.22])
        z2 = np.array([0.05, -0.12])

        state = GaussianState(x0, P0)
        for C, R, z in ((C1, R1, z1), (C2, R2, z2)):
            S = C @ state.P @ C.T + R
            rec = InnovationRecord(z - C @ state.mean, S, landmark_id=1, timestep=0)
            state = update(state, rec, C)

        oracle = helpers.LinearKF(x0, GaussianState(x0, P0).P)
        C = np.vstack([C1, C2])
        R = np.block([[R1, np.zeros((2, 2))], [np.zeros((2, 2)), R2]])
        oracle.update(C, R, np.concatenate([z1, z2]))

        np.testing.assert_allclose(state.mean, oracle.x, atol=1e-8)
        np.testing.assert_allclose(state.P, 0.5 * (oracle.P + oracle.P.T), atol=1e-8)

    def test_huge_r_means_no_correction(self):
        state = GaussianState(np.array([0.0, 0.0, 0.0]), np.diag([0.5, 0.5, 0.1]))
        lm = Landmark(1, 10.0, 2.0)
        zhat, S, H = predict_measurement(state, lm, (1e12, 1e12))
        rec = InnovationRecord(np.array([1.0, 0.1]), S, landmark_id=1, timestep=0)
        out = update(state, rec, H)
        np.testing.assert_allclose(out.mean, state.mean, atol=1e-9)
        np.testing.assert_allclose(out.P, state.P, atol=1e-9)


class TestStep:
    def _setup(self):
        lmap = LandmarkMap([Landmark(1, 10.0, 0.0), Landmark(2, 0.0, 10.0)])
        state = GaussianState(np.array([0.0, 0.0, 0.0]), np.diag([0.1, 0.1, 0.02]))
        cov = CovPair((0.09, 0.003), (0.01, 0.0003))
        u = ControlInput(1.0, 0.0)
        return lmap, state, cov, u

    def test_no_measurements_is_pure_prediction(self):
        lmap, state, cov, u = self._setup()
        via_step, records = step(state, u, [], cov, lmap, 0.1, 4.0)
        via_predict = predict(state, u, cov.Q, 0.1, 4.0)
        assert records == []
        np.testing.assert_allclose(via_step.mean, via_predict.mean, atol=1e-15)
        np.testing.assert_allclose(via_step.P, via_predict.P, atol=1e-15)

    def test_zero_threshold_rejects_all_and_leaves_prediction(self):
        lmap, state, cov, u = self._setup()
        z = [Measurement(1, 9.2, 0.01)]
        out, records = step(state, u, z, cov, lmap, 0.1, 4.0, gate_threshold=0.0)
        assert len(records) == 1
        assert not records[0].accepted
        via_predict = predict(state, u, cov.Q, 0.1, 4.0)
        np.testing.assert_allclose(out.mean, via_predict.mean, atol=1e-15)
        np.testing.assert_allclose(out.P, via_predict.P, atol=1e-15)

    def test_accepted_measurement_shrinks_uncertainty(self):
        lmap, state, cov, u = self._setup()
        truth = Pose(0.1, 0.0, 0.0)
        z = [observe(truth, lmap[1])]
        out, records = step(state, u, z, cov, lmap, 0.1, 4.0)
        assert records[0].accepted
        assert records[0].H is not None
        pred = predict(state, u, cov.Q, 0.1, 4.0)
        assert np.linalg.det(out.P) < np.linalg.det(pred.P)

    def test_records_carry_timestep_and_ids(self):
        lmap, state, cov, u = self._setup()
        z = [Measurement(2, 10.1, math.pi / 2 - 0.1), Measurement(1, 9.9, -0.05)]
        _, records = step(state, u, z, cov, lmap, 0.1, 4.0, timestep=42)
        assert [r.landmark_id for r in records] == [2, 1]
        assert all(r.timestep == 42 for r in records)

    def test_array_wrappers_take_step_records(self):
        # step's records hold float tuples; gate and update read them as they read arrays
        lmap, state, cov, u = self._setup()
        out, (rec,) = step(state, u, [observe(Pose(0.1, 0.0, 0.0), lmap[1])], cov, lmap, 0.1, 4.0)
        verdict = gate(rec.residual, rec.S, DEFAULT_GATE_THRESHOLD)
        assert type(verdict) is bool and verdict is rec.accepted is True
        posterior = update(predict(state, u, cov.Q, 0.1, 4.0), rec, rec.H)
        assert np.asarray(posterior.mean).tobytes() == np.asarray(out.mean).tobytes()
        assert np.asarray(posterior.P).tobytes() == np.asarray(out.P).tobytes()

    def test_unknown_landmark_raises(self):
        lmap, state, cov, u = self._setup()
        with pytest.raises(UnknownLandmarkError):
            step(state, u, [Measurement(99, 5.0, 0.0)], cov, lmap, 0.1, 4.0)

    def test_gated_measurement_does_not_move_state(self):
        lmap, state, cov, u = self._setup()
        good = Measurement(1, 9.88, 0.002)  # matches the predicted pose at x=0.1
        wild = Measurement(2, 17.0, -1.2)  # absurd range error, must be gated
        out_both, recs = step(state, u, [good, wild], cov, lmap, 0.1, 4.0)
        assert recs[0].accepted and not recs[1].accepted
        out_good, _ = step(state, u, [good], cov, lmap, 0.1, 4.0)
        np.testing.assert_allclose(out_both.mean, out_good.mean, atol=1e-15)
        np.testing.assert_allclose(out_both.P, out_good.P, atol=1e-15)


class TestSoak:
    def test_p_stays_symmetric_psd_for_10k_steps(self, rng):
        """Structural invariant: 10,000 cycles of predict/update keep P
        symmetric with eigenvalues above -1e-9."""
        lmap = LandmarkMap(
            [Landmark(i + 1, 25.0 * math.cos(a), 25.0 * math.sin(a))
             for i, a in enumerate(np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))]
        )
        truth = Pose(0.0, 0.0, 0.0)
        state = GaussianState(truth.as_array(), np.diag([1e-6, 1e-6, 1e-6]))
        cov = CovPair((0.09, 0.0027), (0.01, 0.0003))
        noise = NoiseSpec(0.3, 0.05, 0.1, 0.017)
        dt, wheelbase = 0.025, 4.0
        u = ControlInput(3.0, 0.12)

        from fuzzyloc.models import motion_step

        min_eig = math.inf
        for k in range(1, 10_001):
            dv, dg = rng.normal(0.0, noise.sigma_v), rng.normal(0.0, noise.sigma_gamma)
            truth = motion_step(truth, u, dt, wheelbase, noise=(dv, dg))
            scan = []
            if k % 8 == 0:
                for lm in lmap:
                    clean = observe(truth, lm)
                    if clean.r <= 30.0:
                        dr = rng.normal(0.0, noise.sigma_r)
                        dth = rng.normal(0.0, noise.sigma_theta)
                        scan.append(observe(truth, lm, noise=(dr, dth)))
            state, _ = step(state, u, scan, cov, lmap, dt, wheelbase)
            P = np.asarray(state.P)
            assert np.array_equal(P, P.T)
            assert np.all(np.isfinite(P)) and np.all(np.isfinite(state.mean))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(P)[0]))
        assert min_eig >= -1e-9

    def test_default_gate_threshold_value(self):
        assert DEFAULT_GATE_THRESHOLD == pytest.approx(5.991)
