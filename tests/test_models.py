"""Kinematics, sensing, and Jacobian tests against closed forms and FD oracles."""

import dataclasses
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from fuzzyloc.errors import DegenerateGeometryError, UnknownLandmarkError
from fuzzyloc.models import (
    ControlInput,
    Landmark,
    LandmarkMap,
    Measurement,
    Pose,
    _control,
    _measurement,
    _pose,
    motion_floats,
    motion_jacobian_control,
    motion_jacobian_state,
    motion_step,
    motion_with_jacobian_floats,
    observation_jacobian,
    observe,
    wrap_angle,
    wrap_angles,
)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, 0.0),
            (1.0, 1.0),
            (-1.0, -1.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3.0 * math.pi, math.pi),
            (-3.0 * math.pi, math.pi),
            (2.0 * math.pi, 0.0),
            (-2.0 * math.pi, 0.0),
        ],
    )
    def test_anchors(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    def test_range_over_sweep(self):
        for a in np.linspace(-20.0, 20.0, 1001):
            w = wrap_angle(float(a))
            assert -math.pi < w <= math.pi
            # wrapping must not change the physical angle
            assert abs(math.sin(w) - math.sin(a)) < 1e-9
            assert abs(math.cos(w) - math.cos(a)) < 1e-9

    def test_idempotent_bitwise(self, rng):
        # _pose skips the wrap of a wrapped heading, and GaussianState wraps
        # one again; either is right only if that moves no bit
        angles = np.concatenate([
            rng.uniform(-20.0, 20.0, 20000),
            rng.uniform(-4.0, 4.0, 20000) * 10.0 ** rng.uniform(-20.0, 0.0, 20000),
        ]).tolist()
        for a in (math.pi, -math.pi, 2.0 * math.pi, 1e-300, -1e-300, 0.0, -0.0):
            angles += [a, math.nextafter(a, 0.0), math.nextafter(a, 10.0), math.nextafter(a, -10.0)]
        for a in angles:
            w = wrap_angle(a)
            assert wrap_angle(w).hex() == w.hex()
            assert float(wrap_angle(np.float64(w))).hex() == w.hex()

    @settings(deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(math.pi)
    @example(-math.pi)
    @example(math.nextafter(math.pi, 0.0))
    @example(math.nextafter(math.pi, 4.0))
    @example(math.nextafter(-math.pi, 0.0))
    @example(math.nextafter(-math.pi, -4.0))
    @example(2.0 * math.pi)
    @example(-2.0 * math.pi)
    @example(-1e-300)
    @example(-5e-324)
    def test_idempotent_bitwise_property(self, angle):
        # _pose relies on this: a heading wrapped once is wrapped for good
        w = wrap_angle(angle)
        assert wrap_angle(w).hex() == w.hex()


class TestPrivateBuilders:
    """models' private builders give the object the public constructor gives,
    under ==, hash, repr, dataclasses.astuple and a pickle round trip."""

    FINITE = st.floats(allow_nan=False, allow_infinity=False)

    @staticmethod
    def check(built, public):
        assert type(built) is type(public)
        assert built == public
        assert hash(built) == hash(public)
        assert repr(built) == repr(public)
        assert dataclasses.astuple(built) == dataclasses.astuple(public)
        assert pickle.loads(pickle.dumps(built)) == public

    @given(FINITE, FINITE, FINITE)
    @example(0.0, -0.0, -0.0)
    @example(1.0, 2.0, -math.pi)
    def test_pose(self, x, y, angle):
        phi = wrap_angle(angle)  # _pose takes a wrapped heading
        self.check(_pose(x, y, phi), Pose(x, y, phi))

    @given(FINITE, FINITE)
    @example(-0.0, -0.0)
    def test_control(self, v, gamma):
        self.check(_control(v, gamma), ControlInput(v, gamma))

    @given(st.integers(), FINITE, FINITE)
    @example(0, -0.0, -0.0)
    def test_measurement(self, landmark_id, r, theta):
        self.check(_measurement(landmark_id, r, theta), Measurement(landmark_id, r, theta))


class TestWrapAngles:
    """models.wrap_angles against wrap_angle, entry by entry and bit for bit."""

    EDGES = (math.pi, -math.pi, math.nextafter(-math.pi, 0.0), 2.0 * math.pi, -2.0 * math.pi,
             1e3, -1e3, 0.0, -0.0)

    def check(self, angles):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = wrap_angles(np.array(angles, dtype=float))
        assert [w.hex() for w in out.tolist()] == [wrap_angle(a).hex() for a in angles]

    def test_edges(self):
        self.check(list(self.EDGES))
        assert wrap_angles(np.array([-0.0])).tolist()[0].hex() == "0x0.0p+0"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_finite_angles(self, angles):
        self.check(angles)

    def test_non_finite_gives_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = wrap_angles(np.array([math.nan, math.inf, -math.inf, 1.0]))
        assert np.isnan(out[:3]).all() and out[3] == 1.0
        assert all(math.isnan(wrap_angle(a)) for a in (math.nan, math.inf, -math.inf))


class TestPose:
    def test_heading_wrapped_on_construction(self):
        p = Pose(1.0, 2.0, 3.0 * math.pi)
        assert p.phi == pytest.approx(math.pi)

    def test_as_array(self):
        arr = Pose(1.0, -2.0, 0.5).as_array()
        assert arr.shape == (3,)
        assert np.allclose(arr, [1.0, -2.0, 0.5])

    def test_equal_physical_poses_compare_equal(self):
        assert Pose(0.0, 0.0, math.pi) == Pose(0.0, 0.0, -math.pi)


class TestLandmarkMap:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LandmarkMap([Landmark(1, 0.0, 0.0), Landmark(1, 1.0, 1.0)])

    def test_lookup_and_membership(self):
        lmap = LandmarkMap([Landmark(3, 1.0, 2.0), Landmark(7, -1.0, 0.0)])
        assert len(lmap) == 2
        assert 3 in lmap and 7 in lmap and 4 not in lmap
        assert lmap[7].x == -1.0

    def test_unknown_id_raises_dedicated_error(self):
        lmap = LandmarkMap([Landmark(1, 0.0, 0.0)])
        with pytest.raises(UnknownLandmarkError):
            lmap[99]
        # also catchable as KeyError for dict-style call sites
        with pytest.raises(KeyError):
            lmap[99]

    def test_iteration_preserves_order(self):
        lms = [Landmark(5, 0.0, 0.0), Landmark(2, 1.0, 0.0), Landmark(9, 2.0, 0.0)]
        assert [lm.id for lm in LandmarkMap(lms)] == [5, 2, 9]


class TestMotionStep:
    def test_zero_speed_keeps_pose(self):
        p = Pose(3.0, -1.0, 0.7)
        q = motion_step(p, ControlInput(0.0, 0.3), dt=0.1, wheelbase=4.0)
        assert q == p

    def test_straight_line(self):
        p = Pose(0.0, 0.0, 0.0)
        q = motion_step(p, ControlInput(2.0, 0.0), dt=0.5, wheelbase=4.0)
        assert q.x == pytest.approx(1.0)
        assert q.y == pytest.approx(0.0)
        assert q.phi == pytest.approx(0.0)

    def test_heading_increment_closed_form(self):
        # one step turns the heading by dt * v / B * sin(gamma), exactly
        p = Pose(0.0, 0.0, 0.2)
        u = ControlInput(3.0, 0.4)
        q = motion_step(p, u, dt=0.025, wheelbase=4.0)
        assert q.phi - p.phi == pytest.approx(0.025 * 3.0 / 4.0 * math.sin(0.4), abs=1e-15)

    def test_position_moves_along_heading_plus_steer(self):
        p = Pose(1.0, 1.0, 0.5)
        u = ControlInput(2.0, 0.3)
        q = motion_step(p, u, dt=0.1, wheelbase=4.0)
        assert q.x - p.x == pytest.approx(0.2 * math.cos(0.8))
        assert q.y - p.y == pytest.approx(0.2 * math.sin(0.8))

    def test_noise_enters_through_controls(self):
        p = Pose(0.0, 0.0, 0.0)
        u = ControlInput(2.0, 0.1)
        noisy = motion_step(p, u, dt=0.1, wheelbase=4.0, noise=(0.5, -0.05))
        clean_equiv = motion_step(p, ControlInput(2.5, 0.05), dt=0.1, wheelbase=4.0)
        assert noisy == clean_equiv


class TestMotionJacobians:
    def test_state_jacobian_matches_fd(self, rng):
        for _ in range(200):
            pose = helpers.random_pose(rng)
            u = helpers.random_control(rng)
            dt = float(rng.uniform(0.01, 0.2))
            wheelbase = float(rng.uniform(1.0, 6.0))

            def f(x):
                q = motion_step(Pose(x[0], x[1], x[2]), u, dt, wheelbase)
                return q.as_array()

            fd = helpers.fd_jacobian(f, pose.as_array(), h=1e-6, wrap_rows=(2,))
            analytic = motion_jacobian_state(pose, u, dt)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_control_jacobian_matches_fd(self, rng):
        for _ in range(200):
            pose = helpers.random_pose(rng)
            u = helpers.random_control(rng)
            dt = float(rng.uniform(0.01, 0.2))
            wheelbase = float(rng.uniform(1.0, 6.0))

            def f(n):
                q = motion_step(pose, u, dt, wheelbase, noise=(n[0], n[1]))
                return q.as_array()

            fd = helpers.fd_jacobian(f, np.zeros(2), h=1e-6, wrap_rows=(2,))
            analytic = motion_jacobian_control(pose, u, dt, wheelbase)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


class TestMotionWithJacobian:
    """motion_with_jacobian_floats against motion_floats and G's six entries
    written out, bit for bit."""

    @staticmethod
    def _assert_bitwise(x, y, phi, v, gamma, dt, wheelbase):
        got = motion_with_jacobian_floats(x, y, phi, v, gamma, dt, wheelbase)
        heading = phi + gamma
        sin_h, cos_h = math.sin(heading), math.cos(heading)
        expected = (
            *motion_floats(x, y, phi, v, gamma, dt, wheelbase),
            dt * cos_h, -dt * v * sin_h,
            dt * sin_h, dt * v * cos_h,
            dt * math.sin(gamma) / wheelbase, dt * v * math.cos(gamma) / wheelbase,
        )
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_random_inputs(self, rng):
        for _ in range(2000):
            x, y = rng.normal(scale=100.0, size=2).tolist()
            phi, gamma = rng.uniform(-math.pi, math.pi, size=2).tolist()
            v = float(rng.normal(scale=5.0))
            dt, wheelbase = float(rng.uniform(0.001, 0.5)), float(rng.uniform(0.5, 8.0))
            self._assert_bitwise(x, y, phi, v, gamma, dt, wheelbase)

    def test_extreme_angles(self):
        angles = [math.pi, -math.pi, 1e3, -1e3, 0.0, -0.0]
        for phi, gamma, v in itertools.product(angles, angles, [3.0, -3.0, 0.0, -0.0, 1e3]):
            self._assert_bitwise(12.5, -7.25, phi, v, gamma, 0.025, 4.0)


class TestObserve:
    def test_landmark_dead_ahead(self):
        z = observe(Pose(0.0, 0.0, 0.5), Landmark(1, 10.0 * math.cos(0.5), 10.0 * math.sin(0.5)))
        assert z.landmark_id == 1
        assert z.r == pytest.approx(10.0)
        assert z.theta == pytest.approx(0.0, abs=1e-12)

    def test_landmark_behind_wraps(self):
        z = observe(Pose(0.0, 0.0, 0.0), Landmark(4, -5.0, 0.0))
        assert z.r == pytest.approx(5.0)
        assert z.theta == pytest.approx(math.pi)

    def test_known_geometry(self):
        z = observe(Pose(1.0, 1.0, math.pi / 2.0), Landmark(2, 1.0, 4.0))
        assert z.r == pytest.approx(3.0)
        assert z.theta == pytest.approx(0.0, abs=1e-12)

    def test_noise_added_exactly(self):
        pose, lm = Pose(0.0, 0.0, 0.0), Landmark(1, 10.0, 0.0)
        clean = observe(pose, lm)
        noisy = observe(pose, lm, noise=(0.25, -0.1))
        assert noisy.r == pytest.approx(clean.r + 0.25)
        assert noisy.theta == pytest.approx(wrap_angle(clean.theta - 0.1))

    def test_coincident_landmark_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            observe(Pose(2.0, 3.0, 0.0), Landmark(1, 2.0, 3.0))


class TestObservationJacobian:
    def test_matches_fd(self, rng):
        count = 0
        while count < 200:
            pose = helpers.random_pose(rng)
            lm = Landmark(1, float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
            if math.hypot(lm.x - pose.x, lm.y - pose.y) < 0.5:
                continue
            count += 1

            def f(x):
                z = observe(Pose(x[0], x[1], x[2]), lm)
                return np.array([z.r, z.theta])

            fd = helpers.fd_jacobian(f, pose.as_array(), h=1e-6, wrap_rows=(1,))
            analytic = observation_jacobian(pose, lm)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_bearing_heading_entry_is_minus_one(self, rng):
        for _ in range(20):
            pose = helpers.random_pose(rng)
            lm = Landmark(1, pose.x + 5.0, pose.y + 1.0)
            assert observation_jacobian(pose, lm)[1, 2] == -1.0

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometryError):
            observation_jacobian(Pose(0.0, 0.0, 0.0), Landmark(1, 0.0, 0.0))


class TestMeasurement:
    def test_fields(self):
        z = Measurement(3, 4.5, -0.2)
        assert (z.landmark_id, z.r, z.theta) == (3, 4.5, -0.2)
