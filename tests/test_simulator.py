"""Simulation harness tests: scenario handling, driver, sensing, runs."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from fuzzyloc import ekf, metrics, models, simulator
from fuzzyloc.adaptation import AdaptationConfig
from fuzzyloc.errors import (
    DegenerateGeometryError,
    FuzzylocError,
    ScenarioError,
    SingularCovarianceError,
)
from fuzzyloc.models import LandmarkMap, Landmark, NoiseSpec, Pose, wrap_angle
from fuzzyloc.simulator import (
    DEFAULT_P0_DIAG,
    MAX_TICKS,
    SCENARIO_SCHEMA,
    VARIANTS,
    WAYPOINT_RADIUS,
    RunLog,
    Scenario,
    WaypointDriver,
    default_scenario,
    load_scenario,
    run_monte_carlo,
    run_once,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sense,
)


class TestScenarioValidate:
    def test_default_scenario_is_valid(self):
        default_scenario().validate()

    def test_duplicate_landmark_ids(self, tiny_scenario):
        bad = dataclasses.replace(
            tiny_scenario,
            landmarks=(Landmark(1, 0.0, 5.0), Landmark(1, 5.0, 0.0)),
        )
        with pytest.raises(ScenarioError, match="unique"):
            bad.validate()

    def test_no_landmarks(self, tiny_scenario):
        with pytest.raises(ScenarioError, match="landmark"):
            dataclasses.replace(tiny_scenario, landmarks=()).validate()

    def test_no_waypoints(self, tiny_scenario):
        with pytest.raises(ScenarioError, match="waypoint"):
            dataclasses.replace(tiny_scenario, waypoints=()).validate()

    def test_non_integer_rate_ratio(self, tiny_scenario):
        bad = dataclasses.replace(tiny_scenario, control_rate=40.0, observe_rate=7.0)
        with pytest.raises(ScenarioError, match="multiple"):
            bad.validate()

    def test_nonpositive_noise(self, tiny_scenario):
        noise = NoiseSpec(sigma_v=0.0, sigma_gamma=0.01, sigma_r=0.1, sigma_theta=0.01)
        with pytest.raises(ScenarioError, match="sigma_v"):
            dataclasses.replace(tiny_scenario, true_noise=noise).validate()
        for bad in (math.nan, math.inf):
            noise = NoiseSpec(sigma_v=0.3, sigma_gamma=0.01, sigma_r=bad, sigma_theta=0.01)
            with pytest.raises(ScenarioError, match="assumed_noise.sigma_r"):
                dataclasses.replace(tiny_scenario, assumed_noise=noise).validate()

    def test_nonpositive_scalar(self, tiny_scenario):
        with pytest.raises(ScenarioError, match="speed"):
            dataclasses.replace(tiny_scenario, speed=0.0).validate()
        for name, bad in (("speed", math.nan), ("sensor_range", math.nan), ("duration", math.inf)):
            with pytest.raises(ScenarioError, match=name):
                dataclasses.replace(tiny_scenario, **{name: bad}).validate()

    def test_malformed_start(self, tiny_scenario):
        for start in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0)):
            with pytest.raises(ScenarioError, match="start"):
                dataclasses.replace(tiny_scenario, start=start).validate()

    def test_negative_seed(self, tiny_scenario):
        dataclasses.replace(tiny_scenario, seed=0).validate()
        with pytest.raises(ScenarioError, match="seed"):
            dataclasses.replace(tiny_scenario, seed=-1).validate()
        with pytest.raises(ScenarioError, match="seed"):
            run_once(dataclasses.replace(tiny_scenario, seed=-3), "ekf")

    def test_non_integer_seed(self, tiny_scenario):
        dataclasses.replace(tiny_scenario, seed=np.int64(3)).validate()
        for seed in (2.5, True, "3", math.inf, math.nan):
            with pytest.raises(ScenarioError, match="seed must be a nonnegative integer"):
                dataclasses.replace(tiny_scenario, seed=seed).validate()

    def test_non_finite_coordinates(self, tiny_scenario):
        for bad in (math.nan, math.inf, -math.inf):
            landmarks = (*tiny_scenario.landmarks[:-1], Landmark(99, 5.0, bad))
            with pytest.raises(ScenarioError, match="landmark coordinates"):
                dataclasses.replace(tiny_scenario, landmarks=landmarks).validate()
            waypoints = (*tiny_scenario.waypoints, (bad, 0.0))
            with pytest.raises(ScenarioError, match="waypoint coordinates"):
                dataclasses.replace(tiny_scenario, waypoints=waypoints).validate()

    def test_duration_shorter_than_one_tick(self, tiny_scenario):
        # 40 Hz control: 0.01 s is 0.4 ticks and 0.0125 s rounds (half to even) to 0
        for duration in (0.01, 0.0125):
            with pytest.raises(ScenarioError, match="one control tick"):
                dataclasses.replace(tiny_scenario, duration=duration).validate()
        one_tick = dataclasses.replace(tiny_scenario, duration=0.025)
        one_tick.validate()
        assert len(run_once(one_tick, "ekf").t) == 1

    @pytest.mark.parametrize("ticks", [MAX_TICKS + 1, 4e13, 1e300])
    def test_tick_count_above_the_bound(self, tiny_scenario, ticks):
        # only validate runs: run_once would allocate n-row arrays first
        with pytest.raises(ScenarioError, match=f"exceeds {MAX_TICKS} control ticks"):
            dataclasses.replace(tiny_scenario, duration=ticks / tiny_scenario.control_rate).validate()

    def test_load_rejects_nan_waypoint(self, tmp_path, tiny_scenario):
        path = tmp_path / "nan.json"
        save_scenario(dataclasses.replace(tiny_scenario, waypoints=((math.nan, 0.0),)), path)
        assert "NaN" in path.read_text()
        with pytest.raises(ScenarioError, match="waypoint coordinates"):
            load_scenario(path)


class TestDefaultScenario:
    def test_core_values(self):
        s = default_scenario()
        assert s.speed == 3.0
        assert s.wheelbase == 4.0
        assert s.sensor_range == 20.0
        assert s.sensor_fov == pytest.approx(math.pi)
        assert s.gamma_max == pytest.approx(math.radians(30.0))
        assert (s.control_rate, s.observe_rate) == (40.0, 5.0)
        assert s.dt == pytest.approx(0.025)
        assert s.ticks_per_observation == 8
        assert s.duration == 100.0
        assert s.seed == 0
        assert s.start == (0.0, 0.0, 0.0)

    def test_noise_values(self):
        s = default_scenario()
        for noise in (s.true_noise, s.assumed_noise):
            assert noise.sigma_v == 0.3
            assert noise.sigma_gamma == pytest.approx(math.radians(3.0))
            assert noise.sigma_r == 0.1
            assert noise.sigma_theta == pytest.approx(math.radians(1.0))

    def test_map_layout(self):
        s = default_scenario()
        assert len(s.landmarks) == 26
        assert len(set(lm.id for lm in s.landmarks)) == 26
        assert len(s.waypoints) == 6


def _replace_at(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


#: Where one value of the default scenario dict is replaced: every top-level
#: field, and an entry of each noise, a landmark, a waypoint and the start.
_SCENARIO_PATHS = (
    *[(key,) for key in scenario_to_dict(default_scenario())],
    *[(noise, key) for noise in ("true_noise", "assumed_noise")
      for key in ("sigma_v", "sigma_gamma_deg", "sigma_r", "sigma_theta_deg")],
    ("landmarks", 0), ("landmarks", 3, 0), ("landmarks", 3, 1), ("landmarks", 3, 2),
    ("waypoints", 0), ("waypoints", 2, 0), ("waypoints", 2, 1),
    ("start", 0), ("start", 1), ("start", 2),
)

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(),  # NaN and +-inf included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 10**400, "nan", "1e400"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


class TestScenarioSerialization:
    def test_round_trip_equality(self, tmp_path, tiny_scenario):
        path = tmp_path / "scenario.json"
        save_scenario(tiny_scenario, path)
        assert load_scenario(path) == tiny_scenario

    def test_dict_round_trip_default(self):
        s = default_scenario()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_angles_stored_in_degrees(self):
        d = scenario_to_dict(default_scenario())
        assert d["sensor_fov_deg"] == pytest.approx(180.0)
        assert d["gamma_max_deg"] == pytest.approx(30.0)
        assert d["true_noise"]["sigma_theta_deg"] == pytest.approx(1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_wrong_schema(self, tmp_path, tiny_scenario):
        path = tmp_path / "schema.json"
        data = scenario_to_dict(tiny_scenario)
        data["schema"] = "something-else"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="schema"):
            load_scenario(path)
        assert SCENARIO_SCHEMA == "fuzzyloc-scenario-v1"

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3", '"scenario"'])
    def test_top_level_not_an_object(self, tmp_path, text):
        path = tmp_path / "array.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match="malformed scenario"):
            load_scenario(path)
        with pytest.raises(ScenarioError, match="malformed scenario"):
            scenario_from_dict(json.loads(text))

    @pytest.mark.parametrize("field", ["seed", "landmark id"])
    @pytest.mark.parametrize("value", [2.9, True, "2", math.inf])
    def test_integer_fields_accept_only_json_integers(self, tmp_path, tiny_scenario, field, value):
        # int() used to load a seed 2.9 as 2 and a landmark id 2.9 as a duplicate id 2,
        # and raised OverflowError on Infinity
        data = scenario_to_dict(tiny_scenario)
        if field == "seed":
            data["seed"] = value
            message = "seed must be a nonnegative integer"
        else:
            data["landmarks"][0][0] = value
            message = "landmark ids must be integers"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)

    def test_missing_field(self, tmp_path, tiny_scenario):
        path = tmp_path / "missing.json"
        data = scenario_to_dict(tiny_scenario)
        del data["wheelbase"]
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="malformed"):
            load_scenario(path)

    @pytest.mark.parametrize("path", [("speed",), ("true_noise", "sigma_r"), ("landmarks", 0, 1),
                                      ("waypoints", 0, 0), ("start", 2)])
    @pytest.mark.parametrize("value", [True, False, "3", None])
    def test_number_fields_accept_only_json_numbers(self, path, value):
        # float() used to load "speed": true as 1 m/s and "speed": "3" as 3 m/s
        data = scenario_to_dict(default_scenario())
        _replace_at(data, path, value)
        with pytest.raises(ScenarioError, match="malformed scenario"):
            scenario_from_dict(data)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(path=st.sampled_from(_SCENARIO_PATHS), value=_JSON_VALUES)
    # each of these ended in an OverflowError traceback, in the loader or in run_once
    @example(path=("observe_rate",), value=5e-324)
    @example(path=("control_rate",), value=1e308)
    @example(path=("waypoints", 2, 1), value=10**400)
    def test_any_one_replaced_value_loads_valid_or_raises_scenario_error(self, path, value):
        data = scenario_to_dict(default_scenario())
        _replace_at(data, path, value)
        try:
            scenario = scenario_from_dict(data)
        except ScenarioError:
            return
        scenario.validate()
        assert not isinstance(value, (bool, str)), "a bool or string number field loaded"
        # run_once can count its ticks and its scans
        assert int(round(scenario.duration * scenario.control_rate)) >= 1
        assert scenario.ticks_per_observation >= 1


class _SilentRng:
    """Stand-in generator that returns zero noise."""

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return 0.0
        return np.zeros(size)


class TestWaypointDriver:
    def _driver(self, scenario, waypoints):
        return WaypointDriver(dataclasses.replace(scenario, waypoints=waypoints))

    def test_steers_toward_waypoint(self, tiny_scenario):
        driver = self._driver(tiny_scenario, ((0.0, 10.0),))
        clean, _ = driver.drive(Pose(0.0, 0.0, 0.0), _SilentRng(), tiny_scenario.true_noise)
        assert clean.v == tiny_scenario.speed
        assert clean.gamma == pytest.approx(tiny_scenario.gamma_max)  # 90 deg left, clamped

    def test_steering_sign_right(self, tiny_scenario):
        driver = self._driver(tiny_scenario, ((10.0, -1.0),))
        clean, _ = driver.drive(Pose(0.0, 0.0, 0.0), _SilentRng(), tiny_scenario.true_noise)
        assert -tiny_scenario.gamma_max < clean.gamma < 0.0
        assert clean.gamma == pytest.approx(math.atan2(-1.0, 10.0))

    def test_advances_within_radius(self, tiny_scenario):
        driver = self._driver(tiny_scenario, ((0.5, 0.0), (100.0, 0.0)))
        assert driver.reached == 0
        clean, _ = driver.drive(Pose(0.0, 0.0, 0.0), _SilentRng(), tiny_scenario.true_noise)
        assert driver.reached == 1
        assert clean.gamma == pytest.approx(0.0)  # now steering at the far waypoint
        assert WAYPOINT_RADIUS == 1.0

    def test_waypoints_cycle(self, tiny_scenario):
        driver = self._driver(tiny_scenario, ((0.5, 0.0), (0.5, 0.5)))
        driver.drive(Pose(0.5, 0.0, 0.0), _SilentRng(), tiny_scenario.true_noise)
        driver.drive(Pose(0.5, 0.5, 0.0), _SilentRng(), tiny_scenario.true_noise)
        assert driver.reached == 2
        assert driver._index == 0

    def test_noisy_command_differs(self, tiny_scenario):
        driver = self._driver(tiny_scenario, ((50.0, 0.0),))
        clean, noisy = driver.drive(
            Pose(0.0, 0.0, 0.0), np.random.default_rng(3), tiny_scenario.true_noise
        )
        assert noisy.v != clean.v
        assert noisy.gamma != clean.gamma


class TestSense:
    def _scenario(self, tiny_scenario, landmarks):
        return dataclasses.replace(tiny_scenario, landmarks=landmarks)

    def test_visibility_by_range_and_fov(self, tiny_scenario):
        s = self._scenario(
            tiny_scenario,
            (
                Landmark(1, 10.0, 0.0),  # ahead, in range
                Landmark(2, 50.0, 0.0),  # ahead, too far
                Landmark(3, -5.0, 0.0),  # behind: |bearing| > fov/2
                Landmark(4, 0.0, 15.0),  # exactly sideways: bearing pi/2, visible
            ),
        )
        scan = sense(Pose(0.0, 0.0, 0.0), LandmarkMap(s.landmarks), s, _SilentRng())
        assert sorted(z.landmark_id for z in scan) == [1, 4]

    def test_zero_noise_returns_clean_geometry(self, tiny_scenario):
        s = self._scenario(tiny_scenario, (Landmark(1, 6.0, 8.0),))
        scan = sense(Pose(0.0, 0.0, 0.2), LandmarkMap(s.landmarks), s, _SilentRng())
        assert len(scan) == 1
        assert scan[0].r == pytest.approx(10.0)
        assert scan[0].theta == pytest.approx(math.atan2(8.0, 6.0) - 0.2)

    def test_range_floored_at_zero(self, tiny_scenario):
        class NegRng:
            def normal(self, loc=0.0, scale=1.0):
                return -5.0 * scale / scale if scale else 0.0

        s = self._scenario(tiny_scenario, (Landmark(1, 0.5, 0.0),))
        scan = sense(Pose(0.0, 0.0, 0.0), LandmarkMap(s.landmarks), s, NegRng())
        assert scan[0].r == 0.0

    def test_visibility_ignores_noise_draws(self, tiny_scenario):
        # a landmark just inside range stays in the scan even when the noisy
        # range reads beyond the limit
        class BigNoiseRng:
            def normal(self, loc=0.0, scale=1.0):
                return 3.0 * scale / scale if scale else 0.0

        s = self._scenario(tiny_scenario, (Landmark(1, 19.5, 0.0),))
        scan = sense(Pose(0.0, 0.0, 0.0), LandmarkMap(s.landmarks), s, BigNoiseRng())
        assert len(scan) == 1
        assert scan[0].r > s.sensor_range


def _scan_bits(scan):
    return [(z.landmark_id, z.r.hex(), z.theta.hex()) for z in scan]


class TestSenseOracle:
    """sense against an oracle that calls models.observe twice per visible landmark."""

    def _both(self, truth, scenario, rng_factory):
        landmark_map = LandmarkMap(scenario.landmarks)
        new = sense(truth, landmark_map, scenario, rng_factory())
        old = helpers.sense_observe_twice(truth, landmark_map, scenario, rng_factory())
        return new, old

    def test_default_drive_replay(self):
        s = default_scenario()
        landmark_map = LandmarkMap(s.landmarks)
        control_rng = np.random.default_rng(5)
        rng_new, rng_old = np.random.default_rng(6), np.random.default_rng(6)
        driver = WaypointDriver(s)
        truth = Pose(*s.start)
        scans = 0
        for k in range(1, int(round(s.duration * s.control_rate)) + 1):
            clean, noisy = driver.drive(truth, control_rng, s.true_noise)
            truth = models.motion_step(truth, clean, s.dt, s.wheelbase,
                                       noise=(noisy.v - clean.v, noisy.gamma - clean.gamma))
            if k % s.ticks_per_observation == 0:
                new = sense(truth, landmark_map, s, rng_new)
                old = helpers.sense_observe_twice(truth, landmark_map, s, rng_old)
                assert _scan_bits(new) == _scan_bits(old), k
                scans += len(new) > 0
        assert scans > 400

    def test_random_poses_wrap_bearings(self, tiny_scenario, rng):
        # headings near +-pi put the unwrapped bearing outside (-pi, pi]
        s = dataclasses.replace(
            tiny_scenario,
            landmarks=tuple(Landmark(i + 1, 15.0 * math.cos(a), 15.0 * math.sin(a))
                            for i, a in enumerate(np.linspace(-math.pi, math.pi, 24))),
        )
        for seed in range(200):
            truth = helpers.random_pose(rng, span=10.0)
            new, old = self._both(truth, s, lambda: np.random.default_rng(seed))
            assert _scan_bits(new) == _scan_bits(old)

    def test_range_floored_at_zero(self, tiny_scenario):
        class NegRng:
            def normal(self, loc=0.0, scale=1.0):
                return -5.0

        s = dataclasses.replace(tiny_scenario, landmarks=(Landmark(1, 0.5, 0.0), Landmark(2, 3.0, 1.0)))
        new, old = self._both(Pose(0.0, 0.0, 0.3), s, NegRng)
        assert [z.r for z in new] == [0.0, 0.0]
        assert _scan_bits(new) == _scan_bits(old)

    def test_landmark_exactly_at_half_fov(self, tiny_scenario):
        # bearings of exactly +-pi/2 with half_fov = 0.5 * pi: on the edge, visible
        s = dataclasses.replace(
            tiny_scenario, sensor_fov=math.pi,
            landmarks=(Landmark(1, 0.0, 15.0), Landmark(2, 0.0, -15.0), Landmark(3, -1.0, 15.0)),
        )
        new, old = self._both(Pose(0.0, 0.0, 0.0), s, lambda: np.random.default_rng(1))
        assert [z.landmark_id for z in new] == [1, 2]
        assert _scan_bits(new) == _scan_bits(old)

    def test_landmark_exactly_at_range_on_an_axis(self, tiny_scenario):
        # |dx| equals the range: the pre-test keeps it and hypot says visible
        rng_ = tiny_scenario.sensor_range
        s = dataclasses.replace(tiny_scenario, landmarks=(Landmark(1, 2.0 + rng_, -3.0),))
        new, old = self._both(Pose(2.0, -3.0, 0.0), s, lambda: np.random.default_rng(2))
        assert [z.landmark_id for z in new] == [1]
        assert _scan_bits(new) == _scan_bits(old)

    def test_landmark_just_beyond_range_on_an_axis(self, tiny_scenario):
        beyond = math.nextafter(tiny_scenario.sensor_range, math.inf)
        s = dataclasses.replace(tiny_scenario, landmarks=(Landmark(1, beyond, 0.0), Landmark(2, 5.0, 0.0)))
        new, old = self._both(Pose(0.0, 0.0, 0.0), s, lambda: np.random.default_rng(3))
        assert [z.landmark_id for z in new] == [2]
        assert _scan_bits(new) == _scan_bits(old)

    def test_landmark_at_robot_position(self, tiny_scenario):
        s = dataclasses.replace(tiny_scenario, landmarks=(Landmark(1, 3.0, 4.0),))
        for fn in (sense, helpers.sense_observe_twice):
            with pytest.raises(DegenerateGeometryError):
                fn(Pose(3.0, 4.0, 0.0), LandmarkMap(s.landmarks), s, np.random.default_rng(0))


class TestRunOnce:
    def test_unknown_variant(self, tiny_scenario):
        with pytest.raises(ValueError, match="variant"):
            run_once(tiny_scenario, "kalman")

    def test_log_shapes_and_time_axis(self, tiny_scenario):
        log = run_once(tiny_scenario, "ekf", seed=5)
        n = int(round(tiny_scenario.duration * tiny_scenario.control_rate))
        assert log.t.shape == (n,)
        assert log.truth.shape == (n, 3)
        assert log.est_mean.shape == (n, 3)
        assert log.t[0] == pytest.approx(tiny_scenario.dt)
        assert log.t[-1] == pytest.approx(tiny_scenario.duration)
        assert log.variant == "ekf" and log.seed == 5

    def test_determinism_bit_equal(self, tiny_scenario):
        a = run_once(tiny_scenario, "anfekf-r", seed=11)
        b = run_once(tiny_scenario, "anfekf-r", seed=11)
        np.testing.assert_array_equal(a.est_mean, b.est_mean)
        np.testing.assert_array_equal(a.p_diag, b.p_diag)
        np.testing.assert_array_equal(a.r_diag, b.r_diag)
        np.testing.assert_array_equal(a.nees, b.nees)

    def test_truth_independent_of_variant(self, tiny_scenario):
        a = run_once(tiny_scenario, "ekf", seed=3)
        b = run_once(tiny_scenario, "anfekf-rq", seed=3)
        np.testing.assert_array_equal(a.truth, b.truth)
        np.testing.assert_array_equal(a.n_meas + a.n_gated, b.n_meas + b.n_gated)

    @pytest.mark.parametrize("variant", ["anfekf-r", "anfekf-q", "anfekf-rq"])
    def test_zero_eta_adapter_matches_plain_ekf_bitwise(self, tiny_scenario, variant):
        plain = run_once(tiny_scenario, "ekf", seed=9)
        frozen = run_once(
            tiny_scenario, variant, seed=9, adaptation=AdaptationConfig(eta=0.0)
        )
        for field in ("est_mean", "p_diag", "r_diag", "q_diag", "nees", "n_meas", "n_gated"):
            a, b = getattr(plain, field), getattr(frozen, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_measurements_only_on_observation_ticks(self, tiny_scenario):
        log = run_once(tiny_scenario, "ekf", seed=2)
        ticks = np.arange(1, len(log.t) + 1)
        off = ticks % tiny_scenario.ticks_per_observation != 0
        assert np.all(log.n_meas[off] == 0)
        assert np.all(log.n_gated[off] == 0)
        assert log.n_meas[~off].sum() > 0

    def test_seed_defaults_to_scenario_seed(self, tiny_scenario):
        s = dataclasses.replace(tiny_scenario, seed=21)
        a = run_once(s, "ekf")
        b = run_once(s, "ekf", seed=21)
        assert a.seed == 21
        np.testing.assert_array_equal(a.est_mean, b.est_mean)

    def test_plain_ekf_covariances_constant(self, tiny_scenario):
        log = run_once(tiny_scenario, "ekf", seed=1)
        assert np.all(log.r_diag == log.r_diag[0])
        assert np.all(log.q_diag == log.q_diag[0])
        assert np.all(np.isnan(log.dom_diag))
        assert np.all(np.isnan(log.q_factor))

    def test_adaptive_run_changes_r(self, tiny_scenario):
        wrong = dataclasses.replace(
            tiny_scenario,
            duration=30.0,
            assumed_noise=dataclasses.replace(tiny_scenario.assumed_noise, sigma_r=2.0),
        )
        log = run_once(wrong, "anfekf-r", seed=4)
        assert np.any(log.r_diag[:, 0] != log.r_diag[0, 0])
        assert np.isfinite(log.dom_diag).any()

    def test_estimate_tracks_truth(self, tiny_scenario):
        log = run_once(tiny_scenario, "ekf", seed=0)
        assert float(np.sqrt(np.mean(log.position_error() ** 2))) < 1.0

    def test_timed_out_when_no_waypoint_reached(self, tiny_scenario):
        s = dataclasses.replace(
            tiny_scenario, waypoints=((1e6, 0.0),), duration=2.0
        )
        log = run_once(s, "ekf", seed=0)
        assert log.timed_out
        assert log.summary().timed_out

    def test_summary_consistency(self, tiny_scenario):
        log = run_once(tiny_scenario, "anfekf-r", seed=6)
        s = log.summary()
        assert s.variant == "anfekf-r" and s.seed == 6
        assert s.time_avg_pos_rmse == pytest.approx(
            float(np.sqrt(np.mean(log.position_error() ** 2)))
        )
        assert s.time_avg_nees == pytest.approx(float(np.mean(log.nees)))
        assert s.accepted == int(log.n_meas.sum())
        assert s.gated == int(log.n_gated.sum())
        # 8 s at 3 m/s cannot reach the first waypoint 60 m out
        assert s.timed_out == log.timed_out is True

    def test_heading_error_wrapped(self, tiny_scenario):
        log = run_once(tiny_scenario, "ekf", seed=0)
        he = log.heading_error()
        assert np.all(np.abs(he) <= math.pi)
        raw = [math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, 1e3, -1e3]
        log.truth[: len(raw), 2] = raw
        log.est_mean[: len(raw), 2] = 0.0
        expected = np.array([wrap_angle(v) for v in log.truth[:, 2] - log.est_mean[:, 2]])
        assert log.heading_error().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("call, argument, value", [
        ("run_once", "seed", -1),
        ("run_once", "seed", 1.5),
        ("run_once", "seed", True),
        ("run_monte_carlo", "base_seed", -1),
        ("run_monte_carlo", "base_seed", False),
        ("run_once", "gate_threshold", math.nan),
        ("run_once", "gate_threshold", -1.0),
        ("run_monte_carlo", "gate_threshold", math.nan),
        pytest.param("run_once", "p0_diag", (-1.0, 1.0, 1.0), id="run_once-p0_diag-negative"),
        pytest.param("run_once", "p0_diag", (1.0, 1.0), id="run_once-p0_diag-two-values"),
        pytest.param("run_monte_carlo", "p0_diag", (1.0, math.inf, 1.0), id="run_monte_carlo-p0_diag-inf"),
    ])
    def test_invalid_argument_named_before_any_rng(self, tiny_scenario, monkeypatch,
                                                   call, argument, value):
        def no_rng(*args, **kwargs):
            raise AssertionError("an rng was built before the arguments were checked")

        def no_process(*args, **kwargs):
            raise AssertionError("a process was started before the arguments were checked")

        monkeypatch.setattr(simulator.np.random, "SeedSequence", no_rng)
        monkeypatch.setattr(simulator, "Process", no_process)
        with pytest.raises(ValueError, match=f"^{argument} "):
            if call == "run_once":
                run_once(tiny_scenario, "anfekf-r", **{argument: value})
            else:
                run_monte_carlo(tiny_scenario, "anfekf-r", n_runs=2, max_workers=2, **{argument: value})

    def test_gate_threshold_zero_and_inf_stay_legal(self, tiny_scenario):
        scenario = dataclasses.replace(tiny_scenario, duration=2.0)
        closed = run_once(scenario, "anfekf-r", seed=0, gate_threshold=0.0)
        assert closed.n_meas.sum() == 0 and closed.n_gated.sum() > 0
        opened = run_once(scenario, "anfekf-r", seed=0, gate_threshold=math.inf)
        assert opened.n_gated.sum() == 0 and opened.n_meas.sum() > 0

    def test_initial_covariance_honored(self, tiny_scenario):
        log = run_once(tiny_scenario, "ekf", seed=0, p0_diag=(4.0, 4.0, 1.0))
        # first tick is one prediction from the start: still near the prior
        assert log.p_diag[0, 0] > 3.0
        assert DEFAULT_P0_DIAG == (1e-6, 1e-6, 1e-6)


def _assert_logs_equal(new, old):
    """Every RunLog field equal, arrays byte for byte (NaN positions included)."""
    for field in dataclasses.fields(RunLog):
        _assert_logs_equal_field(getattr(new, field.name), getattr(old, field.name), field.name)


def _assert_logs_close(new, old):
    """Counts, flags and NaN masks equal; every float column within rtol 1e-6
    and an atol of 1e-12 times the column's largest |value|."""
    for field in dataclasses.fields(RunLog):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if not (isinstance(a, np.ndarray) and a.dtype.kind == "f"):
            _assert_logs_equal_field(a, b, field.name)
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert np.array_equal(np.isnan(a), np.isnan(b)), field.name
        finite = np.abs(b[np.isfinite(b)])
        scale = float(finite.max()) if finite.size else 0.0
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-12 * scale, equal_nan=True,
                                   err_msg=field.name)


def _assert_logs_equal_field(a, b, name):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    else:
        assert a == b, name


def _setting(name):
    """The default scenario (40 s) under the acceptance suite's noise settings."""
    s = dataclasses.replace(default_scenario(), duration=40.0)
    assumed = {
        "default": {},
        # criterion 3: sensor noise assumed 20x too large in range, 10x too small in bearing
        "criterion-3": {"sigma_r": 2.0, "sigma_theta": math.radians(0.1)},
        # criterion 4: control noise assumed 10x / 6x too small
        "criterion-4": {"sigma_v": 0.03, "sigma_gamma": math.radians(0.5)},
    }[name]
    return dataclasses.replace(s, assumed_noise=dataclasses.replace(s.assumed_noise, **assumed))


class TestRunOnceOracle:
    """run_once on floats against the object loop of helpers.run_once_object_loop."""

    @pytest.mark.parametrize("setting", ["default", "criterion-3", "criterion-4"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variants_and_settings(self, variant, setting):
        scenario = _setting(setting)
        _assert_logs_equal(run_once(scenario, variant, seed=1),
                           helpers.run_once_object_loop(scenario, variant, seed=1))

    @pytest.mark.parametrize("variant", ["anfekf-r", "anfekf-q", "anfekf-rq"])
    def test_zero_eta(self, variant):
        scenario = _setting("default")
        cfg = AdaptationConfig(eta=0.0)
        _assert_logs_equal(run_once(scenario, variant, seed=2, adaptation=cfg),
                           helpers.run_once_object_loop(scenario, variant, seed=2, adaptation=cfg))

    def test_custom_p0_and_gate(self):
        scenario = _setting("criterion-3")
        kwargs = dict(seed=3, gate_threshold=2.0, p0_diag=(0.5, 0.2, 0.01))
        new = run_once(scenario, "anfekf-rq", **kwargs)
        assert new.n_gated.sum() > 0
        _assert_logs_equal(new, helpers.run_once_object_loop(scenario, "anfekf-rq", **kwargs))

    def test_timed_out_run(self, tiny_scenario):
        scenario = dataclasses.replace(tiny_scenario, waypoints=((1e6, 0.0),), duration=5.0)
        new = run_once(scenario, "anfekf-r", seed=4)
        assert new.timed_out
        _assert_logs_equal(new, helpers.run_once_object_loop(scenario, "anfekf-r", seed=4))

    @pytest.mark.parametrize("heading", [math.pi, -math.pi, math.nextafter(-math.pi, 0.0)])
    def test_start_heading_at_pi(self, tiny_scenario, heading):
        scenario = dataclasses.replace(tiny_scenario, start=(0.0, 0.0, heading))
        _assert_logs_equal(run_once(scenario, "anfekf-q", seed=5),
                           helpers.run_once_object_loop(scenario, "anfekf-q", seed=5))

    def test_every_tick_is_a_scan(self, tiny_scenario):
        scenario = dataclasses.replace(tiny_scenario, observe_rate=tiny_scenario.control_rate,
                                       duration=3.0)
        new = run_once(scenario, "anfekf-rq", seed=6)
        assert np.all(new.n_meas + new.n_gated > 0)
        _assert_logs_equal(new, helpers.run_once_object_loop(scenario, "anfekf-rq", seed=6))

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 7), (1, 0), (1, 1), (2, 3)])
    def test_duration_across_noise_blocks(self, tiny_scenario, blocks, extra):
        n = blocks * simulator.CONTROL_NOISE_BLOCK + extra
        scenario = dataclasses.replace(tiny_scenario, duration=n / tiny_scenario.control_rate)
        new = run_once(scenario, "anfekf-r", seed=7)
        assert len(new.t) == n
        _assert_logs_equal(new, helpers.run_once_object_loop(scenario, "anfekf-r", seed=7))


class TestAdapterOracle:
    """run_once with the float CovarianceAdapter against the same loop driving
    helpers.LegacyCovarianceAdapter, one numpy AnfisNet object per fuzzy
    network: equal counts and NaN masks, float columns within rounding."""

    @staticmethod
    def _both(monkeypatch, scenario, variant, **kwargs):
        new = run_once(scenario, variant, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(simulator, "CovarianceAdapter", helpers.LegacyCovarianceAdapter)
            old = run_once(scenario, variant, **kwargs)
        return new, old

    @pytest.mark.parametrize("setting", ["default", "criterion-3", "criterion-4"])
    @pytest.mark.parametrize("variant", ["anfekf-r", "anfekf-q", "anfekf-rq"])
    def test_variants_and_settings(self, monkeypatch, variant, setting):
        new, old = self._both(monkeypatch, _setting(setting), variant, seed=8)
        assert np.isfinite(new.q_factor).any() == (variant != "anfekf-r")
        _assert_logs_close(new, old)

    @pytest.mark.parametrize("variant", ["anfekf-r", "anfekf-q", "anfekf-rq"])
    def test_zero_eta(self, monkeypatch, variant):
        new, old = self._both(monkeypatch, _setting("default"), variant, seed=9,
                              adaptation=AdaptationConfig(eta=0.0))
        _assert_logs_close(new, old)

    @pytest.mark.parametrize("sensor_range, most", [(20.0, 2), (40.0, 3)])
    @pytest.mark.parametrize("variant", ["anfekf-r", "anfekf-q", "anfekf-rq"])
    def test_window_shorter_than_a_scan(self, monkeypatch, variant, sensor_range, most):
        # scans on the default map carry at most two records, which fill a
        # window of two at once; a 40 m sensor range sees three at a time
        scenario = dataclasses.replace(_setting("default"), sensor_range=sensor_range)
        new, old = self._both(monkeypatch, scenario, variant, seed=10,
                              adaptation=AdaptationConfig(window=2))
        assert (new.n_meas + new.n_gated).max() == most
        _assert_logs_close(new, old)


#: Hashes the RunLogs of each adaptive variant on its acceptance setting
#: (anfekf-r on criterion 3, anfekf-q on criterion 4, anfekf-rq matched), 20 s,
#: seeds 0 and 1, and prints the sha256.
_RUNLOG_HASH_SCRIPT = """
import dataclasses, hashlib, math
from fuzzyloc import simulator
base = dataclasses.replace(simulator.default_scenario(), duration=20.0)
settings = {
    "anfekf-r": {"sigma_r": 2.0, "sigma_theta": math.radians(0.1)},
    "anfekf-q": {"sigma_v": 0.03, "sigma_gamma": math.radians(0.5)},
    "anfekf-rq": {},
}
digest = hashlib.sha256()
for variant, assumed in settings.items():
    scenario = dataclasses.replace(
        base, assumed_noise=dataclasses.replace(base.assumed_noise, **assumed))
    for seed in (0, 1):
        log = simulator.run_once(scenario, variant, seed=seed)
        for field in dataclasses.fields(log):
            value = getattr(log, field.name)
            digest.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())
print(digest.hexdigest())
"""


class TestPortableBytes:
    def test_runlog_bytes_independent_of_openblas_kernel(self):
        """The adaptive RunLogs hash the same whichever OpenBLAS kernel numpy
        runs on: the variable is set before numpy is imported, in a fresh
        interpreter each time."""
        src = str(Path(simulator.__file__).resolve().parents[1])
        hashes = {}
        for coretype in (None, "Sandybridge", "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run([sys.executable, "-c", _RUNLOG_HASH_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            hashes[coretype] = proc.stdout.strip()
        assert len(set(hashes.values())) == 1, hashes


#: Assumed-noise overrides of the default scenario: matched, acceptance
#: criterion 3 (sensor noise assumed 20x too large in range, 10x too small in
#: bearing) and criterion 4 (control noise assumed 10x / 6x too small).
_DIGEST_SETTINGS = {
    "matched": {},
    "criterion-3": {"sigma_r": 2.0, "sigma_theta": math.radians(0.1)},
    "criterion-4": {"sigma_v": 0.03, "sigma_gamma": math.radians(0.5)},
}

_DIGEST_CONFIGS = {
    "default": None,
    "eta-0": AdaptationConfig(eta=0.0),
    "window-30-q-floor": AdaptationConfig(window=30, q_floor=1e-6),
}

#: sha256 of the grid's RunLogs, recorded on the commit before the NEES pass
#: left the tick loop. A change that moves output bits re-pins it and says why.
_RUNLOG_GRID_SHA256 = "3aa82be8fab7d8f95afb4b339b66d82a42eb38d250683891c484091b7766121c"


def runlog_grid_sha256() -> str:
    """sha256 over every RunLog field of each variant x setting x config x seed
    7000-7001, 20 s runs: arrays by their bytes, other fields by repr."""
    base = dataclasses.replace(default_scenario(), duration=20.0)
    digest = hashlib.sha256()
    for variant in VARIANTS:
        for assumed in _DIGEST_SETTINGS.values():
            scenario = dataclasses.replace(
                base, assumed_noise=dataclasses.replace(base.assumed_noise, **assumed))
            for config in _DIGEST_CONFIGS.values():
                for seed in (7000, 7001):
                    log = run_once(scenario, variant, seed=seed, adaptation=config)
                    for field in dataclasses.fields(log):
                        value = getattr(log, field.name)
                        digest.update(value.tobytes() if isinstance(value, np.ndarray)
                                      else repr(value).encode())
    return digest.hexdigest()


class TestDeterminismDigest:
    def test_runlog_grid_bytes_pinned(self):
        """Every RunLog byte of the grid matches the recorded digest."""
        assert runlog_grid_sha256() == _RUNLOG_GRID_SHA256


class TestControlNoise:
    def test_blocks_equal_scalar_draws(self):
        noise = default_scenario().true_noise
        n = 3 * simulator.CONTROL_NOISE_BLOCK + 5
        scalar_rng, block_rng = np.random.default_rng(21), np.random.default_rng(21)
        expected = [
            [scalar_rng.normal(0.0, noise.sigma_v), scalar_rng.normal(0.0, noise.sigma_gamma)]
            for _ in range(n)
        ]
        drawn = list(simulator._control_noise(block_rng, noise, n))
        assert len(drawn) == n
        assert [[v.hex() for v in pair] for pair in drawn] == \
            [[v.hex() for v in pair] for pair in expected]
        assert all(type(v) is float for pair in drawn for v in pair)
        # both streams stop at the same state: nothing is drawn past tick n
        assert block_rng.normal() == scalar_rng.normal()

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert list(simulator._control_noise(rng, default_scenario().true_noise, 0)) == []


class TestTickLoopGuard:
    """Non-scan ticks stay on floats: a call-count guard, free of timing."""

    def test_step_once_per_scan_and_no_drive(self, tiny_scenario, monkeypatch):
        calls = {"step": 0, "drive": 0}
        step, drive = simulator.ekf.step, WaypointDriver.drive

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        def counted_drive(self, *args, **kwargs):
            calls["drive"] += 1
            return drive(self, *args, **kwargs)

        monkeypatch.setattr(simulator.ekf, "step", counted_step)
        monkeypatch.setattr(WaypointDriver, "drive", counted_drive)
        log = run_once(tiny_scenario, "anfekf-rq", seed=0)
        scans = len(log.t) // tiny_scenario.ticks_per_observation
        assert scans > 0
        assert calls == {"step": scans, "drive": 0}


class TestNeesAfterTheLoop:
    """run_once computes its NEES column in one nees_rows pass after the tick loop."""

    def test_nees_rows_once_and_no_nees_floats(self, tiny_scenario, monkeypatch):
        calls = {"nees_floats": 0, "nees_rows": 0}
        nees_floats, nees_rows = metrics.nees_floats, metrics.nees_rows

        def counted_floats(*args):
            calls["nees_floats"] += 1
            return nees_floats(*args)

        def counted_rows(*args):
            calls["nees_rows"] += 1
            return nees_rows(*args)

        monkeypatch.setattr(metrics, "nees_floats", counted_floats)
        monkeypatch.setattr(metrics, "nees_rows", counted_rows)
        run_once(tiny_scenario, "anfekf-rq", seed=0)
        assert calls == {"nees_floats": 0, "nees_rows": 1}

    @staticmethod
    def _patch_predict(monkeypatch, singular_call=None, failing_call=None):
        """ekf.predict_floats, whose call singular_call returns P = 0 and whose
        call failing_call raises RuntimeError. Every tick predicts once."""
        predict = ekf.predict_floats
        calls = [0]

        def patched(*args):
            calls[0] += 1
            if calls[0] == failing_call:
                raise RuntimeError("later failure")
            out = predict(*args)
            return out[:3] + (0.0,) * 6 if calls[0] == singular_call else out

        monkeypatch.setattr(ekf, "predict_floats", patched)

    @pytest.mark.parametrize("variant", ["ekf", "anfekf-rq"])
    def test_singular_tick_raises_before_a_later_error(self, tiny_scenario, monkeypatch, variant):
        # tick 9 is between scans, tick 30 two scans later
        self._patch_predict(monkeypatch, singular_call=10, failing_call=31)
        with pytest.raises(SingularCovarianceError, match="^state covariance is singular$") as raised:
            run_once(tiny_scenario, variant, seed=0)
        assert raised.value.__cause__ is None and raised.value.__suppress_context__
        # the per-tick loop of the oracle stops at the singular tick itself
        self._patch_predict(monkeypatch, singular_call=10, failing_call=31)
        with pytest.raises(SingularCovarianceError):
            helpers.run_once_object_loop(tiny_scenario, variant, seed=0)

    def test_singular_tick_raises_after_the_loop(self, tiny_scenario, monkeypatch):
        self._patch_predict(monkeypatch, singular_call=10)
        with pytest.raises(SingularCovarianceError, match="^state covariance is singular$"):
            run_once(tiny_scenario, "anfekf-r", seed=0)

    def test_later_error_alone_surfaces(self, tiny_scenario, monkeypatch):
        self._patch_predict(monkeypatch, failing_call=31)
        with pytest.raises(RuntimeError, match="^later failure$"):
            run_once(tiny_scenario, "anfekf-r", seed=0)


class TestMonteCarlo:
    def test_single_run_matches_run_once(self, tiny_scenario):
        logs = run_monte_carlo(tiny_scenario, "ekf", n_runs=1, base_seed=17)
        direct = run_once(tiny_scenario, "ekf", seed=17)
        np.testing.assert_array_equal(logs[0].est_mean, direct.est_mean)

    def test_seeds_are_base_plus_index(self, tiny_scenario):
        logs = run_monte_carlo(tiny_scenario, "ekf", n_runs=3, base_seed=40)
        assert [log.seed for log in logs] == [40, 41, 42]

    def test_parallel_matches_serial_bitwise(self, tiny_scenario):
        serial = run_monte_carlo(tiny_scenario, "anfekf-r", n_runs=2, base_seed=7)
        parallel = run_monte_carlo(
            tiny_scenario, "anfekf-r", n_runs=2, base_seed=7, max_workers=2
        )
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.est_mean, b.est_mean)
            np.testing.assert_array_equal(a.r_diag, b.r_diag)

    def test_pool_never_larger_than_run_count(self, tiny_scenario, monkeypatch):
        # the real worker processes, each one recorded as it is created
        started = []
        real_process = simulator.Process

        def recording_process(*args, **kwargs):
            proc = real_process(*args, **kwargs)
            started.append(proc)
            return proc

        monkeypatch.setattr(simulator, "Process", recording_process)
        logs = run_monte_carlo(tiny_scenario, "ekf", n_runs=2, base_seed=3, max_workers=64)
        assert len(started) == 2
        assert [log.seed for log in logs] == [3, 4]
        run_monte_carlo(tiny_scenario, "ekf", n_runs=1, base_seed=3, max_workers=64)
        assert len(started) == 2  # one run needs no process
        run_monte_carlo(tiny_scenario, "ekf", n_runs=3, base_seed=3, max_workers=2)
        assert len(started) == 4

    def test_zero_runs_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            run_monte_carlo(tiny_scenario, "ekf", n_runs=0)


def _square_and_pid(x):
    return x * x, os.getpid()


def _raise_on(x, bad, exc_type):
    if x == bad:
        raise exc_type(f"item {x} failed")
    return x


def _exit_on(x, bad):
    if x == bad:
        os._exit(1)
    return x


def _fail_first_or_sleep(x):
    if x == 0:
        raise ValueError("item 0 failed")
    time.sleep(60.0)
    return x


def _return_first_or_sleep(x):
    if x != 0:
        time.sleep(60.0)
    return x


@contextmanager
def _deadline(seconds):
    """Fail the block with TimeoutError if it has not finished after seconds."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFanOut:
    """simulator.fan_out: item order, errors, dead workers and clean-up."""

    def test_results_in_item_order_from_at_most_workers_processes(self):
        results = list(simulator.fan_out(_square_and_pid, [(i,) for i in range(7)], 3))
        assert [square for square, _ in results] == [i * i for i in range(7)]
        pids = {pid for _, pid in results}
        assert len(pids) == 3 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_one_worker_runs_in_this_process(self):
        results = list(simulator.fan_out(_square_and_pid, [(2,), (3,)], 1))
        assert results == [(4, os.getpid()), (9, os.getpid())]

    @pytest.mark.parametrize("exc_type", [ValueError, FuzzylocError, ScenarioError])
    def test_worker_exception_reaches_caller(self, exc_type):
        with _deadline(60), pytest.raises(exc_type, match="^item 3 failed$"):
            list(simulator.fan_out(_raise_on, [(i, 3, exc_type) for i in range(5)], 2))
        assert multiprocessing.active_children() == []

    def test_run_monte_carlo_worker_error_reaches_caller(self, tiny_scenario):
        # the adapter rejects the floor in the worker, when the run starts
        with _deadline(60), pytest.raises(ValueError, match="^q_floor 1.0 lies above the Q ceiling"):
            run_monte_carlo(tiny_scenario, "anfekf-q", n_runs=2, max_workers=2,
                            adaptation=AdaptationConfig(q_floor=1.0))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [0, 3])  # the first item of worker 0, the last of worker 1
    def test_dead_worker_raises_instead_of_hanging(self, bad):
        with _deadline(60), pytest.raises(RuntimeError, match=f"exited with code 1 before returning item {bad}$"):
            list(simulator.fan_out(_exit_on, [(i, bad) for i in range(4)], 2))
        assert multiprocessing.active_children() == []

    def test_failure_terminates_the_other_workers(self):
        t0 = time.perf_counter()
        with _deadline(30), pytest.raises(ValueError, match="^item 0 failed$"):
            list(simulator.fan_out(_fail_first_or_sleep, [(0,), (1,)], 2))
        assert time.perf_counter() - t0 < 20.0  # the sleeping worker did not run out its 60 s
        assert multiprocessing.active_children() == []

    def test_closing_early_terminates_the_other_workers(self):
        t0 = time.perf_counter()
        with _deadline(30):
            results = simulator.fan_out(_return_first_or_sleep, [(0,), (1,)], 2)
            assert next(results) == 0
            results.close()
        assert time.perf_counter() - t0 < 20.0  # the sleeping worker did not run out its 60 s
        assert multiprocessing.active_children() == []

    def test_pooled_run_starts_no_thread(self, tiny_scenario, monkeypatch):
        # A result received on a helper thread lands in that thread's malloc
        # arena; fan_out receives every result on the calling thread.
        def no_thread(self):
            raise AssertionError(f"a thread was started: {self!r}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        logs = run_monte_carlo(tiny_scenario, "ekf", n_runs=3, base_seed=5, max_workers=2)
        assert [log.seed for log in logs] == [5, 6, 7]
        assert multiprocessing.active_children() == []


def test_variant_registry():
    assert VARIANTS == ("ekf", "anfekf-r", "anfekf-q", "anfekf-rq")
