"""Metrics tests. scipy serves as the oracle for the chi-square machinery;
the runtime itself never imports it."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fuzzyloc.ekf import GaussianState
from fuzzyloc.errors import SingularCovarianceError
from fuzzyloc.metrics import (
    NEES_BLOCK,
    STATE_DIM,
    EnsembleReport,
    _reg_lower_gamma,
    _stack_nees,
    average_nees,
    build_report,
    chi2_band,
    chi2_ppf,
    in_band_fraction,
    nees,
    nees_floats,
    nees_rows,
    rmse,
)
from fuzzyloc.models import Pose
from fuzzyloc.simulator import run_monte_carlo


def fake_log(variant="ekf", nees_series=(1.0, 2.0), pos_err=(0.0, 0.0)):
    """Minimal stand-in exposing the log surface the metrics consume."""
    pos = np.asarray(pos_err, dtype=float)
    log = SimpleNamespace(
        variant=variant,
        seed=0,
        t=np.arange(1, len(pos) + 1, dtype=float),
        nees=np.asarray(nees_series, dtype=float),
        n_meas=np.zeros(len(pos), dtype=int),
        n_gated=np.zeros(len(pos), dtype=int),
        timed_out=False,
    )
    log.position_error = lambda: pos
    log.summary = lambda: SimpleNamespace(variant=variant, seed=0)
    return log


class TestNees:
    def test_exact_estimate_gives_zero(self):
        est = GaussianState(np.array([1.0, 2.0, 0.3]), np.eye(3))
        assert nees(Pose(1.0, 2.0, 0.3), est) == 0.0

    def test_known_value(self):
        est = GaussianState(np.zeros(3), np.diag([4.0, 1.0, 0.25]))
        truth = Pose(2.0, 1.0, 0.5)
        assert nees(truth, est) == pytest.approx(2.0**2 / 4.0 + 1.0 + 0.5**2 / 0.25)

    def test_heading_error_wrapped(self):
        est = GaussianState(np.array([0.0, 0.0, -math.pi + 0.05]), np.eye(3))
        truth = Pose(0.0, 0.0, math.pi - 0.05)
        # raw difference is nearly 2 pi; wrapped it is -0.1
        assert nees(truth, est) == pytest.approx(0.1**2)

    def test_singular_covariance_raises(self):
        est = GaussianState(np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(SingularCovarianceError):
            nees(Pose(1.0, 0.0, 0.0), est)

    @pytest.mark.parametrize(
        "P",
        [
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([2.0, 0.0, 1.0]),
        ],
    )
    def test_exactly_singular_nonzero_covariance_raises(self, P):
        est = GaussianState(np.zeros(3), P)
        with pytest.raises(SingularCovarianceError):
            nees(Pose(1.0, 0.0, 0.0), est)

    @pytest.mark.parametrize("scale", [1e160, 1e-110])
    def test_extreme_scales(self, scale):
        # det(scale * I) over- or underflows; elimination never forms it
        est = GaussianState(np.zeros(3), scale * np.eye(3))
        assert nees(Pose(1.0, 0.0, 0.0), est) == pytest.approx(1.0 / scale, rel=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-100.0, 100.0),
        log_cond=st.floats(0.0, 12.0),
    )
    def test_matches_solve(self, seed, log_scale, log_cond):
        """Random SPD covariances, up to near-singular, against LAPACK."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        eig = 10.0 ** np.array([0.0, -rng.uniform(0.0, log_cond), -log_cond])
        P = 10.0**log_scale * (q * eig) @ q.T
        est = GaussianState(rng.normal(size=3), P)
        truth = Pose(*rng.normal(size=3))
        e = np.array([truth.x, truth.y, truth.phi]) - est.mean
        e[2] = math.remainder(e[2], 2.0 * math.pi)
        expected = float(e @ np.linalg.solve(est.P, e))
        cond = np.linalg.cond(est.P)
        # both sides carry a relative error of order cond * eps
        assert nees(truth, est) == pytest.approx(expected, rel=16.0 * cond * np.finfo(float).eps)

    def test_scalar_pivoting_bitwise(self, rng):
        """The scalar kernel against the row-tuple elimination it replaced: every
        pivot order, general (not only symmetric) P, and the singular cases."""
        cases = []
        for _ in range(400):
            P = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 1))
            cases.append(P)
        for perm in ([0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
            cases.append(np.diag([1.0, 2.0, 3.0])[perm] + 0.1)
        cases += [np.zeros((3, 3)), np.diag([2.0, 0.0, 1.0]), np.ones((3, 3))]
        for P in cases:
            est = GaussianState(rng.normal(size=3), np.eye(3))
            est.P = P  # bypass __post_init__'s symmetrization
            truth = Pose(*rng.normal(scale=4.0, size=3))
            try:
                expected = helpers.nees_row_tuples(truth, est)
            except SingularCovarianceError:
                with pytest.raises(SingularCovarianceError):
                    nees(truth, est)
                continue
            assert nees(truth, est).hex() == expected.hex()


def _nees_floats_rows(truth, est, upper):
    """nees_floats of each row on Python floats: a float, or the exception it raised."""
    out = []
    for (tx, ty, tphi), (x, y, phi), (p00, p01, p02, p11, p12, p22) in zip(
            truth.tolist(), est.tolist(), upper.tolist()):
        try:
            out.append(nees_floats(tx, ty, tphi, x, y, phi,
                                   p00, p01, p02, p01, p11, p12, p02, p12, p22))
        except SingularCovarianceError as exc:
            out.append(exc)
    return out


def _assert_rows_match(truth, est, upper):
    """nees_rows equals nees_floats row by row, bit for bit."""
    expected = _nees_floats_rows(truth, est, upper)
    assert all(isinstance(v, float) for v in expected)
    got = nees_rows(truth, est, upper)
    assert got.dtype == np.float64 and got.shape == (len(truth),)
    assert got.tobytes() == np.array(expected, dtype=float).tobytes()


def _pivot_order(p00, p01, p02, p11, p12, p22):
    """(first pivot row, second pivot row) that nees_floats' elimination picks for P."""
    a, b, c = (p00, p01, 0), (p01, p11, 1), (p02, p12, 2)
    if abs(b[0]) > abs(a[0]):
        a, b = b, a
    if abs(c[0]) > abs(a[0]):
        a, c = c, a
    s0 = b[1] - b[0] / a[0] * a[1]
    t0 = c[1] - c[0] / a[0] * a[1]
    return a[2], (c if abs(t0) > abs(s0) else b)[2]


_UPPER = np.triu_indices(3)


def _spd_uppers(rng, n, log_scale=0.0, log_cond=6.0):
    """Upper triangles of n random SPD matrices with condition numbers up to 10^log_cond."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    eig = 10.0 ** -rng.uniform(0.0, log_cond, size=(n, 1, 3))
    return (10.0**log_scale * (q * eig) @ q.transpose(0, 2, 1))[:, _UPPER[0], _UPPER[1]]


def _general_uppers(rng, n):
    """Upper triangles of n symmetric, mostly indefinite matrices, entries over six decades."""
    return rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 6))


class TestNeesRows:
    """metrics.nees_rows against its oracle nees_floats, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3 * NEES_BLOCK + 1),
        spd=st.booleans(),
        log_scale=st.floats(-100.0, 100.0),
    )
    def test_matches_nees_floats_bitwise(self, seed, n, spd, log_scale):
        rng = np.random.default_rng(seed)
        upper = _spd_uppers(rng, n, log_scale) if spd else _general_uppers(rng, n)
        truth = rng.normal(scale=4.0, size=(n, 3))
        est = rng.normal(scale=4.0, size=(n, 3))
        _assert_rows_match(truth, est, upper)

    @pytest.mark.parametrize("kind", ["general", "spd"])
    def test_every_pivot_order(self, rng, kind):
        n = 4000
        upper = _general_uppers(rng, n) if kind == "general" else _spd_uppers(rng, n)
        orders = {_pivot_order(*row) for row in upper.tolist()}
        assert orders == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
        _assert_rows_match(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), upper)

    @pytest.mark.parametrize("P", [
        np.zeros((3, 3)),
        np.diag([2.0, 0.0, 1.0]),
        np.ones((3, 3)),
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([-0.0, -0.0, 1.0]),
    ])
    def test_singular_row_raises_as_nees_floats_does(self, rng, P):
        n = 2 * NEES_BLOCK + 1
        truth, est = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        for row in (0, NEES_BLOCK - 1, NEES_BLOCK, 2 * NEES_BLOCK):
            upper = _spd_uppers(rng, n)
            upper[row] = P[_UPPER]
            singular = _nees_floats_rows(truth, est, upper)[row]
            assert isinstance(singular, SingularCovarianceError)
            with pytest.raises(SingularCovarianceError) as raised:
                nees_rows(truth, est, upper)
            assert str(raised.value) == str(singular)

    def test_nan_entries(self, rng):
        """A NaN anywhere in a row gives NaN, as nees_floats does. Bits match
        except for a NaN's sign: with two NaN operands, IEEE 754 leaves open
        which one a sum or product returns."""
        n = 3 * NEES_BLOCK
        upper = _spd_uppers(rng, n)
        truth, est = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        for arr in (upper, truth, est):
            arr[rng.random(size=arr.shape) < 0.02] = np.nan
        expected = np.array(_nees_floats_rows(truth, est, upper), dtype=float)
        got = nees_rows(truth, est, upper)
        nan = np.isnan(expected)
        assert 0 < nan.sum() < n
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    def test_truth_equal_to_estimate(self, rng):
        n = NEES_BLOCK + 3
        truth = rng.normal(size=(n, 3))
        upper = np.concatenate([_spd_uppers(rng, n // 2), _general_uppers(rng, n - n // 2)])
        _assert_rows_match(truth, truth.copy(), upper)
        assert np.all(nees_rows(truth, truth, upper) == 0.0)

    def test_heading_differences_at_multiples_of_pi(self, rng):
        diffs = [math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi,
                 math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), 3.0 * math.pi, 1e3]
        n = len(diffs) * 40
        est = rng.normal(size=(n, 3))
        truth = rng.normal(size=(n, 3))
        truth[:, 2] = est[:, 2] + np.repeat(diffs, 40)
        _assert_rows_match(truth, est, _spd_uppers(rng, n))

    @pytest.mark.parametrize("n", [0, 1, NEES_BLOCK - 1, NEES_BLOCK, NEES_BLOCK + 1, 2 * NEES_BLOCK + 7])
    def test_rows_across_block_boundaries(self, rng, n):
        upper = _spd_uppers(rng, n) if n else np.empty((0, 6))
        _assert_rows_match(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), upper)


class TestEnsembleSeries:
    def test_stack_rejects_unequal_lengths(self):
        logs = [fake_log(nees_series=[1.0, 2.0]), fake_log(nees_series=[1.0])]
        with pytest.raises(ValueError, match="length"):
            _stack_nees(logs)

    def test_average_nees(self):
        logs = [fake_log(nees_series=[1.0, 3.0]), fake_log(nees_series=[3.0, 5.0])]
        np.testing.assert_allclose(average_nees(logs), [2.0, 4.0])

    def test_rmse_hand_example(self):
        logs = [fake_log(pos_err=[3.0, 0.0]), fake_log(pos_err=[4.0, 2.0])]
        np.testing.assert_allclose(rmse(logs), [math.sqrt(12.5), math.sqrt(2.0)])

    def test_in_band_fraction_inclusive(self):
        series = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
        assert in_band_fraction(series, 1.0, 3.0) == pytest.approx(0.6)
        assert in_band_fraction(series, 0.0, 10.0) == 1.0
        assert in_band_fraction(series, 10.0, 20.0) == 0.0


class TestRegLowerGamma:
    def test_matches_scipy_over_grid(self):
        for a in (0.5, 1.0, 1.5, 4.0, 10.0, 30.0, 75.0):
            for x in (0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 120.0):
                assert _reg_lower_gamma(a, x) == pytest.approx(
                    scipy.special.gammainc(a, x), abs=1e-12
                )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            _reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            _reg_lower_gamma(1.0, -0.5)


class TestChi2Ppf:
    def test_matches_scipy_over_grid(self):
        for dof in (1, 2, 3, 5, 10, 60, 150):
            for p in (0.01, 0.025, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99):
                assert chi2_ppf(p, dof) == pytest.approx(
                    scipy.stats.chi2.ppf(p, dof), rel=1e-9
                )

    def test_median_of_two_dof_is_closed_form(self):
        # dof 2 is exponential(1/2): median at 2 ln 2
        assert chi2_ppf(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_invalid_arguments(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                chi2_ppf(p, 3)
        with pytest.raises(ValueError):
            chi2_ppf(0.5, 0)


class TestChi2Band:
    def test_reference_band(self):
        """Criterion: the 95% band for 20 runs of a 3-state filter."""
        lo, hi = chi2_band(20, 3, 0.95)
        assert lo == pytest.approx(2.02, abs=0.01)
        assert hi == pytest.approx(4.17, abs=0.01)

    def test_matches_scipy_construction(self):
        for n_runs, dim, conf in ((20, 3, 0.95), (50, 3, 0.95), (5, 2, 0.9)):
            lo, hi = chi2_band(n_runs, dim, conf)
            dof = n_runs * dim
            assert lo == pytest.approx(scipy.stats.chi2.ppf(0.5 * (1 - conf), dof) / n_runs, rel=1e-9)
            assert hi == pytest.approx(scipy.stats.chi2.ppf(0.5 * (1 + conf), dof) / n_runs, rel=1e-9)

    def test_band_widens_with_confidence(self):
        lo90, hi90 = chi2_band(20, 3, 0.90)
        lo99, hi99 = chi2_band(20, 3, 0.99)
        assert lo99 < lo90 < hi90 < hi99

    def test_band_tightens_with_runs(self):
        lo_small, hi_small = chi2_band(5, 3, 0.95)
        lo_big, hi_big = chi2_band(200, 3, 0.95)
        assert hi_big - lo_big < hi_small - lo_small
        # both bands straddle the expected NEES of a consistent filter
        assert lo_big < 3.0 < hi_big

    def test_computed_once_per_argument_tuple(self):
        chi2_band.cache_clear()
        band = chi2_band(20, 3, 0.95)
        assert chi2_band(20, 3, 0.95) is band
        assert chi2_band.cache_info().hits == 1
        assert band == chi2_band.__wrapped__(20, 3, 0.95)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi2_band(0, 3, 0.95)
        with pytest.raises(ValueError):
            chi2_band(20, 0, 0.95)
        with pytest.raises(ValueError):
            chi2_band(20, 3, 1.0)


class TestSelfCalibration:
    def test_chi2_samples_agree_with_band(self, rng):
        """Average of n chi-square(3) draws should land inside the n-run band
        at roughly the stated confidence."""
        n_runs, n_steps = 25, 400
        draws = rng.chisquare(STATE_DIM, size=(n_runs, n_steps))
        avg = draws.mean(axis=0)
        lo, hi = chi2_band(n_runs, STATE_DIM, 0.95)
        frac = in_band_fraction(avg, lo, hi)
        assert 0.85 <= frac <= 1.0
        assert abs(float(avg.mean()) - STATE_DIM) < 0.15

    def test_consistent_filter_ensemble_mostly_in_band(self, tiny_scenario):
        """End to end: a correctly specified filter's average NEES should sit
        inside its consistency band most of the time."""
        logs = run_monte_carlo(tiny_scenario, "ekf", n_runs=12, base_seed=100)
        report = build_report(logs)
        assert report.in_band > 0.5
        assert 1.0 < float(report.avg_nees.mean()) < 6.0


class TestBuildReport:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            build_report([])

    def test_mixed_variants_rejected(self):
        logs = [fake_log(variant="ekf"), fake_log(variant="anfekf-r")]
        with pytest.raises(ValueError, match="mixed"):
            build_report(logs)

    def test_report_fields(self):
        logs = [
            fake_log(nees_series=[2.0, 3.0], pos_err=[0.1, 0.2]),
            fake_log(nees_series=[4.0, 3.0], pos_err=[0.3, 0.2]),
        ]
        report = build_report(logs, confidence=0.95)
        assert report.variant == "ekf"
        assert report.n_runs == 2
        np.testing.assert_allclose(report.avg_nees, [3.0, 3.0])
        assert report.band == chi2_band(2, STATE_DIM, 0.95)
        assert report.in_band == 1.0  # avg 3.0 is dead center for 3 dof
        assert len(report.run_summaries) == 2

    def test_time_avg_rmse_pos_property(self):
        report = EnsembleReport(
            variant="ekf",
            n_runs=1,
            t=np.array([1.0, 2.0]),
            rmse_pos=np.array([0.2, 0.4]),
            avg_nees=np.array([3.0, 3.0]),
            band=(2.0, 4.0),
            in_band=1.0,
            run_summaries=[],
        )
        assert report.time_avg_rmse_pos == pytest.approx(0.3)
