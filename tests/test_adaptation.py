"""Covariance-matching tests: window, mismatch, fuzzy rewrites, training loop."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fuzzyloc import adaptation, anfis, models
from fuzzyloc.adaptation import (
    DEFAULT_ETA,
    DEFAULT_LEAK,
    DEFAULT_R_FLOOR,
    DEFAULT_WINDOW,
    Q_CEILING_RATIO,
    Q_FLOOR_RATIO,
    Q_SINGLETON_RATIO,
    SCALE_REL_FLOOR,
    AdaptationConfig,
    CovarianceAdapter,
    StepTrace,
    adapt_q,
    adapt_r,
    leak_toward,
    make_additive_net,
    make_multiplicative_net,
    q_sensitivity_floats,
    saturated_forward,
    train_adapters,
)
from fuzzyloc.anfis import DEFAULT_DELTA_FLOOR, AnfisNet
from fuzzyloc.ekf import CovPair, InnovationRecord
from fuzzyloc.models import NoiseSpec
from fuzzyloc.simulator import run_once

DEFAULT_COV = CovPair((0.09, 0.0027), (0.04, 0.001))

#: A control Jacobian of zeros, as the six floats after_update takes.
ZERO_G = (0.0,) * 6


def make_record(residual, S, accepted=True, H=None, landmark_id=1, timestep=0):
    return InnovationRecord(
        residual=np.asarray(residual, dtype=float),
        S=np.asarray(S, dtype=float),
        landmark_id=landmark_id,
        timestep=timestep,
        accepted=accepted,
        H=None if H is None else np.asarray(H, dtype=float),
    )


def push(adapter, residual, S=np.eye(2)):
    """One scan of one accepted record; returns the adapter's StepTrace."""
    return adapter.after_update([make_record(residual, S)], ZERO_G, DEFAULT_COV)[1]


def copy_rows(net: AnfisNet) -> list[list[float]]:
    return [list(p) for p in net.params]


def hexes(row) -> list[str]:
    return [float(v).hex() for v in row]


class TestResidualWindow:
    """The adapter's (window, 2) residual array, oldest row first."""

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError, match="window"):
            CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=1))

    def test_fills_and_evicts(self):
        adapter = CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=3, eta=0.0))
        assert len(adapter.window) == 0
        for k in range(5):
            push(adapter, [float(k), 0.0])
        assert len(adapter.window) == 3
        np.testing.assert_allclose([r[0] for r in adapter.window], [2.0, 3.0, 4.0])

    def test_push_copies(self):
        adapter = CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=2, eta=0.0))
        r = np.array([1.0, 2.0])
        push(adapter, r)
        r[0] = 99.0
        assert adapter.window[-1][0] == 1.0


class TestEstimateActualCov:
    """CovarianceAdapter.actual_cov_floats, and no mismatch until the window is full."""

    def test_warmup_error_until_full(self):
        adapter = CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=4, eta=0.0))
        for _ in range(3):
            trace = push(adapter, [1.0, 0.0])
            assert not trace.active and len(adapter.window) < 4
        assert push(adapter, [1.0, 0.0]).active

    def test_matches_brute_force(self, rng):
        """Criterion: windowed estimate equals outer-product recomputation."""
        for _ in range(50):
            n = int(rng.integers(2, 30))
            adapter = CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=n, eta=0.0))
            residuals = rng.normal(size=(n, 2))
            for r in residuals:
                push(adapter, r)
            brute = sum(np.outer(r, r) for r in residuals) / n
            np.testing.assert_allclose(adapter.actual_cov_floats(), brute[np.triu_indices(2)], atol=1e-12)

    def test_no_mean_subtraction(self):
        # a constant residual stream must read as its full outer product,
        # not as zero variance
        adapter = CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=3, eta=0.0))
        for _ in range(3):
            push(adapter, [2.0, -1.0])
        np.testing.assert_allclose(adapter.actual_cov_floats(), (4.0, -2.0, 1.0), atol=1e-15)


class TestComputeDom:
    """The mismatch S - C_hat and its change, as the adapter's StepTrace reports them."""

    def _adapter(self):
        # residuals (1, 1), (1, -1), (1, 1), ... keep C_hat = I in a window of two
        adapter = CovarianceAdapter("r", DEFAULT_COV, AdaptationConfig(window=2, eta=0.0))
        push(adapter, [1.0, 1.0], S=np.diag([4.0, 1.0]))
        return adapter

    def test_first_delta_is_zero(self):
        trace = push(self._adapter(), [1.0, -1.0], S=np.diag([4.0, 1.0]))
        assert trace.dom_diag == (3.0, 0.0)
        assert trace.delta_dom_diag == (0.0, 0.0)

    def test_delta_tracks_change(self):
        adapter = self._adapter()
        push(adapter, [1.0, -1.0], S=np.diag([4.0, 1.0]))
        trace = push(adapter, [1.0, 1.0], S=np.diag([3.0, 1.0]))
        assert trace.delta_dom_diag == (-1.0, 0.0)


class TestNetBuilders:
    def test_additive_net_layout(self):
        row = make_additive_net(input_scale=2.0, output_scale=0.1)
        assert len(row) == 27
        assert row[0:5] == [-4.0, -2.0, 0.0, 2.0, 4.0]
        assert row[10:15] == [2.0] * 5
        assert row[5:10] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert row[15:20] == [1.0] * 5
        np.testing.assert_allclose(row[20:], 0.1 * np.arange(-3, 4))

    def test_multiplicative_net_is_geometric_with_unit_center(self):
        row = make_multiplicative_net(1.0, 1.0)
        np.testing.assert_allclose(row[20:], 1.5 ** np.arange(-3.0, 4.0))
        assert row[23] == 1.0

    def test_rows_equal_the_numpy_construction_bitwise(self, rng):
        # the builders take 1.5 ** v per level where the numpy construction
        # took 1.5 ** np.arange(-3.0, 4.0), which a SIMD power may round differently
        for _ in range(200):
            s1, s2, c = np.exp(rng.uniform(-12.0, 6.0, 3)).tolist()
            legacy = helpers._legacy_spread_net(s1, 0.5 * s1, c * np.arange(-3.0, 4.0),
                                                DEFAULT_ETA, DEFAULT_DELTA_FLOOR)
            assert hexes(make_additive_net(s1, c)) == hexes(helpers.legacy_params(legacy))
            legacy = helpers._legacy_spread_net(s1, s2, Q_SINGLETON_RATIO ** np.arange(-3.0, 4.0),
                                                DEFAULT_ETA, DEFAULT_DELTA_FLOOR)
            assert hexes(make_multiplicative_net(s1, s2)) == hexes(helpers.legacy_params(legacy))


class TestLeakToward:
    def test_zero_rate_noop(self, rng):
        net = helpers.random_net(rng, k=2)
        anchor = (np.array(net.params) + 1.0).tolist()
        before = copy_rows(net)
        leak_toward(net, anchor, 0.0)
        assert net.params == before

    def test_unit_rate_snaps_to_anchor(self, rng):
        net = helpers.random_net(rng)
        anchor = helpers.random_net(rng).params
        leak_toward(net, anchor, 1.0)
        np.testing.assert_allclose(net.params[0], anchor[0], atol=1e-15)

    def test_partial_rate_interpolates(self, rng):
        net = helpers.random_net(rng, k=3)
        start = np.array(net.params)
        leak_toward(net, (start + 2.0).tolist(), 0.25)
        np.testing.assert_allclose(net.params, start + 0.5, atol=1e-12)

    def test_width_floor_respected(self):
        row = make_additive_net(1.0, 0.1)
        net = AnfisNet([row])
        net.params[0][10:15] = [DEFAULT_DELTA_FLOOR] * 5
        bad_anchor = [row[:10] + [0.0] * 5 + row[15:]]  # anchor widths of zero must not pull below floor
        leak_toward(net, bad_anchor, 0.9)
        assert min(net.params[0][10:15]) >= DEFAULT_DELTA_FLOOR


def r_rewrite(dom_diag, R, scale=1.0, c=0.05, r_floor=1e-8):
    """The R half of a scan: two stacked additive nets fed (dom_ii, 0), then adapt_r."""
    net = AnfisNet([make_additive_net(scale, c), make_additive_net(scale, c)])
    out, traces = saturated_forward(net, [(dom_diag[0], 0.0), (dom_diag[1], 0.0)])
    return np.diag(adapt_r(R[0, 0], R[1, 1], out[0], out[1], r_floor)), traces


class TestAdaptR:
    def test_zero_mismatch_zero_change(self):
        R = np.diag([0.5, 0.1])
        R_new, trace = r_rewrite((0.0, 0.0), R)
        # the rule table is antisymmetric around the center and the initial
        # singletons mirror it, so the zero-input response is exactly zero
        np.testing.assert_allclose(R_new, R, atol=1e-14)
        assert len(trace) == 2

    def test_positive_mismatch_shrinks_r(self):
        R = np.diag([0.5, 0.1])
        R_new, _ = r_rewrite((2.0, 2.0), R)
        assert R_new[0, 0] < R[0, 0]
        assert R_new[1, 1] < R[1, 1]

    def test_negative_mismatch_grows_r(self):
        R = np.diag([0.5, 0.1])
        R_new, _ = r_rewrite((-2.0, -2.0), R)
        assert R_new[0, 0] > R[0, 0]
        assert R_new[1, 1] > R[1, 1]

    def test_channels_independent(self):
        R = np.diag([0.5, 0.1])
        R_new, _ = r_rewrite((2.0, 0.0), R)
        assert R_new[0, 0] < R[0, 0]
        assert R_new[1, 1] == pytest.approx(R[1, 1], abs=1e-14)

    def test_floor_clamps_exactly(self):
        R = np.diag([1e-8, 1e-8])  # any negative correction hits the floor
        R_new, _ = r_rewrite((3.0, 3.0), R, c=0.05)
        assert R_new[0, 0] == 1e-8
        assert R_new[1, 1] == 1e-8

    def test_saturated_forward_handles_huge_inputs(self):
        net = AnfisNet([make_additive_net(1.0, 0.05)])
        out, _ = saturated_forward(net, [(1e9, -1e9)])
        assert math.isfinite(out[0])
        ref, _ = saturated_forward(net, [(50.0, -50.0)])
        assert out[0] == pytest.approx(ref[0], rel=1e-9)


def narrow_q_net(ratio=1.5):
    """Q net whose membership widths are a tenth of the spacing, so the
    center rule dominates completely at zero input."""
    centers = [-2.0, -1.0, 0.0, 1.0, 2.0]
    return AnfisNet([centers + centers + [0.1] * 10 + (ratio ** np.arange(-3.0, 4.0)).tolist()])


def q_rewrite(dom_diag, Q, q_floor=(1e-6, 1e-6), q_ceiling=(1e6, 1e6)):
    """The Q half of a scan: the narrow Q net fed (dom_00, dom_11), then adapt_q;
    returns the new Q and the net's output, the factor."""
    out, _ = saturated_forward(narrow_q_net(), [dom_diag])
    return np.diag(adapt_q(Q[0, 0], Q[1, 1], out[0], q_floor, q_ceiling)), out[0]


class TestAdaptQ:
    def test_zero_mismatch_factor_near_one(self):
        # note: with default (wide) memberships the factor at zero input sits
        # slightly above 1 because the geometric singletons are convex; the
        # dominant-rule construction isolates the center consequent
        Q = np.diag([0.09, 0.0027])
        Q_new, factor = q_rewrite((0.0, 0.0), Q)
        np.testing.assert_allclose(np.diag(Q_new), np.diag(Q), rtol=1e-3)
        assert factor == pytest.approx(1.0, rel=1e-3)

    def test_positive_mismatch_shrinks_q(self):
        Q = np.diag([1.0, 1.0])
        Q_new, factor = q_rewrite((2.0, 2.0), Q)
        assert factor == pytest.approx(1.5 ** -3, rel=1e-3)
        assert Q_new[0, 0] < Q[0, 0]

    def test_negative_mismatch_grows_q(self):
        Q = np.diag([1.0, 1.0])
        Q_new, factor = q_rewrite((-2.0, -2.0), Q)
        assert factor == pytest.approx(1.5 ** 3, rel=1e-3)
        assert Q_new[0, 0] > Q[0, 0]

    def test_shared_factor_scales_both_channels(self):
        Q = np.diag([0.5, 0.002])
        Q_new, factor = q_rewrite((-1.0, -1.0), Q)
        assert Q_new[0, 0] / Q[0, 0] == pytest.approx(Q_new[1, 1] / Q[1, 1], rel=1e-12)
        assert Q_new[0, 0] / Q[0, 0] == pytest.approx(factor, rel=1e-12)

    def test_floor_and_ceiling_clamp_exactly(self):
        Q = np.diag([1.0, 1.0])
        Q_new, _ = q_rewrite((2.0, 2.0), Q, q_floor=(0.9, 0.9), q_ceiling=(1.1, 1.1))
        assert Q_new[0, 0] == 0.9 and Q_new[1, 1] == 0.9
        Q_new, _ = q_rewrite((-2.0, -2.0), Q, q_floor=(0.9, 0.9), q_ceiling=(1.1, 1.1))
        assert Q_new[0, 0] == 1.1 and Q_new[1, 1] == 1.1


#: Entries of drawn H rows and control Jacobians.
_ENTRY = st.floats(-10.0, 10.0, allow_nan=False)


def _range_bearing_cov_diag(h00, h01, h10, h11, m00, m01, m02, m11, m12, m22):
    """The diagonal of H M H^T as the former models.range_bearing_cov_diag_floats
    computed it, for H's (x, y) columns and M's upper triangle."""
    a0, a1 = h00 * m00 + h01 * m01, h00 * m01 + h01 * m11
    b0 = h10 * m00 + h11 * m01 - m02
    b1 = h10 * m01 + h11 * m11 - m12
    b2 = h10 * m02 + h11 * m12 - m22
    return a0 * h00 + a1 * h01, b0 * h10 + b1 * h11 - b2


def q_sensitivity(records, G, Q):
    """q_sensitivity_floats for a 3x2 G and a diagonal 2x2 Q."""
    return q_sensitivity_floats(records, models.control_cov_floats(*G.ravel().tolist(), *np.diag(Q).tolist()))


class TestQFactorSensitivity:
    def test_matches_manual_average(self):
        G = np.array([[0.02, 0.0], [0.0, 0.07], [0.01, 0.05]])
        Q = np.diag([0.09, 0.0027])
        H1 = np.array([[-1.0, 0.0, 0.0], [0.0, -0.1, -1.0]])
        H2 = np.array([[0.5, -0.5, 0.0], [0.2, 0.1, -1.0]])
        recs = [
            make_record([0.1, 0.0], np.eye(2), H=H1),
            make_record([0.1, 0.0], np.eye(2), H=H2),
            make_record([9.9, 9.9], np.eye(2), accepted=False, H=H1),
            make_record([0.1, 0.0], np.eye(2), H=None),
        ]
        GQG = G @ Q @ G.T
        expected = 0.5 * (np.diag(H1 @ GQG @ H1.T) + np.diag(H2 @ GQG @ H2.T))
        np.testing.assert_allclose(q_sensitivity(recs, G, Q), expected, rtol=1e-12)

    def test_no_usable_records_gives_zero(self):
        G = np.zeros((3, 2))
        assert np.all(np.array(q_sensitivity([], G, np.eye(2))) == 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        G=st.lists(_ENTRY, min_size=6, max_size=6),
        q=st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0)),
        rows=st.lists(st.tuples(st.lists(_ENTRY, min_size=4, max_size=4), st.booleans()),
                      max_size=6),
    )
    def test_matches_the_diagonal_kernel_it_replaced(self, G, q, rows):
        q00, q11 = q
        Q = np.diag(q)
        records = [make_record([0.0, 0.0], np.eye(2), accepted=accepted,
                               H=[[h00, h01, 0.0], [h10, h11, -1.0]])
                   for (h00, h01, h10, h11), accepted in rows]
        gqg = models.control_cov_floats(*G, q00, q11)
        s0 = s1 = 0.0
        n = 0
        for (h00, h01, h10, h11), accepted in rows:
            if accepted:
                d0, d1 = _range_bearing_cov_diag(h00, h01, h10, h11, *gqg)
                s0 += d0
                s1 += d1
                n += 1
        expected = (s0 / max(n, 1), s1 / max(n, 1))
        got = q_sensitivity_floats(records, gqg)
        assert [float(v).hex() for v in got] == [v.hex() for v in expected]
        # the same quadratic forms in numpy, within rounding of their absolute terms
        G_arr = np.array(G).reshape(3, 2)
        ref = helpers.numpy_q_factor_sensitivity(records, G_arr, Q)
        abs_records = [make_record([0.0, 0.0], np.eye(2), accepted=rec.accepted, H=np.abs(rec.H))
                       for rec in records]
        bound = helpers.numpy_q_factor_sensitivity(abs_records, np.abs(G_arr), np.abs(Q))
        assert np.all(np.abs(np.array(got) - ref) <= 1e-12 * bound)


class TestGoldenTrajectory:
    """Bitwise pin of the adapter numerics: 20 rounds of saturated forward,
    train step and leak, recorded as float.hex of the 27 parameters. The pins
    are the float kernels'; each lies within 4e-14 relative of the value the
    numpy stack gave before them."""

    ADDITIVE = [
        "-0x1.99a9cd7d33f4fp+0", "-0x1.98fda6bc5e156p-1", "-0x1.03e0af256881ep-5",
        "0x1.93d66a4af4ae3p-1", "0x1.9639ef4ac44c7p+0", "-0x1.9c54058d99861p-1",
        "-0x1.986561a2fe9b4p-2", "-0x1.6a0ba1b941f84p-7", "0x1.4ecbd0c040075p-2",
        "0x1.a0c86e55ddeeep-1", "0x1.9b26413e2fe19p-1", "0x1.9245c504f763dp-1",
        "0x1.808a197d3fcc2p-1", "0x1.8dffd25bc91d7p-1", "0x1.a255ecb9721e2p-1",
        "0x1.971477ee3b109p-2", "0x1.a4744549bd3b1p-2", "0x1.8b636e96f34bep-2",
        "0x1.4a4d155f2c4a3p-2", "0x1.942b7825bafe5p-2", "-0x1.a5123e41d45acp+0",
        "-0x1.4300075504f67p-3", "-0x1.9789c671852c2p-4", "-0x1.d9a228217d21bp-5",
        "0x1.a6e265ce66b67p-4", "0x1.21e77ea3f9fa5p-3", "0x1.8e6cc211d5456p-2",
    ]
    MULTIPLICATIVE = [
        "-0x1.32fd199b3d1f8p+0", "-0x1.2eb1a2846c0bcp-1", "0x1.ab42a75b487fdp-10",
        "0x1.315b7425189afp-1", "0x1.3314845e7c26bp+0", "-0x1.9dadeb631e054p-1",
        "-0x1.8b8d9f1ec4b4fp-2", "0x1.8c20dc1e8e09fp-6", "0x1.a4313cb7efff4p-2",
        "0x1.a5f5c8682a6d3p-1", "0x1.363440e47c4a7p-1", "0x1.2ca4360972363p-1",
        "0x1.2afb73de66f34p-1", "0x1.2d03d19d4f759p-1", "0x1.358b7653d735ep-1",
        "0x1.991a4f1b2a0c7p-2", "0x1.ba951bc85f52dp-2", "0x1.b0918d5672622p-2",
        "0x1.a1dbb1955b8b2p-2", "0x1.76844852a35eap-2", "-0x1.2c0a5a05dea35p-3",
        "0x1.b73fbbbd99e07p-2", "0x1.4d8f163f913e3p-1", "0x1.fb7e2c54cd24bp-1",
        "0x1.86d82db491a6dp+0", "0x1.2229a1f3d0b44p+1", "0x1.bc6639e619651p+1",
    ]

    @staticmethod
    def _trajectory(row, ds):
        net = AnfisNet([row], eta=0.05)
        anchor = [row]
        for k in range(20):
            in1 = 2.5 * math.sin(0.7 * k + 0.3) + (40.0 if k == 11 else 0.0)
            in2 = 1.3 * math.cos(1.1 * k) - (1e6 if k == 6 else 0.0)
            out, traces = saturated_forward(net, [(in1, in2)])
            net.train_step(traces, [in1 - 0.2 * out[0]], [ds])
            leak_toward(net, anchor, 0.05)
        return hexes(net.params[0])

    def test_additive_net_bitwise(self):
        assert self._trajectory(make_additive_net(0.8, 0.05), 1.0) == self.ADDITIVE

    def test_multiplicative_net_bitwise(self):
        assert self._trajectory(make_multiplicative_net(0.6, 0.4), 0.3) == self.MULTIPLICATIVE


class TestStackOracle:
    """A stack of k nets against k one-net stacks, bit for bit, and against
    k nets of helpers.LegacyAnfisNet, the numpy code before the kernels,
    within rounding."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_saturated_forward_train_and_leak(self, rng, k):
        net = helpers.random_net(rng, k=k)
        net.eta = 0.1
        olds = [helpers.LegacyAnfisNet(np.reshape(p[:10], (2, 5)), np.reshape(p[10:20], (2, 5)), p[20:], eta=0.1)
                for p in net.params]
        anchor = copy_rows(net)
        singles = [AnfisNet([row], eta=0.1) for row in anchor]
        for step in range(400):
            inputs = rng.normal(scale=3.0, size=(k, 2))
            if step % 37 == 0:
                inputs[0, 0] = 1e6  # saturated
            e, ds = rng.normal(size=k), rng.normal(size=k)
            if step % 11 == 0:
                ds[-1] = 0.0  # a zero step leaves its net untouched
            out, traces = saturated_forward(net, inputs.tolist())
            net.train_step(traces, e.tolist(), ds.tolist())
            leak_toward(net, anchor, 0.05)
            for n, old in enumerate(olds):
                single_out, single_traces = saturated_forward(singles[n], [inputs[n].tolist()])
                assert single_out[0].hex() == out[n].hex(), (step, n)
                singles[n].train_step(single_traces, [float(e[n])], [float(ds[n])])
                leak_toward(singles[n], [anchor[n]], 0.05)
                old_out, old_trace = helpers.legacy_saturated_forward(old, *inputs[n])
                assert abs(out[n] - old_out) <= 1e-9 * np.abs(old.singletons).max(), (step, n)
                old.train_step(old_trace, float(e[n]), float(ds[n]))
                helpers.legacy_leak_toward(old, anchor[n], 0.05)
        assert net.params == [single.params[0] for single in singles]
        for n, old in enumerate(olds):
            np.testing.assert_allclose(net.params[n], helpers.legacy_params(old), rtol=1e-9)


class TestStackCounts:
    """Each adapter step that takes one row, trace or anchor per net rejects
    another count instead of dropping or ignoring nets."""

    def test_leak_toward_needs_one_anchor_row_per_net(self, rng):
        net = helpers.random_net(rng, k=3)
        before = copy_rows(net)
        with pytest.raises(ValueError, match=r"one anchor row per net \(3\), got 1$"):
            leak_toward(net, before[:1], DEFAULT_LEAK)
        assert net.params == before

    def test_saturated_forward_needs_one_row_per_net(self, rng):
        net = helpers.random_net(rng, k=2)
        for rows in ([(0.0, 0.0)], [(0.0, 0.0)] * 3):
            with pytest.raises(ValueError, match=rf"one input row per net \(2\), got {len(rows)}$"):
                saturated_forward(net, rows)

    def test_train_adapters_needs_one_trace_per_net(self, rng):
        net = helpers.random_net(rng, k=3)
        before = copy_rows(net)
        _, traces = net.forward([(0.5, -0.5)] * 3)
        with pytest.raises(ValueError, match=r"per net \(3\), got 2, 3 and 3$"):
            train_adapters(net, traces[:2], (1.0, -1.0), q_sensitivity=(1.0, 1.0))
        assert net.params == before


class TestTrainAdapters:
    def test_r_training_moves_output_against_error(self):
        net = AnfisNet([make_additive_net(1.0, 0.05), make_additive_net(1.0, 0.05)], eta=0.05)
        inputs = [(1.5, 0.0), (-1.5, 0.0)]
        before, traces = saturated_forward(net, inputs)
        train_adapters(net, traces, (1.5, -1.5))
        after, _ = saturated_forward(net, inputs)
        # positive error trains the response downward, negative upward
        assert after[0] < before[0]
        assert after[1] > before[1]

    def test_q_training_requires_sensitivity(self):
        net = narrow_q_net()
        _, traces = saturated_forward(net, [(1.0, 1.0)])
        with pytest.raises(ValueError, match="sensitivity"):
            train_adapters(net, traces, (1.0, 1.0))

    def test_q_training_with_sensitivity_moves_params(self):
        net = narrow_q_net()
        net.eta = 0.05
        before = copy_rows(net)
        _, traces = saturated_forward(net, [(1.0, 1.0)])
        train_adapters(net, traces, (1.0, 1.0), q_sensitivity=(0.5, 0.5))
        assert net.params != before

    def test_unknown_adapter_type_rejected(self, rng):
        with pytest.raises(TypeError):
            train_adapters(object(), None, (0.0, 0.0))
        # a stack whose size is no mode's
        net = helpers.random_net(rng, k=4)
        _, traces = net.forward([(0.0, 0.0)] * 4)
        with pytest.raises(ValueError, match="no adaptation mode"):
            train_adapters(net, traces, (0.0, 0.0), q_sensitivity=(1.0, 1.0))


class TestAdaptationConfig:
    def test_defaults(self):
        cfg = AdaptationConfig()
        assert cfg.window == DEFAULT_WINDOW == 15
        assert cfg.eta == DEFAULT_ETA == 0.01
        assert cfg.r_floor == DEFAULT_R_FLOOR == 1e-8
        assert cfg.q_floor is None
        assert DEFAULT_LEAK == 0.05
        assert SCALE_REL_FLOOR == 1.0
        assert Q_FLOOR_RATIO == 0.01
        assert Q_CEILING_RATIO == 100.0

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("window", 1), ("window", 15.0), ("window", sys.maxsize + 1),
            ("eta", -0.01), ("eta", math.nan), ("eta", math.inf),
            ("r_floor", math.nan), ("r_floor", 0.0), ("r_floor", -1e-8), ("r_floor", math.inf),
            ("q_floor", math.nan), ("q_floor", 0.0), ("q_floor", math.inf),
            # bools used to be accepted, and strings raised TypeError
            ("eta", True), ("r_floor", True), ("q_floor", True),
            ("eta", "0.1"), ("r_floor", "1e-8"), ("q_floor", "1"),
        ],
    )
    def test_invalid_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            AdaptationConfig(**{field: bad})

    def test_boundary_values_accepted(self):
        AdaptationConfig(window=2, eta=0.0)
        AdaptationConfig(q_floor=1e-12)

    def test_window_at_deque_bound_runs(self, tiny_scenario):
        # sys.maxsize is the largest maxlen a deque takes, so the window's bound
        cfg = AdaptationConfig(window=sys.maxsize)
        log = run_once(tiny_scenario, "anfekf-r", seed=0, adaptation=cfg)
        assert np.isfinite(log.r_diag).all()

    def test_nan_floor_rejected_before_a_run(self, tiny_scenario):
        # max(x, nan) returns x, so a NaN r_floor used to vanish and let R go negative
        with pytest.raises(ValueError, match="r_floor"):
            run_once(tiny_scenario, "anfekf-r", adaptation=AdaptationConfig(r_floor=math.nan))


class TestCovarianceAdapter:
    def _cov(self, r=(0.04, 0.001)):
        return CovPair((0.09, 0.0027), r)

    def _tick(self, adapter, cov, residual, accepted=True, S=None):
        S = np.diag(cov.R) if S is None else S
        rec = make_record(residual, S, accepted=accepted,
                          H=np.array([[-1.0, 0.0, 0.0], [0.0, -0.1, -1.0]]))
        return adapter.after_update([rec], ZERO_G, cov)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CovarianceAdapter("x", self._cov())

    def test_inactive_until_window_full(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=4))
        for _ in range(3):
            cov_out, trace = self._tick(adapter, cov, [0.1, 0.01])
            assert not trace.active
            assert np.all(np.isnan(trace.dom_diag))
            np.testing.assert_array_equal(cov_out.R, cov.R)
        _, trace = self._tick(adapter, cov, [0.1, 0.01])
        assert trace.active

    def test_no_records_is_inactive(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=2))
        cov_out, trace = adapter.after_update([], ZERO_G, cov)
        assert not trace.active
        assert cov_out is cov

    def test_rejected_tick_suspends_but_window_grows(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=4))
        self._tick(adapter, cov, [0.1, 0.01])
        before = len(adapter.window)
        cov_out, trace = self._tick(adapter, cov, [9.0, 9.0], accepted=False)
        assert len(adapter.window) == before + 1
        assert not trace.active
        np.testing.assert_array_equal(cov_out.R, cov.R)

    def test_all_residuals_enter_window(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=6))
        recs = [
            make_record([0.1, 0.01], np.diag(cov.R), accepted=True),
            make_record([5.0, 1.0], np.diag(cov.R), accepted=False),
        ]
        adapter.after_update(recs, ZERO_G, cov)
        assert len(adapter.window) == 2

    def test_zero_eta_never_builds_or_rewrites(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=3, eta=0.0))
        for _ in range(10):
            cov_out, trace = self._tick(adapter, cov, [0.3, 0.02])
            np.testing.assert_array_equal(cov_out.R, cov.R)
            np.testing.assert_array_equal(cov_out.Q, cov.Q)
        assert trace.active  # mismatch is still evaluated and logged
        assert adapter.net is None

    def test_zero_eta_collects_no_scale_samples(self):
        # the samples only size the nets, which are never built at eta=0
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(eta=0.0))
        for _ in range(100):
            self._tick(adapter, cov, [0.3, 0.02])
        assert adapter._s_samples == []

    def test_builds_nets_with_anchors_on_first_full_tick(self):
        cov = self._cov()
        adapter = CovarianceAdapter("rq", cov, AdaptationConfig(window=3))
        for _ in range(3):
            cov, trace = self._tick(adapter, cov, [0.25, 0.02])
        assert trace.active
        assert len(adapter.net) == 3  # two R nets, then the Q net
        assert np.shape(adapter._anchor) == (3, 27)

    def test_r_mode_leaves_q_untouched(self):
        cov0 = self._cov()
        cov = cov0
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=3))
        for _ in range(8):
            cov, _ = self._tick(adapter, cov, [0.5, 0.05])
        np.testing.assert_array_equal(cov.Q, cov0.Q)
        assert len(adapter.net) == 2

    def test_input_scale_floor(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov)
        samples = np.array([3.0, 3.0, 3.0])
        assert adapter._input_scale(samples) == SCALE_REL_FLOOR * 3.0  # zero spread hits the floor
        wild = np.array([0.0, 10.0, -10.0])
        assert adapter._input_scale(wild) == pytest.approx(float(np.std(wild)))

    def test_leak_applies_on_suspended_ticks(self):
        cov = self._cov()
        adapter = CovarianceAdapter("r", cov, AdaptationConfig(window=3))
        for _ in range(3):
            cov, _ = self._tick(adapter, cov, [0.25, 0.02])
        anchor_w = np.array(adapter._anchor[0][20:])
        adapter.net.params[0][20:] = (anchor_w + 1.0).tolist()  # simulate wound-up consequents
        self._tick(adapter, cov, [9.0, 9.0], accepted=False)
        np.testing.assert_allclose(adapter.net.params[0][20:], anchor_w + 1.0 - DEFAULT_LEAK, atol=1e-12)

    def test_r_floor_never_violated_under_pressure(self):
        cov = self._cov(r=(0.04, 0.001))
        cfg = AdaptationConfig(window=4, eta=0.05, r_floor=1e-8)
        adapter = CovarianceAdapter("r", cov, cfg)
        rng = np.random.default_rng(7)
        for _ in range(300):
            # actual residuals far smaller than R claims: constant shrink push
            cov, _ = self._tick(adapter, cov, rng.normal(scale=1e-4, size=2))
            assert min(cov.R) >= 1e-8

    def test_q_clamps_never_violated_under_pressure(self):
        cov = self._cov()
        q0 = np.array(cov.Q)
        cfg = AdaptationConfig(window=4, eta=0.05)
        adapter = CovarianceAdapter("q", cov, cfg)
        rng = np.random.default_rng(8)
        for k in range(300):
            scale = 1e-4 if k < 150 else 10.0  # shrink pressure, then grow
            cov, _ = self._tick(adapter, cov, rng.normal(scale=scale, size=2))
            assert np.all(np.array(cov.Q) >= 0.01 * q0 - 1e-15)
            assert np.all(np.array(cov.Q) <= 100.0 * q0 + 1e-12)

    @pytest.mark.parametrize("mode", ["q", "rq"])
    def test_q_floor_above_ceiling_rejected(self, mode):
        # the ceiling of Q22 = 0.0027 is 100 x 0.0027 = 0.27
        cov = self._cov()
        with pytest.raises(ValueError, match="q_floor"):
            CovarianceAdapter(mode, cov, AdaptationConfig(q_floor=1.0))
        CovarianceAdapter(mode, cov, AdaptationConfig(q_floor=100.0 * 0.0027))
        CovarianceAdapter("r", cov, AdaptationConfig(q_floor=1.0))  # Q is not rewritten

    def test_step_trace_defaults(self):
        trace = StepTrace()
        assert not trace.active
        assert np.all(np.isnan(trace.dom_diag))
        assert np.all(np.isnan(trace.applied_delta_r))
        assert math.isnan(trace.q_factor)


class TestNoNumpyPerScan:
    """Once its nets exist, after_update reads and returns the variance pairs
    on floats: numpy is used only while the nets are built."""

    @pytest.mark.parametrize("mode", ["r", "q", "rq"])
    def test_adapted_scans_use_no_numpy(self, monkeypatch, mode):
        cov = CovPair.from_noise(NoiseSpec(sigma_v=0.3, sigma_gamma=0.05, sigma_r=0.2, sigma_theta=0.03))
        adapter = CovarianceAdapter(mode, cov, AdaptationConfig(window=3))
        G_u = (0.02, 0.0, 0.0, 0.07, 0.01, 0.05)
        residuals = [(0.5, 0.05), (-0.4, 0.06), (0.45, -0.05), (-0.5, -0.04)]
        for k in range(13):
            if k == 3:  # the nets were built on the scan before
                assert adapter.net is not None
                monkeypatch.setattr(adaptation, "np", helpers.NoNumpy())
            rec = InnovationRecord(residuals[k % 4], ((0.1, 0.0), (0.0, 0.01)), 1, k, True,
                                   ((-1.0, 0.0, 0.0), (0.0, -0.1, -1.0)))
            new_cov, trace = adapter.after_update([rec], G_u, cov)
            assert trace.active == (k >= 2)
            if k >= 3:
                assert new_cov != cov
            cov = new_cov


class TestOnePath:
    """after_update runs the stack through AnfisNet and the named adaptation
    steps, the functions the benchmark tracer times."""

    def test_every_step_runs_once_per_active_scan(self, monkeypatch, tiny_scenario):
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(anfis.AnfisNet, "forward", counting("forward", anfis.AnfisNet.forward))
        monkeypatch.setattr(anfis.AnfisNet, "train_step", counting("train_step", anfis.AnfisNet.train_step))
        for name in ("saturated_forward", "leak_toward", "adapt_r", "adapt_q", "train_adapters"):
            monkeypatch.setattr(adaptation, name, counting(name, getattr(adaptation, name)))
        log = run_once(tiny_scenario, "anfekf-rq", seed=3)
        active = int(np.isfinite(log.dom_diag[:, 0]).sum())
        assert active > 0
        for name in ("forward", "train_step", "saturated_forward", "adapt_r", "adapt_q", "train_adapters"):
            assert calls.get(name) == active, name
        # the leak runs on every scan tick once the nets exist, suspended or not
        assert calls.get("leak_toward", 0) >= active - 1


class TestSurrogateConvergence:
    def test_inflated_s_mismatch_halves_within_200_steps(self):
        """Criterion: 4x inflated S against a frozen actual covariance; the
        mean absolute mismatch must fall by at least half within 200 steps."""
        true_sigmas = (0.1, 0.05)
        r0 = [4.0 * true_sigmas[0] ** 2, 4.0 * true_sigmas[1] ** 2]
        doms, _ = helpers.drive_r_adapter(r0, true_sigmas, n_steps=200)
        active = ~np.isnan(doms[:, 0])
        assert active.sum() > 150
        mean_abs = np.abs(doms[active]).mean(axis=1)
        assert mean_abs[-1] <= 0.5 * mean_abs[0]

    def test_r_converges_to_true_covariance(self):
        true_sigmas = (0.1, 0.05)
        r0 = [4.0 * true_sigmas[0] ** 2, 4.0 * true_sigmas[1] ** 2]
        _, rs = helpers.drive_r_adapter(r0, true_sigmas, n_steps=400)
        np.testing.assert_allclose(
            rs[-1], [true_sigmas[0] ** 2, true_sigmas[1] ** 2], rtol=0.25
        )

    def test_rewrite_opposes_mismatch_sign(self):
        """Directionality: once adaptation is active, the applied R change
        opposes the sign of the mismatch on a large majority of steps."""
        cov = DEFAULT_COV
        adapter = CovarianceAdapter("r", cov, AdaptationConfig())
        rng = np.random.default_rng(99)
        true_cov = np.diag([0.01, 0.0003])  # R starts 4x and 3.3x too large
        agree = 0
        total = 0
        for k in range(400):
            residual = rng.multivariate_normal(np.zeros(2), true_cov)
            rec = make_record(residual, np.diag(cov.R))
            cov, trace = adapter.after_update([rec], ZERO_G, cov)
            if not trace.active:
                continue
            for i in range(2):
                dom_i = trace.dom_diag[i]
                delta_i = trace.applied_delta_r[i]
                if abs(dom_i) < 0.3 * cov.R[i] or delta_i == 0.0:
                    continue  # below the sampling-noise scale of the window
                total += 1
                if dom_i * delta_i < 0.0:
                    agree += 1
        assert total > 100
        assert agree / total >= 0.8
