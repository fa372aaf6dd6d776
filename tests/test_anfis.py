"""Fuzzy network tests: anchors, oracles, gradient checks, training dynamics."""

import math

import numpy as np
import pytest

import helpers
from fuzzyloc.anfis import (
    CONSEQUENT,
    DEFAULT_DELTA_FLOOR,
    AnfisNet,
    forward_floats,
    gradient_floats,
    leak_floats,
    train_step_floats,
)
from fuzzyloc.errors import ZeroFiringError

CENTERS = [-2.0, -1.0, 0.0, 1.0, 2.0]


def grade(u: float, m: float, delta: float) -> float:
    """Grade of u under a Gaussian term (m, delta), read off a forward trace.

    Input 2 sits at its centers so the rule firing cannot underflow.
    """
    net = AnfisNet([[m] * 10 + [delta] * 10 + [0.0] * 7])
    _, traces = net.forward([(u, m)])
    mu = traces[0][1]
    assert mu[5] == 1.0
    return mu[0]


def label(i: int, j: int) -> int:
    """Singleton label 1..7 for input-1 term i and input-2 term j (1-based)."""
    return int(CONSEQUENT[i - 1, j - 1]) + 1


def firing(trace) -> np.ndarray:
    """(5, 5) rule firing strengths of one forward_floats trace."""
    mu = trace[1]
    return np.outer(mu[:5], mu[5:])


def normalized(trace) -> np.ndarray:
    """(5, 5) firing strengths of one trace, summing to 1."""
    return firing(trace) / trace[2]


def singletons(net: AnfisNet) -> np.ndarray:
    """(k, 7) consequent singletons of a stack."""
    return np.array(net.params)[:, 20:]


class TestMembership:
    def test_peak_at_center(self):
        assert grade(1.5, 1.5, 0.7) == 1.0

    def test_one_over_e_at_one_width(self):
        assert grade(2.0, 0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert grade(-2.0, 0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_symmetric_and_monotone_tails(self):
        assert grade(1.3, 1.0, 0.5) == pytest.approx(grade(0.7, 1.0, 0.5), rel=1e-15)
        grades = [grade(1.0 + 0.2 * k, 1.0, 0.5) for k in range(6)]
        assert all(a > b for a, b in zip(grades, grades[1:]))


class TestRuleBase:
    def test_corner_and_center_anchors(self):
        assert label(1, 1) == 7
        assert label(5, 5) == 1
        assert label(3, 3) == 4
        assert label(1, 5) == 4
        assert label(5, 1) == 4

    def test_symmetric_in_inputs(self):
        for i in range(1, 6):
            for j in range(1, 6):
                assert label(i, j) == label(j, i)

    def test_constant_along_antidiagonals(self):
        for s in range(2, 11):
            labels = {
                label(i, s - i)
                for i in range(1, 6)
                if 1 <= s - i <= 5
            }
            assert len(labels) == 1

    def test_all_seven_labels_used(self):
        assert set((CONSEQUENT + 1).ravel()) == set(range(1, 8))

    def test_monotone_decreasing_in_each_index(self):
        for i in range(1, 5):
            for j in range(1, 6):
                assert label(i + 1, j) <= label(i, j)


class TestForward:
    def test_matches_brute_force(self, rng):
        for _ in range(200):
            net = helpers.random_net(rng)
            in1 = float(rng.uniform(-4.0, 4.0))
            in2 = float(rng.uniform(-4.0, 4.0))
            out, _ = net.forward([(in1, in2)])
            assert out[0] == pytest.approx(helpers.anfis_forward_brute(net, in1, in2), rel=1e-12)

    def test_normalization_sums_to_one(self, rng):
        for _ in range(100):
            net = helpers.random_net(rng)
            _, traces = net.forward([tuple(rng.uniform(-4, 4, 2))])
            assert float(normalized(traces[0]).sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(normalized(traces[0]) >= 0.0)

    def test_output_bounded_by_singletons(self, rng):
        for _ in range(100):
            net = helpers.random_net(rng, k=3)
            out, _ = net.forward(rng.uniform(-6, 6, (3, 2)).tolist())
            assert np.all(singletons(net).min(axis=1) - 1e-12 <= out)
            assert np.all(out <= singletons(net).max(axis=1) + 1e-12)

    def test_dominant_rule_selects_its_singleton(self):
        # narrow widths at exact centers: one rule fires ~1, the rest ~0
        for i in (1, 3, 5):
            for j in (1, 2, 4):
                net = AnfisNet([CENTERS + CENTERS + [0.05] * 10 + np.linspace(-3.0, 3.0, 7).tolist()])
                out, _ = net.forward([(CENTERS[i - 1], CENTERS[j - 1])])
                expected = net.params[0][20 + label(i, j) - 1]
                assert out[0] == pytest.approx(expected, abs=1e-9)

    def test_trace_layers_consistent(self, rng):
        net = helpers.random_net(rng, k=2)
        out, traces = net.forward([(0.3, -0.8), (-1.1, 0.4)])
        for n, trace in enumerate(traces):
            z, mu, total, weights, out_n = trace
            np.testing.assert_allclose(mu, np.exp(-np.square(z)), rtol=1e-15)
            assert total == pytest.approx(float(firing(trace).sum()), rel=1e-15)
            # each singleton's weight is the normalized firing of the rules routed to it
            np.testing.assert_allclose(
                weights, np.bincount(CONSEQUENT.ravel(), normalized(trace).ravel(), 7), rtol=1e-14,
            )
            assert out[n] == out_n

    def test_zero_firing_raises(self):
        net = AnfisNet([[0.0] * 10 + [1e-4] * 10 + [0.0] * 7] * 2)
        with pytest.raises(ZeroFiringError):
            net.forward([(0.0, 0.0), (1e6, 1e6)])  # one dead net is enough

    def test_wrong_term_count_rejected(self):
        with pytest.raises(ValueError, match="5 membership terms"):
            AnfisNet([[0.0] * 8 + [1.0] * 8 + [0.0] * 7])
        with pytest.raises(ValueError, match="5 membership terms"):
            AnfisNet([[0.0] * 10 + [1.0] * 5 + [0.0] * 7])
        with pytest.raises(ValueError, match="5 membership terms"):
            AnfisNet([[0.0] * 10, [1.0] * 10, [0.0] * 7])  # no net axis
        with pytest.raises(ValueError):
            AnfisNet([[0.0] * 10 + [1.0] * 10 + [0.0] * 6])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="27"):
            AnfisNet([[0.0] * 26])
        with pytest.raises(ValueError, match="27"):
            AnfisNet([])


class TestGradients:
    def test_match_finite_differences(self, rng):
        """Criterion: analytic gradients vs central differences, 200 configs."""
        for _ in range(200):
            net = helpers.random_net(rng)
            in1 = float(rng.uniform(-3.0, 3.0))
            in2 = float(rng.uniform(-3.0, 3.0))
            _, traces = net.forward([(in1, in2)])
            analytic = helpers.anfis_analytic_gradients(net, traces)
            fd = helpers.anfis_fd_gradients(net, in1, in2, h=1e-6)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_singleton_gradients_sum_to_one(self, rng):
        # each rule routes to exactly one singleton, so d(out)/d(w) sums to 1
        for _ in range(50):
            net = helpers.random_net(rng, k=3)
            _, traces = net.forward(rng.uniform(-3, 3, (3, 2)).tolist())
            d_w = np.array([gradient_floats(p, t)[20:] for p, t in zip(net.params, traces)])
            np.testing.assert_allclose(d_w.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(d_w >= 0.0)


def hexes(row: list[float]) -> list[str]:
    return [v.hex() for v in row]


class TestTraining:
    def test_zero_error_is_noop(self, rng):
        net = helpers.random_net(rng)
        before = [list(p) for p in net.params]
        _, traces = net.forward([(0.5, -0.5)])
        net.train_step(traces, [0.0], [1.0])
        assert net.params == before

    def test_zero_sensitivity_is_noop(self, rng):
        net = helpers.random_net(rng)
        before = [list(p) for p in net.params]
        _, traces = net.forward([(0.5, -0.5)])
        net.train_step(traces, [2.0], [0.0])
        assert net.params == before

    def test_zero_learning_rate_is_noop(self, rng):
        net = helpers.random_net(rng)
        net.eta = 0.0
        before = [list(p) for p in net.params]
        _, traces = net.forward([(0.5, -0.5)])
        net.train_step(traces, [2.0], [1.0])
        assert net.params == before

    def test_zero_step_leaves_its_net_untouched(self, rng):
        net = helpers.random_net(rng, k=2)
        net.params[1][10:20] = [0.5 * DEFAULT_DELTA_FLOOR] * 10  # below the floor: a step would raise them
        before = [list(p) for p in net.params]
        _, traces = net.forward([(0.5, -0.5), (net.params[1][2], net.params[1][7])])
        net.train_step(traces, [2.0, 0.0], [1.0, 1.0])
        assert hexes(net.params[1]) == hexes(before[1])
        assert net.params[0] != before[0]

    def test_first_order_output_change(self, rng):
        # a small step changes the output by about -eta * e * ds * ||grad||^2
        for _ in range(20):
            net = helpers.random_net(rng)
            net.eta = 1e-6
            inputs = [tuple(rng.uniform(-2, 2, 2))]
            out0, traces = net.forward(inputs)
            g = helpers.anfis_analytic_gradients(net, traces)
            e, ds = 1.5, 0.8
            net.train_step(traces, [e], [ds])
            out1, _ = net.forward(inputs)
            predicted = -net.eta * e * ds * float(g @ g)
            assert out1[0] - out0[0] == pytest.approx(predicted, rel=1e-3, abs=1e-15)

    def test_regression_converges_monotonically(self, rng):
        # classic supervised check: error e = out - target with unit
        # sensitivity must shrink monotonically once past the first steps
        net = helpers.random_net(rng)
        net.eta = 0.1
        target = 0.8
        in1, in2 = 0.4, -0.3
        errors = []
        for _ in range(400):
            out, traces = net.forward([(in1, in2)])
            e = out[0] - target
            errors.append(abs(e))
            net.train_step(traces, [e], [1.0])
        assert errors[-1] < 0.05 * errors[0]
        tail = errors[10:]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_width_floor_respected(self):
        net = AnfisNet([CENTERS + CENTERS + [2e-4] * 10 + np.linspace(-3, 3, 7).tolist()], eta=0.5)
        for _ in range(50):
            _, traces = net.forward([(0.1e-4, -0.1e-4)])
            net.train_step(traces, [5.0], [1.0])
            assert min(net.params[0][10:20]) >= DEFAULT_DELTA_FLOOR


def _floored(row: list[float]) -> list[float]:
    """row with its widths floored at DEFAULT_DELTA_FLOOR, a NaN width kept."""
    return row[:10] + [DEFAULT_DELTA_FLOOR if w < DEFAULT_DELTA_FLOOR else w for w in row[10:20]] + row[20:]


class TestWrittenOutKernels:
    """The written-out leak_floats and train_step_floats against the
    elementwise loops they spell out, bit for bit."""

    def test_leak_matches_loop(self, rng):
        for i in range(300):
            p = rng.normal(size=27).tolist()
            anchor = rng.normal(size=27).tolist()
            # widths on both sides of the floor, so some leak below it
            p[10:20] = rng.uniform(-2e-4, 4e-4, 10).tolist()
            anchor[10:20] = rng.uniform(-2e-4, 4e-4, 10).tolist()
            if i % 10 == 0:
                p[int(rng.integers(27))] = math.nan
            rate = float(rng.uniform(0.0, 1.0))
            expected = _floored([v + rate * (a - v) for v, a in zip(p, anchor)])
            assert hexes(leak_floats(p, anchor, rate)) == hexes(expected)

    def test_train_step_matches_loop(self, rng):
        for _ in range(300):
            p = helpers.random_net(rng).params[0]
            trace = forward_floats(p, *rng.uniform(-2.0, 2.0, 2).tolist())
            grad = gradient_floats(p, trace)
            z = trace[0]
            assert hexes(grad[10:20]) == hexes([d * v for d, v in zip(grad[:10], z)])
            eta, e, ds = float(rng.uniform(0.0, 2.0)), float(rng.normal(scale=10.0)), 1.0
            g = eta * e * ds
            expected = _floored([v - g * d for v, d in zip(p, grad)])
            assert hexes(train_step_floats(p, trace, eta, e, ds)) == hexes(expected)


class TestNumpyStackReference:
    """AnfisNet against helpers.NumpyAnfisNet, the stacked numpy passes the
    float kernels replaced, for a stack of three nets."""

    def test_forward_and_gradients(self, rng):
        for _ in range(50):
            net = helpers.random_net(rng, k=3)
            ref = helpers.NumpyAnfisNet(net.params, eta=net.eta)
            inputs = rng.uniform(-4.0, 4.0, (3, 2))
            out, traces = net.forward(inputs.tolist())
            ref_out, ref_trace = ref.forward(inputs)
            np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-14)
            mu = np.array([t[1] for t in traces]).reshape(3, 2, 5)
            np.testing.assert_allclose(mu, ref_trace.mu, rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose([t[2] for t in traces], ref_trace.total, rtol=1e-14)
            np.testing.assert_allclose([normalized(t) for t in traces], ref_trace.normalized,
                                       rtol=1e-12, atol=1e-300)
            grads = np.array([gradient_floats(p, t) for p, t in zip(net.params, traces)])
            got = grads[:, 20:], grads[:, :10].reshape(3, 2, 5), grads[:, 10:20].reshape(3, 2, 5)
            for g, want in zip(got, ref.output_gradients(ref_trace)):
                assert g.shape == want.shape
                np.testing.assert_allclose(g, want, rtol=1e-9, atol=1e-12)

    def test_train_step(self, rng):
        for _ in range(50):
            net = helpers.random_net(rng, k=3)
            ref = helpers.NumpyAnfisNet(net.params, eta=0.1)
            net.eta = 0.1
            inputs = rng.uniform(-3.0, 3.0, (3, 2))
            e, ds = rng.normal(size=3), np.array([0.7, 0.0, -1.3])
            net.train_step(net.forward(inputs.tolist())[1], e.tolist(), ds.tolist())
            ref.train_step(ref.forward(inputs)[1], e, ds)
            np.testing.assert_allclose(net.params, ref.params, rtol=1e-12, atol=1e-14)
            assert np.array(net.params[1]).tobytes() == ref.params[1].tobytes()  # the zero step
