"""Fuzzy network tests: anchors, oracles, gradient checks, training dynamics."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from fuzzyloc.anfis import (
    CONSEQUENT,
    DEFAULT_DELTA_FLOOR,
    AnfisNet,
    gradient_floats,
    saturate_floats,
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
    """(5, 5) rule firing strengths of one net's AnfisNet.forward trace."""
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

    def test_train_step_needs_one_trace_error_and_sensitivity_per_net(self, rng):
        net = helpers.random_net(rng, k=3)
        before = [list(p) for p in net.params]
        _, traces = net.forward(rng.uniform(-2, 2, (3, 2)).tolist())
        for args, counts in [
            ((traces, [1.0, 2.0], [1.0] * 3), "3, 2 and 3"),
            ((traces[:1], [1.0] * 3, [1.0] * 3), "1, 3 and 3"),
            ((traces, [1.0] * 3, [1.0] * 4), "3, 3 and 4"),
        ]:
            with pytest.raises(ValueError, match=rf"per net \(3\), got {counts}$"):
                net.train_step(*args)
        assert net.params == before

    def test_leak_needs_one_anchor_row_per_net(self, rng):
        net = helpers.random_net(rng, k=3)
        before = [list(p) for p in net.params]
        for anchor in (before[:1], before + before[:1]):
            for rate in (0.05, 0.0):
                with pytest.raises(ValueError, match=rf"per net \(3\), got {len(anchor)}$"):
                    net.leak(anchor, rate)
        assert net.params == before

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
    """The written-out AnfisNet.leak against the elementwise loop it spells
    out, bit for bit."""

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
            assert hexes(AnfisNet([p]).leak([anchor], rate).params[0]) == hexes(expected)

    def test_zero_rate_leaves_every_row(self, rng):
        net = helpers.random_net(rng, k=2)
        rows = list(net.params)
        net.leak([[0.0] * 27] * 2, 0.0)
        assert all(a is b for a, b in zip(net.params, rows))


def _bits(values) -> bytes:
    """The bytes of a sequence of floats, so that NaN, -0.0 and 0.0 compare by their bits."""
    return struct.pack(f"<{len(values)}d", *values)


def _trace_bits(trace) -> bytes:
    z, mu, total, weights, out = trace
    return _bits([*z, *mu, total, *weights, out])


#: Values that builtin min and max treat specially: NaN compares false
#: either way, and -0.0 == 0.0 keeps whichever came first.
_EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 2.0)
_EDGY = st.one_of(st.sampled_from(_EDGES), st.floats())


@st.composite
def _nets(draw, k):
    """k rows of N_PARAMS floats whose forward pass is well defined on inputs in [-3, 3]."""
    return [draw(st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
            + draw(st.lists(st.floats(0.3, 3.0), min_size=10, max_size=10))
            + draw(st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7))
            for _ in range(k)]


def _forward(net, rows):
    """net.forward(rows), with a case whose firing underflowed discarded."""
    try:
        return net.forward(rows)
    except ZeroFiringError:
        assume(False)


_INPUTS = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
_STEP = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


class TestStackProperty:
    """The stack methods and the input clamp, bit for bit against their
    references on hypothesis cases. max_examples comes from the hypothesis
    profile (tests/conftest.py); CI also runs this class under the deep one."""

    @settings(deadline=None, derandomize=True, database=None)
    @given(p=st.lists(_EDGY, min_size=27, max_size=27), in1=_EDGY, in2=_EDGY)
    # signed-zero ties with zero reach: the lower clamp keeps the first zero,
    # then the upper one; ties in the widths; in1 tied with the clamp
    @example(p=[0.0, -0.0, -0.0, -0.0, -0.0] * 2 + [0.0] * 17, in1=-1.0, in2=-1.0)
    @example(p=[0.0, -0.0, -0.0, -0.0, -0.0] * 2 + [-0.0] * 17, in1=1.0, in2=1.0)
    @example(p=[-0.0] * 10 + [0.0, -0.0, -0.0, -0.0, -0.0] * 2 + [0.0] * 7, in1=-1.0, in2=-1.0)
    @example(p=[-0.0] * 10 + [0.0] * 17, in1=0.0, in2=-0.0)
    @example(p=[-0.0] * 10 + [0.0] * 17, in1=-0.0, in2=0.0)
    # NaN first or later among the extremes, and as an input; infinite reaches
    @example(p=[math.nan, 1.0, 2.0, 1.0, 0.0] * 2 + [1.0, math.nan, 2.0, 2.0, 0.5] * 2 + [0.0] * 7,
             in1=math.nan, in2=1e9)
    @example(p=[1.0, math.nan, -1.0, -1.0, 1.0] * 2 + [math.nan, 1.0, 1.0, 0.0, 1.0] * 2 + [0.0] * 7,
             in1=-1e9, in2=math.nan)
    @example(p=[math.inf, -math.inf, 0.0, 0.0, 0.0] * 2 + [0.0, math.inf, 0.0, 0.0, 0.0] * 2 + [0.0] * 7,
             in1=0.0, in2=-math.inf)
    def test_saturate_is_builtin_min_max(self, p, in1, in2):
        assert _bits(saturate_floats(p, in1, in2)) == _bits(helpers.saturate_min_max(p, in1, in2))

    @settings(deadline=None, derandomize=True, database=None)
    @given(rows=_nets(1), inputs=_INPUTS, eta=st.floats(0.0, 2.0), e=_STEP, ds=_STEP)
    def test_train_step_is_the_gradient_step(self, rows, inputs, eta, e, ds):
        """p - g * gradient_floats(p, trace), g = eta * e * ds, widths floored;
        a zero g keeps the row itself."""
        net = AnfisNet(rows, eta)
        p = net.params[0]
        _, traces = _forward(net, [inputs])
        grad = gradient_floats(p, traces[0])
        assert _bits(grad[10:20]) == _bits([d * z for d, z in zip(grad[:10], traces[0][0])])
        g = eta * e * ds
        net.train_step(traces, [e], [ds])
        if g == 0.0:
            assert net.params[0] is p
        else:
            assert _bits(net.params[0]) == _bits(_floored([v - g * d for v, d in zip(p, grad)]))

    @settings(deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(1, 3), eta=st.floats(0.0, 2.0), rate=st.floats(0.0, 1.0))
    def test_k_net_stack_equals_k_one_net_stacks(self, data, k, eta, rate):
        """forward, train_step and leak of a k-net stack give net n what a
        one-net stack of its row gives it, bit for bit."""
        stack = AnfisNet(data.draw(_nets(k)), eta)
        anchor = data.draw(_nets(k))
        inputs = data.draw(st.lists(_INPUTS, min_size=k, max_size=k))
        errors = data.draw(st.lists(_STEP, min_size=k, max_size=k))
        sensitivities = data.draw(st.lists(_STEP, min_size=k, max_size=k))
        singles = [AnfisNet([row], eta) for row in stack.params]
        outputs, traces = _forward(stack, inputs)
        stack.train_step(traces, errors, sensitivities).leak(anchor, rate)
        for n, single in enumerate(singles):
            out, trace = single.forward([inputs[n]])
            single.train_step(trace, [errors[n]], [sensitivities[n]]).leak([anchor[n]], rate)
            assert _bits(out) == _bits([outputs[n]])
            assert _trace_bits(trace[0]) == _trace_bits(traces[n])
            assert _bits(single.params[0]) == _bits(stack.params[n])


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
