"""Two-input fuzzy networks with singleton consequents and gradient training.

Five layers: input pass-through, Gaussian fuzzification (five terms per
input), product rule firing (25 rules), normalization over all rules, and
a weighted sum of singleton consequents. Centers, widths, and singletons
are all free parameters trained by steepest descent on a squared error.

A net is a list of 27 Python floats in the N_PARAMS layout (input 1's 5
centers, input 2's 5 centers, their 10 widths in the same order, 7
singletons). One AnfisNet holds a stack of k independent networks as k
such rows; its forward, train_step and leak each run their formula net by
net in one loop body, written out term by term, so net n's numbers are bit
for bit those a one-net stack gives it alone. Two float kernels stand
beside them: saturate_floats, which clamps a net's inputs, and
gradient_floats, the reference of the gradient train_step takes. All of
it sums in one fixed order and calls no numpy, so the bits do not depend
on the BLAS kernel numpy picks for the CPU. The covariance adapter keeps
its nets in one AnfisNet between scans. The fixed rule table CONSEQUENT
maps each of the 5 x 5 term pairs to a singleton index.
"""

from __future__ import annotations

from math import exp

import numpy as np

from .errors import ZeroFiringError

N_TERMS = 5
N_RULES = N_TERMS * N_TERMS
N_SINGLETONS = 7

#: Lower bound that keeps membership widths positive through training and
#: leaking; it is absolute, in input units.
DEFAULT_DELTA_FLOOR = 1e-4

#: Steepest-descent learning rate of a net built without one.
DEFAULT_ETA = 0.01

#: Totals below this are reported as a zero firing strength.
_FIRING_FLOOR = 1e-300

#: Flat parameter layout of one net: 10 centers, then 10 widths, then 7 singletons.
N_PARAMS = 27

#: Net inputs are saturated this many widths beyond the outer centers so the
#: Gaussian terms cannot underflow to a zero total firing strength. Outputs
#: are already flat out there, so saturation does not change the response.
INPUT_SATURATION_WIDTHS = 12.0


#: 0-based singleton index of the rule for input-1 term i and input-2 term j.
#: Entries are constant along anti-diagonals: the consequent depends only on
#: the combined level i + j of the two input terms, falling from the last
#: singleton at (0, 0) to the first at (4, 4).
CONSEQUENT = np.clip(7 - np.add.outer(np.arange(N_TERMS), np.arange(N_TERMS)), 0, N_SINGLETONS - 1)


def saturate_floats(p: list[float], in1: float, in2: float) -> tuple[float, float]:
    """(in1, in2) clamped to INPUT_SATURATION_WIDTHS of the widest term beyond the outer centers.

    Each extreme is found as builtin min and max find it: the first value
    is kept unless a later one compares strictly below (min) or above
    (max), so NaN and signed zeros come out as they would from
    min(max(in1, lo), hi) over min/max of the five values.
    """
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, *_ = p
    reach = w0
    reach = w1 if w1 > reach else reach
    reach = w2 if w2 > reach else reach
    reach = w3 if w3 > reach else reach
    reach = INPUT_SATURATION_WIDTHS * (w4 if w4 > reach else reach)
    lo = hi = c0
    lo, hi = c1 if c1 < lo else lo, c1 if c1 > hi else hi
    lo, hi = c2 if c2 < lo else lo, c2 if c2 > hi else hi
    lo, hi = c3 if c3 < lo else lo, c3 if c3 > hi else hi
    lo, hi = c4 if c4 < lo else lo, c4 if c4 > hi else hi
    lo, hi = lo - reach, hi + reach
    in1 = lo if lo > in1 else in1
    in1 = hi if hi < in1 else in1
    reach = w5
    reach = w6 if w6 > reach else reach
    reach = w7 if w7 > reach else reach
    reach = w8 if w8 > reach else reach
    reach = INPUT_SATURATION_WIDTHS * (w9 if w9 > reach else reach)
    lo = hi = c5
    lo, hi = c6 if c6 < lo else lo, c6 if c6 > hi else hi
    lo, hi = c7 if c7 < lo else lo, c7 if c7 > hi else hi
    lo, hi = c8 if c8 < lo else lo, c8 if c8 > hi else hi
    lo, hi = c9 if c9 < lo else lo, c9 if c9 > hi else hi
    lo, hi = lo - reach, hi + reach
    in2 = lo if lo > in2 else in2
    in2 = hi if hi < in2 else in2
    return in1, in2


def gradient_floats(p: list[float], trace: tuple) -> list[float]:
    """d(out)/d(parameter) at one net's AnfisNet.forward trace, in the N_PARAMS layout.

    AnfisNet.train_step computes it in the same order; this kernel is its
    reference.
    """
    z, mu, total, weights, out = trace
    a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 = mu
    z0, z1, z2, z3, z4, z5, z6, z7, z8, z9 = z
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, s0, s1, s2, s3, s4, s5, s6 = p[10:]
    # each singleton less the output; rule (i, j) uses singleton 7 - (i + j), clipped
    e0, e1, e2, e3, e4, e5, e6 = s0 - out, s1 - out, s2 - out, s3 - out, s4 - out, s5 - out, s6 - out
    # d(out)/d(center): the quotient rule against the normalization layer
    # gives d(out)/d(mu1_i) = sum_j (w_ij - out) mu2_j / total (and the same
    # over i for mu2_j), and d(mu)/d(center) = 2 mu z / delta
    k = 2.0 / total
    dc0, dc1, dc2, dc3, dc4, dc5, dc6, dc7, dc8, dc9 = (
        (e6 * b0 + e6 * b1 + e5 * b2 + e4 * b3 + e3 * b4) * a0 * k * z0 / w0,
        (e6 * b0 + e5 * b1 + e4 * b2 + e3 * b3 + e2 * b4) * a1 * k * z1 / w1,
        (e5 * b0 + e4 * b1 + e3 * b2 + e2 * b3 + e1 * b4) * a2 * k * z2 / w2,
        (e4 * b0 + e3 * b1 + e2 * b2 + e1 * b3 + e0 * b4) * a3 * k * z3 / w3,
        (e3 * b0 + e2 * b1 + e1 * b2 + e0 * b3 + e0 * b4) * a4 * k * z4 / w4,
        (e6 * a0 + e6 * a1 + e5 * a2 + e4 * a3 + e3 * a4) * b0 * k * z5 / w5,
        (e6 * a0 + e5 * a1 + e4 * a2 + e3 * a3 + e2 * a4) * b1 * k * z6 / w6,
        (e5 * a0 + e4 * a1 + e3 * a2 + e2 * a3 + e1 * a4) * b2 * k * z7 / w7,
        (e4 * a0 + e3 * a1 + e2 * a2 + e1 * a3 + e0 * a4) * b3 * k * z8 / w8,
        (e3 * a0 + e2 * a1 + e1 * a2 + e0 * a3 + e0 * a4) * b4 * k * z9 / w9,
    )
    # d(mu)/d(delta) = 2 mu z^2 / delta, so d(out)/d(delta) is z times d(out)/d(center)
    return [dc0, dc1, dc2, dc3, dc4, dc5, dc6, dc7, dc8, dc9,
            dc0 * z0, dc1 * z1, dc2 * z2, dc3 * z3, dc4 * z4, dc5 * z5, dc6 * z6, dc7 * z7, dc8 * z8, dc9 * z9,
            *weights]


class AnfisNet:
    """A stack of trainable two-input/one-output networks.

    params holds one row of N_PARAMS floats per net, in the N_PARAMS layout.
    A term's grade is exp(-((u - m) / delta)^2), so delta is the distance at
    which the grade falls to 1/e. The nets share eta and nothing else;
    training floors every width at DEFAULT_DELTA_FLOOR. A single instance
    belongs to one adapter; training and leaking replace its rows.

    Raises ValueError unless there is at least one net of N_PARAMS values.
    """

    def __init__(self, params, eta: float = DEFAULT_ETA):
        self.params = [[float(v) for v in p] for p in params]
        if not self.params or any(len(p) != N_PARAMS for p in self.params):
            raise ValueError(
                f"each net needs {N_PARAMS} parameters: {N_TERMS} membership terms "
                f"per input and {N_SINGLETONS} singletons"
            )
        self.eta = eta

    def __len__(self) -> int:
        """Number of stacked nets."""
        return len(self.params)

    def forward(self, rows) -> tuple[list[float], list[tuple]]:
        """The forward pass of every net on its (in1, in2) row: (outputs, traces).

        A net's trace is (z, mu, total, weights, out): the ten z-scores
        (u - m) / delta and membership grades, input 1's terms first, the
        total firing, the normalized firing routed to each singleton, which
        is also d(out)/d(singleton), and the output. Rule (i, j) fires
        mu1_i * mu2_j; the 25 firings are summed along the anti-diagonals
        i + j, on which CONSEQUENT is constant.

        Raises ZeroFiringError if every rule firing strength of some net
        underflowed, and ValueError unless there is one row per net. Callers
        are expected to keep inputs within a sane multiple of the membership
        widths, as saturate_floats does.
        """
        params = self.params
        if len(rows) != len(params):
            raise ValueError(f"expected one input row per net ({len(params)}), got {len(rows)}")
        outputs, traces = [], []
        for p, (in1, in2) in zip(params, rows):
            (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, w0, w1, w2, w3, w4, w5, w6, w7, w8, w9,
             s0, s1, s2, s3, s4, s5, s6) = p
            z = z0, z1, z2, z3, z4, z5, z6, z7, z8, z9 = (
                (in1 - c0) / w0, (in1 - c1) / w1, (in1 - c2) / w2, (in1 - c3) / w3, (in1 - c4) / w4,
                (in2 - c5) / w5, (in2 - c6) / w6, (in2 - c7) / w7, (in2 - c8) / w8, (in2 - c9) / w9)
            mu = a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 = (
                exp(-z0 * z0), exp(-z1 * z1), exp(-z2 * z2), exp(-z3 * z3), exp(-z4 * z4),
                exp(-z5 * z5), exp(-z6 * z6), exp(-z7 * z7), exp(-z8 * z8), exp(-z9 * z9))
            f0 = a0 * b0
            f1 = a0 * b1 + a1 * b0
            f2 = a0 * b2 + a1 * b1 + a2 * b0
            f3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
            f4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0
            f5 = a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1
            f6 = a2 * b4 + a3 * b3 + a4 * b2
            f7 = a3 * b4 + a4 * b3
            f8 = a4 * b4
            total = f0 + f1 + f2 + f3 + f4 + f5 + f6 + f7 + f8
            if total < _FIRING_FLOOR:
                raise ZeroFiringError(f"zero total firing at inputs ({in1}, {in2})")
            # CONSEQUENT routes level i + j to singleton 7 - (i + j), clipped to 0..6
            weights = [(f7 + f8) / total, f6 / total, f5 / total, f4 / total, f3 / total, f2 / total,
                       (f0 + f1) / total]
            r0, r1, r2, r3, r4, r5, r6 = weights
            out = r0 * s0 + r1 * s1 + r2 * s2 + r3 * s3 + r4 * s4 + r5 * s5 + r6 * s6
            outputs.append(out)
            traces.append((z, mu, total, weights, out))
        return outputs, traces

    def train_step(self, traces: list[tuple], errors: list[float], sensitivities: list[float]) -> "AnfisNet":
        """One steepest-descent step of each net on E = e^2 / 2, widths floored.

        Each net steps by eta * e * sensitivity times gradient_floats at its
        trace, computed here in gradient_floats' order and written out term
        by term: a loop over the 27 parameters would cost as much again.

        Args:
            traces: the forward pass the errors were observed at.
            errors: signed training error, one per net.
            sensitivities: sensitivity of each error signal to its net's
                output, chained into every parameter gradient.

        Returns:
            self, its rows replaced. A net whose step is zero (its error or
            sensitivity zero, or a zero learning rate) keeps its row untouched.

        Raises:
            ValueError unless there is one trace, error and sensitivity per net.
        """
        params = self.params
        if not len(traces) == len(errors) == len(sensitivities) == len(params):
            raise ValueError(
                f"expected one trace, error and sensitivity per net ({len(params)}), "
                f"got {len(traces)}, {len(errors)} and {len(sensitivities)}"
            )
        eta, f = self.eta, DEFAULT_DELTA_FLOOR
        rows = []
        for p, (z, mu, total, weights, out), err, sens in zip(params, traces, errors, sensitivities):
            g = eta * err * sens
            if g == 0.0:
                rows.append(p)
                continue
            (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, w0, w1, w2, w3, w4, w5, w6, w7, w8, w9,
             s0, s1, s2, s3, s4, s5, s6) = p
            a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 = mu
            z0, z1, z2, z3, z4, z5, z6, z7, z8, z9 = z
            r0, r1, r2, r3, r4, r5, r6 = weights
            # gradient_floats: each singleton less the output, then d(out)/d(center)
            e0, e1, e2, e3, e4, e5, e6 = s0 - out, s1 - out, s2 - out, s3 - out, s4 - out, s5 - out, s6 - out
            k = 2.0 / total
            dc0, dc1, dc2, dc3, dc4, dc5, dc6, dc7, dc8, dc9 = (
                (e6 * b0 + e6 * b1 + e5 * b2 + e4 * b3 + e3 * b4) * a0 * k * z0 / w0,
                (e6 * b0 + e5 * b1 + e4 * b2 + e3 * b3 + e2 * b4) * a1 * k * z1 / w1,
                (e5 * b0 + e4 * b1 + e3 * b2 + e2 * b3 + e1 * b4) * a2 * k * z2 / w2,
                (e4 * b0 + e3 * b1 + e2 * b2 + e1 * b3 + e0 * b4) * a3 * k * z3 / w3,
                (e3 * b0 + e2 * b1 + e1 * b2 + e0 * b3 + e0 * b4) * a4 * k * z4 / w4,
                (e6 * a0 + e6 * a1 + e5 * a2 + e4 * a3 + e3 * a4) * b0 * k * z5 / w5,
                (e6 * a0 + e5 * a1 + e4 * a2 + e3 * a3 + e2 * a4) * b1 * k * z6 / w6,
                (e5 * a0 + e4 * a1 + e3 * a2 + e2 * a3 + e1 * a4) * b2 * k * z7 / w7,
                (e4 * a0 + e3 * a1 + e2 * a2 + e1 * a3 + e0 * a4) * b3 * k * z8 / w8,
                (e3 * a0 + e2 * a1 + e1 * a2 + e0 * a3 + e0 * a4) * b4 * k * z9 / w9,
            )
            # a width's gradient is z times its center's: g * (dc * z)
            rows.append([
                c0 - g * dc0, c1 - g * dc1, c2 - g * dc2, c3 - g * dc3, c4 - g * dc4,
                c5 - g * dc5, c6 - g * dc6, c7 - g * dc7, c8 - g * dc8, c9 - g * dc9,
                f if (w := w0 - g * (dc0 * z0)) < f else w, f if (w := w1 - g * (dc1 * z1)) < f else w,
                f if (w := w2 - g * (dc2 * z2)) < f else w, f if (w := w3 - g * (dc3 * z3)) < f else w,
                f if (w := w4 - g * (dc4 * z4)) < f else w, f if (w := w5 - g * (dc5 * z5)) < f else w,
                f if (w := w6 - g * (dc6 * z6)) < f else w, f if (w := w7 - g * (dc7 * z7)) < f else w,
                f if (w := w8 - g * (dc8 * z8)) < f else w, f if (w := w9 - g * (dc9 * z9)) < f else w,
                s0 - g * r0, s1 - g * r1, s2 - g * r2, s3 - g * r3, s4 - g * r4, s5 - g * r5, s6 - g * r6,
            ])
        self.params = rows
        return self

    def leak(self, anchor: list[list[float]], rate: float) -> "AnfisNet":
        """Every parameter moved a fraction rate of the way to its anchor, widths floored.

        anchor holds one row of N_PARAMS floats per net. A zero rate leaves
        every row untouched. Written out term by term, as train_step is.

        Raises ValueError unless there is one anchor row per net.
        """
        params = self.params
        if len(anchor) != len(params):
            raise ValueError(f"expected one anchor row per net ({len(params)}), got {len(anchor)}")
        if rate == 0.0:
            return self
        f = DEFAULT_DELTA_FLOOR
        rows = []
        for p, a in zip(params, anchor):
            (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, w0, w1, w2, w3, w4, w5, w6, w7, w8, w9,
             s0, s1, s2, s3, s4, s5, s6) = p
            (ac0, ac1, ac2, ac3, ac4, ac5, ac6, ac7, ac8, ac9, aw0, aw1, aw2, aw3, aw4, aw5, aw6, aw7, aw8, aw9,
             as0, as1, as2, as3, as4, as5, as6) = a
            rows.append([
                c0 + rate * (ac0 - c0), c1 + rate * (ac1 - c1), c2 + rate * (ac2 - c2), c3 + rate * (ac3 - c3),
                c4 + rate * (ac4 - c4), c5 + rate * (ac5 - c5), c6 + rate * (ac6 - c6), c7 + rate * (ac7 - c7),
                c8 + rate * (ac8 - c8), c9 + rate * (ac9 - c9),
                f if (w := w0 + rate * (aw0 - w0)) < f else w, f if (w := w1 + rate * (aw1 - w1)) < f else w,
                f if (w := w2 + rate * (aw2 - w2)) < f else w, f if (w := w3 + rate * (aw3 - w3)) < f else w,
                f if (w := w4 + rate * (aw4 - w4)) < f else w, f if (w := w5 + rate * (aw5 - w5)) < f else w,
                f if (w := w6 + rate * (aw6 - w6)) < f else w, f if (w := w7 + rate * (aw7 - w7)) < f else w,
                f if (w := w8 + rate * (aw8 - w8)) < f else w, f if (w := w9 + rate * (aw9 - w9)) < f else w,
                s0 + rate * (as0 - s0), s1 + rate * (as1 - s1), s2 + rate * (as2 - s2), s3 + rate * (as3 - s3),
                s4 + rate * (as4 - s4), s5 + rate * (as5 - s5), s6 + rate * (as6 - s6),
            ])
        self.params = rows
        return self
