"""Two-input fuzzy network with singleton consequents and gradient training.

Five layers: input pass-through, Gaussian fuzzification (five terms per
input), product rule firing (25 rules), normalization over all rules, and
a weighted sum of singleton consequents. Centers, widths, and singletons
are all free parameters trained by steepest descent on a squared error.
They are plain arrays: centers and widths (2, 5) with row k for input k,
singletons (7,), and the fixed rule table CONSEQUENT maps each of the
5 x 5 term pairs to a singleton index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroFiringError

N_TERMS = 5
N_RULES = N_TERMS * N_TERMS
N_SINGLETONS = 7

#: Lower bound that keeps membership widths positive through training.
DEFAULT_DELTA_FLOOR = 1e-4

DEFAULT_LEARNING_RATE = 0.01

#: Totals below this are reported as a zero firing strength.
_FIRING_FLOOR = 1e-300

#: Flat parameter layout: 10 centers, then 10 widths, then 7 singletons.
N_PARAMS = 27


#: 0-based singleton index of the rule for input-1 term i and input-2 term j.
#: Entries are constant along anti-diagonals: the consequent depends only on
#: the combined level i + j of the two input terms, falling from the last
#: singleton at (0, 0) to the first at (4, 4).
CONSEQUENT = np.clip(7 - np.add.outer(np.arange(N_TERMS), np.arange(N_TERMS)), 0, N_SINGLETONS - 1)
_CONSEQUENT_FLAT = CONSEQUENT.ravel()


@dataclass
class ForwardTrace:
    """Layer-by-layer values of one forward pass, retained for training."""

    in1: float
    in2: float
    mu: np.ndarray  # (2, 5) membership grades, row k for input k
    firing: np.ndarray  # (5, 5) rule firing strengths
    total: float  # sum of all 25 firing strengths
    normalized: np.ndarray  # (5, 5), sums to 1
    out: float

    @property
    def mu1(self) -> np.ndarray:
        return self.mu[0]

    @property
    def mu2(self) -> np.ndarray:
        return self.mu[1]


@dataclass
class AnfisNet:
    """Trainable two-input/one-output network.

    Row k of centers and widths holds the five Gaussian terms of input k;
    a term's grade is exp(-((u - m) / delta)^2), so delta is the distance
    at which the grade falls to 1/e. A single instance belongs to one
    adapter; training mutates it in place.
    """

    centers: np.ndarray  # (2, 5)
    widths: np.ndarray  # (2, 5)
    singletons: np.ndarray  # (7,)
    eta: float = DEFAULT_LEARNING_RATE
    delta_floor: float = DEFAULT_DELTA_FLOOR

    def __post_init__(self) -> None:
        self.centers = np.array(self.centers, dtype=float)
        self.widths = np.array(self.widths, dtype=float)
        if self.centers.shape != (2, N_TERMS) or self.widths.shape != (2, N_TERMS):
            raise ValueError(f"each input needs exactly {N_TERMS} membership terms")
        self.singletons = np.asarray(self.singletons, dtype=float).copy()
        if self.singletons.shape != (N_SINGLETONS,):
            raise ValueError(f"expected {N_SINGLETONS} consequent singletons")

    def forward(self, in1: float, in2: float) -> tuple[float, ForwardTrace]:
        """Evaluate the network and keep the layer trace for training.

        Raises ZeroFiringError if every rule firing strength underflowed;
        callers are expected to keep inputs within a sane multiple of the
        membership widths.
        """
        z = (np.array([[in1], [in2]]) - self.centers) / self.widths
        mu = np.exp(-z * z)
        firing = mu[0, :, None] * mu[1]
        total = float(firing.sum())
        if total < _FIRING_FLOOR:
            raise ZeroFiringError(f"zero total firing at inputs ({in1}, {in2})")
        normalized = firing / total
        out = float((normalized * self.singletons[CONSEQUENT]).sum())
        return out, ForwardTrace(in1, in2, mu, firing, total, normalized, out)

    def output_gradients(self, trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of the output w.r.t. every free parameter at the trace.

        Returns:
            (d_singletons, d_centers, d_widths) with shapes (7,), (2, 5), (2, 5).
        """
        # d(out)/d(w_l): total normalized firing routed to singleton l, summed
        # in ravel order.
        d_w = np.bincount(_CONSEQUENT_FLAT, trace.normalized.ravel(), N_SINGLETONS)

        # d(out)/d(mu): quotient rule against the normalization layer.
        excess = self.singletons[CONSEQUENT] - trace.out
        g_mu = np.array([excess @ trace.mu2, excess.T @ trace.mu1]) / trace.total

        diff = np.array([[trace.in1], [trace.in2]]) - self.centers
        d_mu = g_mu * trace.mu * 2.0
        d_centers = d_mu * diff / self.widths**2
        d_widths = d_mu * diff**2 / self.widths**3
        return d_w, d_centers, d_widths

    def train_step(self, trace: ForwardTrace, e: float, ds_dout: float) -> "AnfisNet":
        """One steepest-descent step on E = e^2 / 2.

        Args:
            trace: the forward pass the error was observed at.
            e: signed training error.
            ds_dout: sensitivity of the error signal to the network output,
                chained into every parameter gradient.

        Returns:
            self, updated in place. A zero step (e or ds_dout zero, or a
            zero learning rate) leaves every parameter untouched.
        """
        g = self.eta * e * ds_dout
        if g == 0.0:
            return self
        d_w, d_centers, d_widths = self.output_gradients(trace)
        self.singletons -= g * d_w
        self.centers -= g * d_centers
        self.widths = np.maximum(self.widths - g * d_widths, self.delta_floor)
        return self


def net_to_params(net: AnfisNet) -> list[float]:
    """Flatten a network to 27 scalars: 10 centers, 10 widths, 7 singletons."""
    return np.concatenate((net.centers.ravel(), net.widths.ravel(), net.singletons)).tolist()


def net_from_params(
    params: list[float],
    eta: float = DEFAULT_LEARNING_RATE,
    delta_floor: float = DEFAULT_DELTA_FLOOR,
) -> AnfisNet:
    """Rebuild a network from the layout produced by net_to_params."""
    if len(params) != N_PARAMS:
        raise ValueError(f"expected {N_PARAMS} parameters, got {len(params)}")
    p = np.asarray(params, dtype=float)
    centers, widths = p[:20].reshape(2, 2, N_TERMS)
    return AnfisNet(centers, widths, p[20:], eta, delta_floor)
