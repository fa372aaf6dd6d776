"""Two-input fuzzy networks with singleton consequents and gradient training.

Five layers: input pass-through, Gaussian fuzzification (five terms per
input), product rule firing (25 rules), normalization over all rules, and
a weighted sum of singleton consequents. Centers, widths, and singletons
are all free parameters trained by steepest descent on a squared error.

One AnfisNet holds a stack of k independent networks as plain arrays with a
leading net axis: centers and widths (k, 2, 5) with row [n, i] for input i
of net n, singletons (k, 7), all views into one (k, 27) parameter array.
Every pass runs all k nets at once, and net n's numbers are bit for bit
those it would get alone. The fixed rule table CONSEQUENT maps each of the
5 x 5 term pairs to a singleton index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


#: 0-based singleton index of the rule for input-1 term i and input-2 term j.
#: Entries are constant along anti-diagonals: the consequent depends only on
#: the combined level i + j of the two input terms, falling from the last
#: singleton at (0, 0) to the first at (4, 4).
CONSEQUENT = np.clip(7 - np.add.outer(np.arange(N_TERMS), np.arange(N_TERMS)), 0, N_SINGLETONS - 1)
_CONSEQUENT_FLAT = CONSEQUENT.ravel()


@dataclass
class ForwardTrace:
    """Layer-by-layer values of one stacked forward pass, retained for training."""

    inputs: np.ndarray  # (k, 2, 1) the two inputs of each net
    mu: np.ndarray  # (k, 2, 5) membership grades, row [n, i] for input i
    firing: np.ndarray  # (k, 5, 5) rule firing strengths
    total: np.ndarray  # (k,) sum of each net's 25 firing strengths
    normalized: np.ndarray  # (k, 5, 5), each net's sums to 1
    table: np.ndarray  # (k, 5, 5) singleton of each rule, C-contiguous
    out: np.ndarray  # (k,)

    @property
    def mu1(self) -> np.ndarray:
        return self.mu[:, 0]

    @property
    def mu2(self) -> np.ndarray:
        return self.mu[:, 1]


@functools.cache
def _singleton_bins(k: int) -> np.ndarray:
    """Bin of every rule of a k-net stack: net n's rules go to bins 7n..7n+6."""
    bins = (_CONSEQUENT_FLAT + N_SINGLETONS * np.arange(k)[:, None]).ravel()
    bins.flags.writeable = False  # shared by every stack of k nets
    return bins


@dataclass
class AnfisNet:
    """A stack of k trainable two-input/one-output networks.

    Row [n, i] of centers and widths holds the five Gaussian terms of input
    i of net n; a term's grade is exp(-((u - m) / delta)^2), so delta is the
    distance at which the grade falls to 1/e. The nets share eta and nothing
    else; training floors every width at DEFAULT_DELTA_FLOOR. All parameters
    live in one (k, 27) array, params, in net_to_params layout; centers,
    widths and singletons are views into it. A single instance belongs to one
    adapter; training mutates it in place.
    """

    centers: np.ndarray  # (k, 2, 5)
    widths: np.ndarray  # (k, 2, 5)
    singletons: np.ndarray  # (k, 7)
    eta: float = DEFAULT_ETA

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        singletons = np.asarray(self.singletons, dtype=float)
        k = len(singletons)
        if centers.shape != (k, 2, N_TERMS) or widths.shape != (k, 2, N_TERMS):
            raise ValueError(f"each input needs exactly {N_TERMS} membership terms")
        if singletons.shape != (k, N_SINGLETONS) or k == 0:
            raise ValueError(f"expected {N_SINGLETONS} consequent singletons per net")
        self.params = np.concatenate((centers.reshape(k, 10), widths.reshape(k, 10), singletons), axis=1)
        self.centers = self.params[:, :10].reshape(k, 2, N_TERMS)
        self.widths = self.params[:, 10:20].reshape(k, 2, N_TERMS)
        self.singletons = self.params[:, 20:]

    def __len__(self) -> int:
        """Number of stacked nets."""
        return len(self.params)

    def forward(self, inputs) -> tuple[np.ndarray, ForwardTrace]:
        """Evaluate every net on its (in1, in2) row and keep the trace for training.

        Raises ZeroFiringError if every rule firing strength of some net
        underflowed; callers are expected to keep inputs within a sane
        multiple of the membership widths.
        """
        u = np.asarray(inputs, dtype=float).reshape(-1, 2, 1)
        z = (u - self.centers) / self.widths
        mu = np.exp(-z * z)
        firing = mu[:, 0, :, None] * mu[:, 1, None, :]
        total = firing.reshape(-1, N_RULES).sum(axis=1)
        if any(t < _FIRING_FLOOR for t in total.tolist()):
            raise ZeroFiringError(f"zero total firing at inputs {u.reshape(-1, 2).tolist()}")
        normalized = firing / total[:, None, None]
        # a C-contiguous table: the fancy-indexed singletons[:, CONSEQUENT] is
        # not, and the gradient's matmul would then round differently
        table = np.take(self.singletons, _CONSEQUENT_FLAT, axis=1).reshape(-1, N_TERMS, N_TERMS)
        out = (normalized * table).reshape(-1, N_RULES).sum(axis=1)
        return out, ForwardTrace(u, mu, firing, total, normalized, table, out)

    def output_gradients(self, trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of each net's output w.r.t. its free parameters at the trace.

        Returns:
            (d_singletons, d_centers, d_widths) with shapes (k, 7), (k, 2, 5), (k, 2, 5).
        """
        k = len(self)
        # d(out)/d(w_l): total normalized firing routed to singleton l, summed
        # in ravel order.
        d_w = np.bincount(_singleton_bins(k), trace.normalized.ravel(), N_SINGLETONS * k)

        # d(out)/d(mu): quotient rule against the normalization layer.
        excess = trace.table - trace.out[:, None, None]
        g_mu = np.concatenate((
            np.matmul(excess, trace.mu[:, 1, :, None]),
            np.matmul(excess.transpose(0, 2, 1), trace.mu[:, 0, :, None]),
        ), axis=2).transpose(0, 2, 1) / trace.total[:, None, None]

        diff = trace.inputs - self.centers
        d_mu = g_mu * trace.mu * 2.0
        d_centers = d_mu * diff / self.widths**2
        d_widths = d_mu * diff**2 / self.widths**3
        return d_w.reshape(k, N_SINGLETONS), d_centers, d_widths

    def train_step(self, trace: ForwardTrace, e, ds_dout) -> "AnfisNet":
        """One steepest-descent step of each net on E = e^2 / 2.

        Args:
            trace: the forward pass the errors were observed at.
            e: signed training error, one per net (a scalar serves every net).
            ds_dout: sensitivity of each error signal to its net's output,
                chained into every parameter gradient.

        Returns:
            self, updated in place. A net whose step is zero (e or ds_dout
            zero, or a zero learning rate) keeps every parameter untouched.
        """
        g = self.eta * np.asarray(e, dtype=float) * np.asarray(ds_dout, dtype=float)
        if g.ndim == 0:
            g = np.full(len(self), g)
        steps = g.tolist()
        if not any(steps):
            return self
        d_w, d_centers, d_widths = self.output_gradients(trace)
        idle = g == 0.0 if 0.0 in steps else None
        if idle is not None:
            kept = self.params[idle]
        self.singletons -= g[:, None] * d_w
        g = g[:, None, None]
        self.centers -= g * d_centers
        np.maximum(self.widths - g * d_widths, DEFAULT_DELTA_FLOOR, out=self.widths)
        if idle is not None:
            self.params[idle] = kept
        return self


def net_to_params(net: AnfisNet) -> np.ndarray:
    """(k, 27) parameters: per net 10 centers, 10 widths, 7 singletons."""
    return net.params.copy()


def net_from_params(params, eta: float = DEFAULT_ETA) -> AnfisNet:
    """Rebuild a stack from the layout produced by net_to_params; a flat
    sequence of 27 values is one net."""
    p = np.asarray(params, dtype=float)
    if p.size == 0 or p.shape[-1] != N_PARAMS:
        raise ValueError(f"expected {N_PARAMS} parameters per net, got shape {p.shape}")
    p = p.reshape(-1, N_PARAMS)
    k = len(p)
    return AnfisNet(p[:, :10].reshape(k, 2, N_TERMS), p[:, 10:20].reshape(k, 2, N_TERMS), p[:, 20:], eta)
