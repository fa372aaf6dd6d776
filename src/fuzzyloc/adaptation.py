"""Innovation-based covariance matching that drives the fuzzy adapters.

A moving window of innovation residuals yields a sample estimate of the
actual innovation covariance. Its mismatch against the filter's theoretical
covariance (and the step-to-step change of that mismatch) feeds one stack of
small fuzzy networks: one net per R channel rewrites the measurement
covariance additively, one net rewrites the process covariance
multiplicatively, and the whole stack then takes one training step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anfis import (
    DEFAULT_DELTA_FLOOR,
    DEFAULT_ETA,
    N_TERMS,
    AnfisNet,
    ForwardTrace,
    net_from_params,
    net_to_params,
)
from .ekf import CovPair, InnovationRecord

DEFAULT_WINDOW = 15
DEFAULT_R_FLOOR = 1e-8

#: Q floor (when no absolute q_floor is given) and Q ceiling, as multiples
#: of the initial Q diagonal.
Q_FLOOR_RATIO = 0.01
Q_CEILING_RATIO = 100.0

#: Initial singleton spread: an R net's singletons step by this fraction of
#: its channel's initial R, the Q net's by this factor.
R_SINGLETON_RATIO = 0.05
Q_SINGLETON_RATIO = 1.5

#: Per-step relaxation of trained network parameters toward their build-time
#: values. Gradient training integrates the mismatch, so a long one-sided
#: transient leaves a lasting offset in the consequents after the mismatch
#: clears (integral windup) and the rewrite keeps pushing at zero mismatch.
#: The leak bounds that drift: under a persistent mismatch the training term
#: dominates, at quiescence the net relaxes back to its designed response.
DEFAULT_LEAK = 0.05

#: Minimum membership input scale as a fraction of the mean |S| sample. The
#: windowed covariance estimate carries sqrt(2/N) relative noise, so the
#: mismatch must be judged against the size of S itself; a smaller scale
#: would let pure sampling noise fire strong corrections.
SCALE_REL_FLOOR = 1.0

#: Net inputs are saturated this many widths beyond the outer centers so the
#: Gaussian terms cannot underflow to a zero total firing strength. Outputs
#: are already flat out there, so saturation does not change the response.
INPUT_SATURATION_WIDTHS = 12.0

_NAN2 = (float("nan"), float("nan"))


#: Term centers in units of the input scale, which is also every term's
#: width: adjacent terms overlap at 1/e.
_TERM_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _spread_net(scale1: float, scale2: float, singletons: np.ndarray, eta: float) -> AnfisNet:
    scales = np.array([[[scale1], [scale2]]])
    return AnfisNet(_TERM_OFFSETS * scales, np.repeat(scales, N_TERMS, axis=2), singletons[None], eta)


def make_additive_net(
    input_scale: float, output_scale: float, eta: float = DEFAULT_ETA
) -> AnfisNet:
    """Network (k = 1) for one R channel: mismatch in, additive correction out.

    Input 1 is the mismatch with membership scale input_scale; input 2 is
    its step change at half that scale. Singletons start at -3c..3c so a
    saturated mismatch maps to a correction of 3 output_scale per step.
    """
    singletons = output_scale * np.arange(-3.0, 4.0)
    return _spread_net(input_scale, 0.5 * input_scale, singletons, eta)


def make_multiplicative_net(scale1: float, scale2: float, eta: float = DEFAULT_ETA) -> AnfisNet:
    """Network (k = 1) for Q: both mismatch channels in, a scale factor out.

    Singletons start geometric, Q_SINGLETON_RATIO^-3 .. ^3, so the center
    rule is exactly 1 (no change) and saturated labels multiply or divide by
    Q_SINGLETON_RATIO^3.
    """
    singletons = Q_SINGLETON_RATIO ** np.arange(-3.0, 4.0)
    return _spread_net(scale1, scale2, singletons, eta)


#: Nets in the adapter's stack per mode: the two R channels first, then the Q net.
MODE_NETS = {"r": 2, "q": 1, "rq": 3}


def saturated_forward(net: AnfisNet, inputs) -> tuple[np.ndarray, ForwardTrace]:
    """Stacked forward pass with every input clamped into its net's live region.

    inputs holds one (in1, in2) row per net.
    """
    clamped = []
    for (in1, in2), (c1, c2), (w1, w2) in zip(inputs, net.centers.tolist(), net.widths.tolist()):
        for u, centers, widths in ((in1, c1, w1), (in2, c2, w2)):
            reach = INPUT_SATURATION_WIDTHS * max(widths)
            clamped.append(min(max(float(u), min(centers) - reach), max(centers) + reach))
    return net.forward(clamped)


def leak_toward(net: AnfisNet, anchor, rate: float) -> AnfisNet:
    """Relax every trained parameter a fraction of the way to its anchor.

    The anchor holds one row per net in net_to_params layout, normally
    captured when the stack was built. A zero rate is a no-op.
    """
    if rate == 0.0:
        return net
    net.params += rate * (np.asarray(anchor, dtype=float).reshape(net.params.shape) - net.params)
    np.maximum(net.widths, DEFAULT_DELTA_FLOOR, out=net.widths)
    return net


def adapt_r(R: np.ndarray, delta, r_floor: float) -> np.ndarray:
    """Additive rewrite of R's diagonal, floored at r_floor.

    delta[i] is the output of channel i's net, which is fed
    (dom[i, i], delta_dom[i, i]).
    """
    R_new = np.array(R, dtype=float, copy=True)
    for i in range(2):
        R_new[i, i] = max(R[i, i] + delta[i], r_floor)
    return R_new


def adapt_q(Q: np.ndarray, factor: float, q_floor: np.ndarray, q_ceiling: np.ndarray) -> np.ndarray:
    """Multiplicative rewrite of Q's diagonal, clamped to [floor, ceiling].

    One shared factor, the Q net's output for (dom[0, 0], dom[1, 1]), scales
    both channels.
    """
    Q_new = np.array(Q, dtype=float, copy=True)
    for i in range(2):
        Q_new[i, i] = min(max(Q[i, i] * factor, q_floor[i]), q_ceiling[i])
    return Q_new


def q_factor_sensitivity(
    records: list[InnovationRecord], G_u: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    """Diagonal sensitivity of S to the multiplicative Q factor, at factor 1.

    d(S_ii)/d(factor) = [H G Q G^T H^T]_ii, averaged over the accepted
    records of the scan.
    """
    GQG = G_u @ Q @ G_u.T
    sens = np.zeros(2)
    n = 0
    for rec in records:
        if rec.accepted and rec.H is not None:
            sens += (rec.H @ GQG @ rec.H.T).diagonal()
            n += 1
    return sens / max(n, 1)


def train_adapters(
    net: AnfisNet,
    trace: ForwardTrace,
    dom_diag: tuple[float, float],
    q_sensitivity: np.ndarray | None = None,
) -> AnfisNet:
    """One gradient step of the whole stack against the current mismatch.

    The stack is laid out as MODE_NETS says: k = 2 holds the two R nets,
    k = 1 the Q net, k = 3 both with the Q net last. An R net treats its
    channel's mismatch as the error with unit output sensitivity. The Q net
    collapses both channels: the error and the S-to-factor sensitivity are
    each averaged across channels.
    """
    k = len(net)
    if k not in MODE_NETS.values():
        raise ValueError(f"a stack of {k} nets fits no adaptation mode")
    d00, d11 = dom_diag
    e, ds = ([d00, d11], [1.0, 1.0]) if k > 1 else ([], [])
    if k != 2:
        if q_sensitivity is None:
            raise ValueError("training the Q net requires q_sensitivity")
        e.append(0.5 * (d00 + d11))
        ds.append(0.5 * (q_sensitivity[0] + q_sensitivity[1]))
    return net.train_step(trace, e, ds)


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunable covariance-matching parameters.

    q_floor is an absolute floor for both Q channels; when None the floor
    is Q_FLOOR_RATIO times the initial Q. The ceiling is always
    Q_CEILING_RATIO times the initial Q, and CovarianceAdapter rejects an
    absolute floor above it. The rest of the fuzzy design is fixed by this
    module's constants and anfis.DEFAULT_DELTA_FLOOR.
    """

    window: int = DEFAULT_WINDOW
    eta: float = DEFAULT_ETA
    r_floor: float = DEFAULT_R_FLOOR
    q_floor: float | None = None

    def __post_init__(self) -> None:
        """Raise ValueError on a parameter the adapter cannot honour.

        Every bound is checked with a comparison that NaN fails: a NaN floor
        would otherwise vanish silently inside max().
        """
        if not self.window >= 2:
            raise ValueError("window must be at least 2")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError("eta must be finite and nonnegative")
        if not (math.isfinite(self.r_floor) and self.r_floor > 0.0):
            raise ValueError("r_floor must be positive and finite")
        if self.q_floor is not None and not (math.isfinite(self.q_floor) and self.q_floor > 0.0):
            raise ValueError("q_floor must be None or positive and finite")


@dataclass
class StepTrace:
    """What the adapter did on one observation step, for logging."""

    active: bool = False
    dom_diag: tuple[float, float] = _NAN2
    delta_dom_diag: tuple[float, float] = _NAN2
    applied_delta_r: tuple[float, float] = _NAN2
    q_factor: float = float("nan")


class CovarianceAdapter:
    """Stateful per-run driver of the residual window and the net stack.

    mode selects which covariances are rewritten: 'r', 'q', or 'rq'. The
    window is a (window, 2) array of the latest residuals, oldest first. The
    stack of MODE_NETS[mode] nets is built lazily on the first full-window
    step so membership scales can be set from the observed spread of the
    innovation covariance diagonal. A zero learning rate disables rewriting
    and training entirely, which reproduces the unadapted filter bit for bit.

    Raises ValueError when an absolute q_floor lies above the Q ceiling
    (Q_CEILING_RATIO times the initial Q) of either channel in a mode that
    rewrites Q.
    """

    def __init__(self, mode: str, initial_cov: CovPair, config: AdaptationConfig | None = None):
        if mode not in MODE_NETS:
            raise ValueError(f"unknown adaptation mode {mode!r}")
        self.mode = mode
        self.config = cfg = config if config is not None else AdaptationConfig()
        self.window = np.zeros((cfg.window, 2))
        self.filled = 0
        self.net: AnfisNet | None = None
        self._anchor: np.ndarray | None = None
        self._dom: np.ndarray | None = None
        self._s_samples: list[np.ndarray] = []
        self._initial_r = np.diag(initial_cov.R).copy()
        initial_q = np.diag(initial_cov.Q)
        self._q_ceiling = Q_CEILING_RATIO * initial_q
        if cfg.q_floor is not None:
            self._q_floor = np.full(2, float(cfg.q_floor))
        else:
            self._q_floor = Q_FLOOR_RATIO * initial_q
        if "q" in mode and np.any(self._q_floor > self._q_ceiling):
            raise ValueError(
                f"q_floor {cfg.q_floor} lies above the Q ceiling {self._q_ceiling.tolist()} "
                f"({Q_CEILING_RATIO:g} x initial Q)"
            )

    def _input_scale(self, samples: np.ndarray) -> float:
        spread = float(np.std(samples))
        floor = SCALE_REL_FLOOR * float(np.mean(np.abs(samples)))
        return max(spread, floor, 1e-12)

    def _build_net(self) -> None:
        samples = np.array(self._s_samples)
        scales = (self._input_scale(samples[:, 0]), self._input_scale(samples[:, 1]))
        nets = []
        if "r" in self.mode:
            nets += [make_additive_net(scale, R_SINGLETON_RATIO * r0)
                     for scale, r0 in zip(scales, self._initial_r)]
        if "q" in self.mode:
            nets.append(make_multiplicative_net(*scales))
        self._anchor = np.concatenate([net_to_params(net) for net in nets])
        self.net = net_from_params(self._anchor, self.config.eta)

    def _push(self, records: list[InnovationRecord]) -> None:
        """Shift the scan's residuals into the window in arrival order."""
        w = len(self.window)
        rows = [rec.residual for rec in records[-w:]]
        m = len(rows)
        if m < w:
            self.window[:-m] = self.window[m:]
        self.window[w - m:] = rows
        self.filled = min(self.filled + len(records), w)

    def actual_cov(self) -> np.ndarray:
        """Windowed sample innovation covariance: mean of residual outer products.

        No mean is subtracted. It is the actual covariance only once the
        window is full.
        """
        return self.window.T @ self.window / len(self.window)

    def after_update(
        self, records: list[InnovationRecord], G_u: np.ndarray, cov: CovPair
    ) -> tuple[CovPair, StepTrace]:
        """Feed one scan's innovation records; returns the covariances to use next.

        Every residual of the scan enters the window, gated or not: the gate
        protects the state update, but censoring the window would bias the
        sample covariance low (the gate cuts off exactly the large residuals)
        and make a matched filter look pessimistic forever. The scan's
        theoretical S is the mean over all records. Adaptation stays
        suspended on ticks where nothing passed the gate and until the window
        is full. The mismatch is evaluated before any rewrite, so training
        always sees the covariances the scan was actually filtered with.

        Trained parameters are leaked toward their build-time values on every
        scan tick, suspended or not; a wedged filter that rejects everything
        would otherwise never unwind a trained offset.
        """
        trace = StepTrace()
        cfg = self.config
        if self.net is not None:
            leak_toward(self.net, self._anchor, DEFAULT_LEAK)
        if not records:
            return cov, trace
        self._push(records)
        # the mean summed in arrival order, as np.mean over axis 0 does
        S_scan = sum((rec.S for rec in records[1:]), records[0].S) / len(records)
        accepted = [rec for rec in records if rec.accepted]
        if not accepted:
            return cov, trace
        if self.net is None and cfg.eta != 0.0:
            self._s_samples.append(S_scan.diagonal().copy())
        if self.filled < len(self.window):
            return cov, trace
        dom = S_scan - self.actual_cov()
        delta_dom = np.zeros_like(dom) if self._dom is None else dom - self._dom
        self._dom = dom
        trace.active = True
        (d00, _), (_, d11) = dom.tolist()
        (dd00, _), (_, dd11) = delta_dom.tolist()
        trace.dom_diag = (d00, d11)
        trace.delta_dom_diag = (dd00, dd11)
        if cfg.eta == 0.0:
            return cov, trace
        if self.net is None:
            self._build_net()
        inputs = [(d00, dd00), (d11, dd11)] if "r" in self.mode else []
        if "q" in self.mode:
            inputs.append((d00, d11))
        out, fwd = saturated_forward(self.net, inputs)
        R_next, Q_next, sens = cov.R, cov.Q, None
        if "r" in self.mode:
            R_next = adapt_r(cov.R, out, cfg.r_floor)
            trace.applied_delta_r = (
                float(R_next[0, 0] - cov.R[0, 0]),
                float(R_next[1, 1] - cov.R[1, 1]),
            )
        if "q" in self.mode:
            sens = q_factor_sensitivity(accepted, G_u, cov.Q)
            trace.q_factor = float(out[-1])
            Q_next = adapt_q(cov.Q, trace.q_factor, self._q_floor, self._q_ceiling)
        train_adapters(self.net, fwd, (d00, d11), sens)
        return CovPair(Q_next, R_next), trace
