"""Innovation-based covariance matching that drives the fuzzy adapters.

A moving window of accepted innovation residuals yields a sample estimate of
the actual innovation covariance. Its mismatch against the filter's
theoretical covariance (and the step-to-step change of that mismatch) feeds
small fuzzy networks that rewrite the measurement covariance additively and
the process covariance multiplicatively, then take one training step each.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .anfis import DEFAULT_DELTA_FLOOR, N_TERMS, AnfisNet, ForwardTrace, net_to_params
from .ekf import CovPair, InnovationRecord
from .errors import WarmupError

DEFAULT_WINDOW = 15
DEFAULT_ETA = 0.01
DEFAULT_R_FLOOR = 1e-8

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


class ResidualWindow:
    """Ring buffer of the most recent accepted innovation residuals."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("window capacity must be at least 2")
        self.capacity = capacity
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def push(self, residual: np.ndarray) -> None:
        self._entries.append(np.asarray(residual, dtype=float).copy())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) == self.capacity

    def as_array(self) -> np.ndarray:
        return np.array(self._entries)


def estimate_actual_cov(window: ResidualWindow) -> np.ndarray:
    """Windowed sample innovation covariance: mean of residual outer products.

    Raises WarmupError until the window is full; a partial window would bias
    the estimate low at startup.
    """
    if not window.is_full:
        raise WarmupError(f"window holds {len(window)} of {window.capacity} residuals")
    arr = window.as_array()
    return arr.T @ arr / window.capacity


@dataclass
class DomState:
    """Covariance mismatch S - C_hat and its change since the last evaluation."""

    dom: np.ndarray | None = None
    delta_dom: np.ndarray | None = None


def compute_dom(S: np.ndarray, c_hat: np.ndarray, prev: DomState) -> DomState:
    """Next mismatch state; the delta is zero on the first evaluation."""
    dom = np.asarray(S, dtype=float) - np.asarray(c_hat, dtype=float)
    if prev.dom is None:
        delta = np.zeros_like(dom)
    else:
        delta = dom - prev.dom
    return DomState(dom=dom, delta_dom=delta)


#: Term centers in units of the input scale, which is also every term's
#: width: adjacent terms overlap at 1/e.
_TERM_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _spread_net(
    scale1: float, scale2: float, singletons: np.ndarray, eta: float, delta_floor: float
) -> AnfisNet:
    scales = np.array([[scale1], [scale2]])
    return AnfisNet(_TERM_OFFSETS * scales, np.repeat(scales, N_TERMS, axis=1), singletons, eta, delta_floor)


def make_additive_net(
    input_scale: float,
    output_scale: float,
    eta: float = DEFAULT_ETA,
    delta_floor: float = DEFAULT_DELTA_FLOOR,
) -> AnfisNet:
    """Network for one R channel: mismatch in, additive correction out.

    Input 1 is the mismatch with membership scale input_scale; input 2 is
    its step change at half that scale. Singletons start at -3c..3c so a
    saturated mismatch maps to a correction of 3 output_scale per step.
    """
    singletons = output_scale * np.arange(-3.0, 4.0)
    return _spread_net(input_scale, 0.5 * input_scale, singletons, eta, delta_floor)


def make_multiplicative_net(
    scale1: float,
    scale2: float,
    ratio: float = 1.5,
    eta: float = DEFAULT_ETA,
    delta_floor: float = DEFAULT_DELTA_FLOOR,
) -> AnfisNet:
    """Network for Q: both mismatch channels in, a scale factor out.

    Singletons start geometric, ratio^-3 .. ratio^3, so the center rule is
    exactly 1 (no change) and saturated labels multiply or divide by ratio^3.
    """
    singletons = ratio ** np.arange(-3.0, 4.0)
    return _spread_net(scale1, scale2, singletons, eta, delta_floor)


@dataclass
class RAdapter:
    """Two additive networks, one per diagonal channel of R."""

    nets: tuple[AnfisNet, AnfisNet]
    r_floor: float = DEFAULT_R_FLOOR


@dataclass
class QAdapter:
    """One multiplicative network fed both diagonal mismatch channels."""

    net: AnfisNet
    q_floor: np.ndarray
    q_ceiling: np.ndarray


def saturated_forward(net: AnfisNet, in1: float, in2: float) -> tuple[float, ForwardTrace]:
    """Forward pass with both inputs clamped into the net's live region."""
    clamped = []
    for u, centers, widths in zip((in1, in2), net.centers.tolist(), net.widths.tolist()):
        reach = INPUT_SATURATION_WIDTHS * max(widths)
        clamped.append(min(max(float(u), min(centers) - reach), max(centers) + reach))
    return net.forward(*clamped)


def leak_toward(net: AnfisNet, anchor: np.ndarray | list[float], rate: float) -> AnfisNet:
    """Relax every trained parameter a fraction of the way to its anchor.

    The anchor is a flat parameter sequence in net_to_params layout, normally
    captured when the network was built. A zero rate is a no-op.
    """
    if rate == 0.0:
        return net
    params = np.concatenate((net.centers.ravel(), net.widths.ravel(), net.singletons))
    params += rate * (np.asarray(anchor, dtype=float) - params)
    net.centers, net.widths = params[:20].reshape(2, 2, N_TERMS)
    np.maximum(net.widths, net.delta_floor, out=net.widths)
    net.singletons = params[20:]
    return net


def adapt_r(
    adapter: RAdapter, dom_state: DomState, R: np.ndarray
) -> tuple[np.ndarray, list[ForwardTrace]]:
    """Additive per-channel rewrite of R's diagonal, floored at r_floor.

    Channel i feeds (dom[i, i], delta_dom[i, i]) to its net and adds the
    output to R[i, i]. Returns the new R and the forward traces needed to
    train the nets afterwards.
    """
    R_new = np.array(R, dtype=float, copy=True)
    traces = []
    for i, net in enumerate(adapter.nets):
        delta, trace = saturated_forward(net, float(dom_state.dom[i, i]), float(dom_state.delta_dom[i, i]))
        R_new[i, i] = max(R[i, i] + delta, adapter.r_floor)
        traces.append(trace)
    return R_new, traces


def adapt_q(
    adapter: QAdapter, dom_state: DomState, Q: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Multiplicative rewrite of Q's diagonal, clamped to [floor, ceiling].

    One shared factor from (dom[0, 0], dom[1, 1]) scales both channels.
    """
    factor, trace = saturated_forward(adapter.net, float(dom_state.dom[0, 0]), float(dom_state.dom[1, 1]))
    Q_new = np.array(Q, dtype=float, copy=True)
    for i in range(2):
        Q_new[i, i] = min(max(Q[i, i] * factor, adapter.q_floor[i]), adapter.q_ceiling[i])
    return Q_new, trace


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
    adapter: RAdapter | QAdapter,
    dom_state: DomState,
    traces: list[ForwardTrace] | ForwardTrace,
    q_sensitivity: np.ndarray | None = None,
) -> RAdapter | QAdapter:
    """One gradient step per network against the current mismatch.

    R nets treat their channel's dom entry as the error with unit output
    sensitivity. The Q net collapses both channels: the error and the
    S-to-factor sensitivity are each averaged across channels.
    """
    if isinstance(adapter, RAdapter):
        for i, (net, trace) in enumerate(zip(adapter.nets, traces)):
            net.train_step(trace, float(dom_state.dom[i, i]), 1.0)
    elif isinstance(adapter, QAdapter):
        if q_sensitivity is None:
            raise ValueError("training the Q net requires q_sensitivity")
        e = 0.5 * float(dom_state.dom[0, 0] + dom_state.dom[1, 1])
        ds = 0.5 * float(q_sensitivity[0] + q_sensitivity[1])
        adapter.net.train_step(traces, e, ds)
    else:
        raise TypeError(f"unknown adapter type {type(adapter).__name__}")
    return adapter


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunable covariance-matching parameters.

    q_floor is an absolute floor for both Q channels; when None the floor
    and ceiling are derived from the initial Q by the two ratios.
    """

    window: int = DEFAULT_WINDOW
    eta: float = DEFAULT_ETA
    r_floor: float = DEFAULT_R_FLOOR
    q_floor: float | None = None
    q_floor_ratio: float = 0.01
    q_ceiling_ratio: float = 100.0
    r_singleton_ratio: float = 0.05
    q_singleton_ratio: float = 1.5
    scale_rel_floor: float = SCALE_REL_FLOOR
    delta_floor: float = DEFAULT_DELTA_FLOOR
    leak: float = DEFAULT_LEAK

    def __post_init__(self) -> None:
        """Raise ValueError on a parameter the adapter cannot honour.

        Every bound is checked with a comparison that NaN fails: a NaN floor
        would otherwise vanish silently inside max().
        """
        if not self.window >= 2:
            raise ValueError("window must be at least 2")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError("eta must be finite and nonnegative")
        for name in ("r_floor", "delta_floor", "q_floor_ratio", "q_ceiling_ratio",
                     "r_singleton_ratio", "q_singleton_ratio"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if not self.q_floor_ratio <= self.q_ceiling_ratio:
            raise ValueError("q_floor_ratio must not exceed q_ceiling_ratio")
        if self.q_floor is not None and not (math.isfinite(self.q_floor) and self.q_floor > 0.0):
            raise ValueError("q_floor must be None or positive and finite")
        if not 0.0 <= self.leak <= 1.0:
            raise ValueError("leak must lie in [0, 1]")
        if not (math.isfinite(self.scale_rel_floor) and self.scale_rel_floor >= 0.0):
            raise ValueError("scale_rel_floor must be finite and nonnegative")


@dataclass
class StepTrace:
    """What the adapter did on one observation step, for logging."""

    active: bool = False
    dom_diag: tuple[float, float] = _NAN2
    delta_dom_diag: tuple[float, float] = _NAN2
    applied_delta_r: tuple[float, float] = _NAN2
    q_factor: float = float("nan")


class CovarianceAdapter:
    """Stateful per-run driver wiring window, mismatch, networks, and training.

    mode selects which covariances are rewritten: 'r', 'q', or 'rq'. The
    networks are built lazily on the first full-window step so membership
    scales can be set from the observed spread of the innovation covariance
    diagonal. A zero learning rate disables rewriting and training entirely,
    which reproduces the unadapted filter bit for bit.
    """

    def __init__(self, mode: str, initial_cov: CovPair, config: AdaptationConfig | None = None):
        if mode not in ("r", "q", "rq"):
            raise ValueError(f"unknown adaptation mode {mode!r}")
        self.mode = mode
        self.config = config if config is not None else AdaptationConfig()
        self.window = ResidualWindow(self.config.window)
        self.dom_state = DomState()
        self.r_adapter: RAdapter | None = None
        self.q_adapter: QAdapter | None = None
        self._built = False
        self._s_samples: list[np.ndarray] = []
        self._initial_r = np.diag(initial_cov.R).copy()
        self._initial_q = np.diag(initial_cov.Q).copy()
        self._r_anchors: list[np.ndarray] = []
        self._q_anchor: np.ndarray | None = None

    def _input_scale(self, samples: np.ndarray) -> float:
        spread = float(np.std(samples))
        floor = self.config.scale_rel_floor * float(np.mean(np.abs(samples)))
        return max(spread, floor, 1e-12)

    def _build_nets(self) -> None:
        cfg = self.config
        samples = np.array(self._s_samples)
        scales = (self._input_scale(samples[:, 0]), self._input_scale(samples[:, 1]))
        if self.mode in ("r", "rq"):
            nets = tuple(
                make_additive_net(
                    scales[i],
                    cfg.r_singleton_ratio * self._initial_r[i],
                    eta=cfg.eta,
                    delta_floor=cfg.delta_floor,
                )
                for i in range(2)
            )
            self.r_adapter = RAdapter(nets, r_floor=cfg.r_floor)
            self._r_anchors = [np.array(net_to_params(net)) for net in nets]
        if self.mode in ("q", "rq"):
            net = make_multiplicative_net(
                scales[0],
                scales[1],
                ratio=cfg.q_singleton_ratio,
                eta=cfg.eta,
                delta_floor=cfg.delta_floor,
            )
            if cfg.q_floor is not None:
                q_floor = np.full(2, float(cfg.q_floor))
            else:
                q_floor = cfg.q_floor_ratio * self._initial_q
            self.q_adapter = QAdapter(net, q_floor, cfg.q_ceiling_ratio * self._initial_q)
            self._q_anchor = np.array(net_to_params(net))
        self._built = True

    def _apply_leak(self) -> None:
        rate = self.config.leak
        if not self._built or rate == 0.0:
            return
        if self.r_adapter is not None:
            for net, anchor in zip(self.r_adapter.nets, self._r_anchors):
                leak_toward(net, anchor, rate)
        if self.q_adapter is not None:
            leak_toward(self.q_adapter.net, self._q_anchor, rate)

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
        self._apply_leak()
        if not records:
            return cov, trace
        for rec in records:
            self.window.push(rec.residual)
        # the mean summed in arrival order, as np.mean over axis 0 does
        S_scan = sum((rec.S for rec in records[1:]), records[0].S) / len(records)
        accepted = [rec for rec in records if rec.accepted]
        if not accepted:
            return cov, trace
        if not self._built and self.config.eta != 0.0:
            self._s_samples.append(S_scan.diagonal().copy())
        if not self.window.is_full:
            return cov, trace
        c_hat = estimate_actual_cov(self.window)
        self.dom_state = compute_dom(S_scan, c_hat, self.dom_state)
        trace.active = True
        (d00, _), (_, d11) = self.dom_state.dom.tolist()
        (dd00, _), (_, dd11) = self.dom_state.delta_dom.tolist()
        trace.dom_diag = (d00, d11)
        trace.delta_dom_diag = (dd00, dd11)
        if self.config.eta == 0.0:
            return cov, trace
        if not self._built:
            self._build_nets()
        R_next, Q_next = cov.R, cov.Q
        if self.r_adapter is not None:
            R_next, r_traces = adapt_r(self.r_adapter, self.dom_state, cov.R)
            train_adapters(self.r_adapter, self.dom_state, r_traces)
            trace.applied_delta_r = (
                float(R_next[0, 0] - cov.R[0, 0]),
                float(R_next[1, 1] - cov.R[1, 1]),
            )
        if self.q_adapter is not None:
            sens = q_factor_sensitivity(accepted, G_u, cov.Q)
            Q_next, q_trace = adapt_q(self.q_adapter, self.dom_state, cov.Q)
            train_adapters(self.q_adapter, self.dom_state, q_trace, q_sensitivity=sens)
            trace.q_factor = float(q_trace.out)
        return CovPair(Q_next, R_next), trace
