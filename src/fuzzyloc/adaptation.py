"""Innovation-based covariance matching that drives the fuzzy adapters.

A moving window of innovation residuals yields a sample estimate of the
actual innovation covariance. Its mismatch against the filter's theoretical
covariance (and the step-to-step change of that mismatch) feeds one stack of
small fuzzy networks: one net per R channel rewrites the measurement
covariance additively, one net rewrites the process covariance
multiplicatively, and the whole stack then takes one training step.

Per scan CovarianceAdapter.after_update runs the steps below in one fixed
order: leak_toward, saturated_forward, adapt_r and adapt_q, then
train_adapters. The nets are one anfis.AnfisNet, a row of 27 floats per
net, built here by make_additive_net and make_multiplicative_net; the
arithmetic on the rows is anfis's, in AnfisNet.leak, anfis.saturate_floats,
AnfisNet.forward and AnfisNet.train_step. The window covariance is summed
oldest residual first, and the Q sensitivity is the filter's own S kernel,
ekf.innovation_cov_floats, with G Q G^T for P and a zero R. R and Q arrive
and leave as a CovPair's variance pairs, so per scan the adapter works on
floats alone; numpy is called only in _build_net, once per run, for np.std
and np.mean of the S samples. None of this calls BLAS, so the adapter's bits
do not depend on the BLAS kernel.
"""

from __future__ import annotations

import numbers
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import models
from .anfis import DEFAULT_ETA, N_TERMS, AnfisNet, saturate_floats
from .ekf import CovPair, InnovationRecord, _cov_pair, innovation_cov_floats

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

_NAN2 = (float("nan"), float("nan"))


#: Term centers in units of the input scale, which is also every term's
#: width: adjacent terms overlap at 1/e.
_TERM_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)

#: Singleton levels: the output of a saturated mismatch is level 3 or -3.
_LEVELS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def _spread_net(scale1: float, scale2: float, singletons: list[float]) -> list[float]:
    return ([o * scale1 for o in _TERM_OFFSETS] + [o * scale2 for o in _TERM_OFFSETS]
            + [scale1] * N_TERMS + [scale2] * N_TERMS + singletons)


def make_additive_net(input_scale: float, output_scale: float) -> list[float]:
    """Parameter row of the net for one R channel: mismatch in, additive correction out.

    Input 1 is the mismatch with membership scale input_scale; input 2 is
    its step change at half that scale. Singletons start at -3c..3c so a
    saturated mismatch maps to a correction of 3 output_scale per step.
    """
    return _spread_net(input_scale, 0.5 * input_scale, [output_scale * v for v in _LEVELS])


def make_multiplicative_net(scale1: float, scale2: float) -> list[float]:
    """Parameter row of the net for Q: both mismatch channels in, a scale factor out.

    Singletons start geometric, Q_SINGLETON_RATIO^-3 .. ^3, so the center
    rule is exactly 1 (no change) and saturated labels multiply or divide by
    Q_SINGLETON_RATIO^3.
    """
    return _spread_net(scale1, scale2, [Q_SINGLETON_RATIO ** v for v in _LEVELS])


#: Nets in the adapter's stack per mode: the two R channels first, then the Q net.
MODE_NETS = {"r": 2, "q": 1, "rq": 3}


def saturated_forward(net: AnfisNet, rows) -> tuple[list[float], list[tuple]]:
    """AnfisNet.forward with every (in1, in2) row clamped into its net's live
    region by anfis.saturate_floats.

    Raises ValueError unless there is one row per net, as AnfisNet.forward does.
    """
    params = net.params
    if len(rows) != len(params):
        raise ValueError(f"expected one input row per net ({len(params)}), got {len(rows)}")
    return net.forward([saturate_floats(p, in1, in2) for p, (in1, in2) in zip(params, rows)])


def leak_toward(net: AnfisNet, anchor: list[list[float]], rate: float) -> AnfisNet:
    """Relax every trained parameter a fraction of the way to its anchor (AnfisNet.leak).

    The anchor holds one row per net, normally captured when the stack was
    built. A zero rate is a no-op. Raises ValueError unless there is one
    anchor row per net.
    """
    return net.leak(anchor, rate)


def adapt_r(r00: float, r11: float, delta0: float, delta1: float,
            r_floor: float) -> tuple[float, float]:
    """Additive rewrite of R's diagonal (r00, r11), floored at r_floor.

    delta0 and delta1 are the outputs of the two R nets, fed
    (dom_00, delta_dom_00) and (dom_11, delta_dom_11).
    """
    return max(r00 + delta0, r_floor), max(r11 + delta1, r_floor)


def adapt_q(q00: float, q11: float, factor: float, q_floor, q_ceiling) -> tuple[float, float]:
    """Multiplicative rewrite of Q's diagonal (q00, q11), clamped per channel to
    [q_floor[i], q_ceiling[i]].

    One shared factor, the Q net's output for (dom_00, dom_11), scales both
    channels.
    """
    return (min(max(q00 * factor, q_floor[0]), q_ceiling[0]),
            min(max(q11 * factor, q_floor[1]), q_ceiling[1]))


def q_sensitivity_floats(records: list[InnovationRecord], gqg: tuple) -> tuple[float, float]:
    """Diagonal sensitivity of S to the multiplicative Q factor, at factor 1.

    d(S_ii)/d(factor) = [H G Q G^T H^T]_ii, averaged in order over the
    accepted records of the scan, given G Q G^T's upper triangle
    (models.control_cov_floats): the diagonal of ekf.innovation_cov_floats'
    S with G Q G^T for P and a zero R. Each record's H has the phi column
    (0, -1), as ekf.step records it.
    """
    s0 = s1 = 0.0
    n = 0
    for rec in records:
        if rec.accepted and rec.H is not None:
            (h00, h01, _), (h10, h11, _) = rec.H
            # R's +0.0 only turns a -0.0 into 0.0, which the sums from 0.0 do anyway
            d0, _, d1 = innovation_cov_floats(*gqg, h00, h01, h10, h11, 0.0, 0.0)
            s0 += d0
            s1 += d1
            n += 1
    n = max(n, 1)
    return s0 / n, s1 / n


def train_adapters(
    net: AnfisNet,
    traces: list[tuple],
    dom_diag: tuple[float, float],
    q_sensitivity: tuple[float, float] | None = None,
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
    errors, sensitivities = ([d00, d11], [1.0, 1.0]) if k > 1 else ([], [])
    if k != 2:
        if q_sensitivity is None:
            raise ValueError("training the Q net requires q_sensitivity")
        errors.append(0.5 * (d00 + d11))
        sensitivities.append(0.5 * (q_sensitivity[0] + q_sensitivity[1]))
    return net.train_step(traces, errors, sensitivities)


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
        """Raise ValueError, naming the field, on a parameter the adapter cannot honour.

        eta and the floors must be numbers as a scenario's are (models._is_number:
        a real number that is not a bool). Every bound is checked with a
        comparison that NaN fails: a NaN floor would otherwise vanish silently
        inside max().
        """
        if not isinstance(self.window, numbers.Integral):  # a bool is below 2 as well
            raise ValueError(f"window must be an integer, got {self.window!r}")
        if not 2 <= self.window <= sys.maxsize:  # deque's maxlen bound
            raise ValueError(f"window must lie in [2, {sys.maxsize}]")
        if not (models._is_finite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be a finite nonnegative number, got {self.eta!r}")
        if not (models._is_finite(self.r_floor) and self.r_floor > 0.0):
            raise ValueError(f"r_floor must be a positive finite number, got {self.r_floor!r}")
        if self.q_floor is not None and not (models._is_finite(self.q_floor) and self.q_floor > 0.0):
            raise ValueError(f"q_floor must be None or a positive finite number, got {self.q_floor!r}")


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
    window holds the latest residuals as (dr, dtheta) tuples, oldest first.
    net is an AnfisNet of MODE_NETS[mode] nets, R channels first, and
    _anchor holds their build-time parameter rows. The nets are built
    lazily on the first full-window step so membership scales can be set
    from the observed spread of the innovation covariance diagonal. A zero
    learning rate disables rewriting and training entirely, which
    reproduces the unadapted filter bit for bit.

    Raises ValueError when an absolute q_floor lies above the Q ceiling
    (Q_CEILING_RATIO times the initial Q) of either channel in a mode that
    rewrites Q.
    """

    def __init__(self, mode: str, initial_cov: CovPair, config: AdaptationConfig | None = None):
        if mode not in MODE_NETS:
            raise ValueError(f"unknown adaptation mode {mode!r}")
        self.mode = mode
        self.config = cfg = config if config is not None else AdaptationConfig()
        self.window: deque[tuple[float, float]] = deque(maxlen=cfg.window)
        self.net: AnfisNet | None = None
        self._anchor: list[list[float]] | None = None
        self._dom: tuple[float, float] | None = None
        self._s_samples: list[tuple[float, float]] = []
        q00, q11 = initial_cov.Q
        self._initial_r = initial_cov.R
        self._r_floor = float(cfg.r_floor)  # so that adapt_r's pair is floats, as _cov_pair needs
        self._q_ceiling = (Q_CEILING_RATIO * q00, Q_CEILING_RATIO * q11)
        if cfg.q_floor is not None:
            self._q_floor = (float(cfg.q_floor), float(cfg.q_floor))
        else:
            self._q_floor = (Q_FLOOR_RATIO * q00, Q_FLOOR_RATIO * q11)
        if "q" in mode and any(f > c for f, c in zip(self._q_floor, self._q_ceiling)):
            raise ValueError(
                f"q_floor {cfg.q_floor} lies above the Q ceiling {list(self._q_ceiling)} "
                f"({Q_CEILING_RATIO:g} x initial Q)"
            )

    def _input_scale(self, samples: np.ndarray) -> float:
        spread = float(np.std(samples))
        floor = SCALE_REL_FLOOR * float(np.mean(np.abs(samples)))
        return max(spread, floor, 1e-12)

    def _build_net(self) -> None:
        samples = np.array(self._s_samples)
        scales = (self._input_scale(samples[:, 0]), self._input_scale(samples[:, 1]))
        rows = []
        if "r" in self.mode:
            rows += [make_additive_net(scale, R_SINGLETON_RATIO * r0)
                     for scale, r0 in zip(scales, self._initial_r)]
        if "q" in self.mode:
            rows.append(make_multiplicative_net(*scales))
        self._anchor = rows
        self.net = AnfisNet(rows, self.config.eta)

    def actual_cov_floats(self) -> tuple[float, float, float]:
        """(c00, c01, c11) of the windowed sample innovation covariance.

        The mean of the residual outer products, each entry summed in window
        order, oldest first. No mean is subtracted. It is the actual
        covariance only once the window is full.
        """
        c00 = c01 = c11 = 0.0
        for r0, r1 in self.window:
            c00 += r0 * r0
            c01 += r0 * r1
            c11 += r1 * r1
        w = self.window.maxlen
        return c00 / w, c01 / w, c11 / w

    def after_update(
        self, records: list[InnovationRecord], G_u: tuple[float, ...] | None, cov: CovPair
    ) -> tuple[CovPair, StepTrace]:
        """Feed one scan's innovation records; returns the covariances to use next.

        G_u holds the six entries of the control Jacobian of the scan's
        prediction, row-major (models.motion_with_jacobian_floats[3:]). It is read
        only in the Q modes; the R mode takes None.

        Every residual of the scan enters the window, gated or not: the gate
        protects the state update, but censoring the window would bias the
        sample covariance low (the gate cuts off exactly the large residuals)
        and make a matched filter look pessimistic forever. The scan's
        theoretical S is the mean over all records, summed in arrival order.
        Adaptation stays suspended on ticks where nothing passed the gate and
        until the window is full. The mismatch is evaluated before any
        rewrite, so training always sees the covariances the scan was
        actually filtered with.

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
        window = self.window
        s00 = s11 = 0.0
        accepted = []
        for rec in records:
            v0, v1 = rec.residual
            window.append((v0, v1))
            (a, _), (_, d) = rec.S
            s00 += a
            s11 += d
            if rec.accepted:
                accepted.append(rec)
        s00 /= len(records)
        s11 /= len(records)
        if not accepted:
            return cov, trace
        if self.net is None and cfg.eta != 0.0:
            self._s_samples.append((s00, s11))
        if len(window) < window.maxlen:
            return cov, trace
        c00, _, c11 = self.actual_cov_floats()
        d00, d11 = s00 - c00, s11 - c11
        dd00, dd11 = (0.0, 0.0) if self._dom is None else (d00 - self._dom[0], d11 - self._dom[1])
        self._dom = (d00, d11)
        trace.active = True
        trace.dom_diag = (d00, d11)
        trace.delta_dom_diag = (dd00, dd11)
        if cfg.eta == 0.0:
            return cov, trace
        if self.net is None:
            self._build_net()
        inputs = [(d00, dd00), (d11, dd11)] if "r" in self.mode else []
        if "q" in self.mode:
            inputs.append((d00, d11))
        outputs, traces = saturated_forward(self.net, inputs)
        R_next, Q_next, sens = cov.R, cov.Q, None
        if "r" in self.mode:
            r00, r11 = cov.R
            R_next = adapt_r(r00, r11, outputs[0], outputs[1], self._r_floor)
            trace.applied_delta_r = (R_next[0] - r00, R_next[1] - r11)
        if "q" in self.mode:
            sens = q_sensitivity_floats(accepted, models.control_cov_floats(*G_u, *cov.Q))
            trace.q_factor = outputs[-1]
            Q_next = adapt_q(*cov.Q, trace.q_factor, self._q_floor, self._q_ceiling)
        train_adapters(self.net, traces, (d00, d11), sens)
        return _cov_pair(Q_next, R_next), trace
