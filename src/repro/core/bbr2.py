"""BBRv2 fluid model (Section 3.4 of the paper).

BBRv2 keeps BBRv1's two estimators (``BtlBw``/``x_btl`` and
``RTprop``/``tau_min``) and its ProbeRTT state, but restructures the
bandwidth-probing (ProbeBW) state to be less aggressive:

* probing periods are much longer — ``min(63 RTTs, 2..3 s)`` instead of
  eight RTTs;
* a period consists of a *cruise* → *probe up* → *probe down* → *cruise*
  sequence driven by measurements rather than by time: the probe raises the
  pacing gain to 5/4 until the inflight reaches 5/4 of the estimated BDP or
  loss exceeds 2 %, then the 3/4 drain gain is applied until the inflight
  falls back to ``min(BDP, 0.85 * inflight_hi)``;
* two additional inflight bounds couple the sending rate to loss:
  ``inflight_hi`` (``w_hi``, long-term, grows while probing succeeds and is
  multiplicatively decreased by 30 % under >2 % loss) and ``inflight_lo``
  (``w_lo``, short-term, active while cruising and decreased by 30 % per RTT
  under loss);
* the ProbeRTT inflight limit is half the estimated BDP instead of four
  segments.

The mode variables ``m_dwn`` (probe-down / draining) and ``m_crs``
(cruising) of the paper are kept as discrete states with crisp guarded
transitions (Eq. 26/27); the continuous dynamics of ``w_hi``/``w_lo``
(Eq. 29/30) are integrated as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable
from typing import Any

import numpy as np

from . import smooth
from .flow import FlowInputsBatch, FlowState, FlowStateBatch, FluidCCA
from .network import Network
from .smooth import HALF, ONE, TWO, ZERO

#: Duration of the ProbeRTT state (seconds).
PROBE_RTT_DURATION_S: float = 0.2
#: Interval without a new minimum-RTT sample after which ProbeRTT is entered.
PROBE_RTT_INTERVAL_S: float = 10.0
#: Maximum probing period in estimated RTTs.
MAX_PERIOD_RTTS: float = 63.0
#: Base of the wall-clock bound on the probing period (seconds).
BASE_PERIOD_S: float = 2.0
#: Pacing gain while probing for bandwidth.
PROBE_GAIN: float = 1.25
#: Pacing gain while draining (probe-down).
DRAIN_GAIN: float = 0.75
#: Inflight threshold (in estimated BDPs) that terminates the probe-up phase.
PROBE_INFLIGHT_GAIN: float = 1.25
#: Loss threshold that terminates the probe-up phase and triggers w_hi decrease.
LOSS_THRESHOLD: float = 0.02
#: Multiplicative decrease applied to inflight_hi / inflight_lo under loss.
BETA: float = 0.3
#: Headroom kept below inflight_hi when draining/cruising.
HEADROOM: float = 0.15
#: Congestion window in ProbeBW state, in estimated BDPs (the generic BBR cap).
CWND_GAIN: float = 2.0
#: Tolerance when deciding whether a latency sample establishes a new minimum.
RTT_SAMPLE_EPS_S: float = 1e-6
#: Cap on the exponent of the w_hi exponential-growth term (numerical guard).
MAX_GROWTH_EXPONENT: float = 20.0

# The per-step operands, bound once (see ``smooth.constant``).
_RTT_SAMPLE_EPS = smooth.constant(RTT_SAMPLE_EPS_S)
# Floor of ``tau_min`` where it divides.
_RTT_FLOOR = smooth.constant(1e-6)
_PROBE_RTT_DURATION = smooth.constant(PROBE_RTT_DURATION_S)
_PROBE_RTT_INTERVAL = smooth.constant(PROBE_RTT_INTERVAL_S)
_MAX_PERIOD_RTTS = smooth.constant(MAX_PERIOD_RTTS)
_PROBE_INFLIGHT_GAIN = smooth.constant(PROBE_INFLIGHT_GAIN)
_LOSS_THRESHOLD = smooth.constant(LOSS_THRESHOLD)
_BETA = smooth.constant(BETA)
_DRAIN_HEADROOM = smooth.constant(1.0 - HEADROOM)
_PROBE_EXCESS = smooth.constant(PROBE_GAIN - 1.0)
_DRAIN_DEFICIT = smooth.constant(1.0 - DRAIN_GAIN)
_CWND_GAIN = smooth.constant(CWND_GAIN)
_MAX_GROWTH_EXPONENT = smooth.constant(MAX_GROWTH_EXPONENT)


@dataclass(frozen=True)
class Bbr2Params:
    """Tunable parameters of the BBRv2 fluid model.

    Attributes:
        initial_btl_share: initial ``BtlBw`` estimate as a share of the
            bottleneck capacity (``None`` = 1.0, the post-start-up estimate;
            see :class:`repro.core.bbr1.Bbr1Params`).
        whi_init_bdp: initial ``inflight_hi`` in estimated-BDP multiples.
            ``None`` uses the value a successful probe would measure
            (``PROBE_INFLIGHT_GAIN``); Insight 5 is reproduced by choosing it
            buffer-dependent (what an unconstrained start-up would measure).
        loss_epsilon: offset applied to the loss sigmoid of Eq. (30) so that
            zero loss causes no ``w_lo`` decay.
        sigmoid_sharpness: sharpness of the smooth gates on time/volume terms.
        loss_sharpness: sharpness of the gates whose argument is a loss
            probability.  Loss probabilities live in [0, 1], so these gates
            need a much sharper sigmoid than the time-valued ones for the
            zero-loss case to yield a negligible reaction.
    """

    initial_btl_share: float | None = None
    whi_init_bdp: float | None = None
    loss_epsilon: float = 5e-3
    sigmoid_sharpness: float = smooth.DEFAULT_SHARPNESS
    loss_sharpness: float = 2000.0


class Bbr2Fluid(FluidCCA):
    """Fluid model of BBRv2."""

    name = "bbr2"
    traced = (
        "x_btl", "x_max", "tau_min", "cwnd", "w_hi", "w_lo",
        "m_prt", "m_dwn", "m_crs", "t_pbw",
    )
    untraced = ("x_max_prev", "t_prt", "period_wall_s")

    def __init__(self, params: Bbr2Params | None = None) -> None:
        self.params = params or Bbr2Params()
        self._sharpness = smooth.constant(self.params.sigmoid_sharpness)
        self._loss_sharpness = smooth.constant(self.params.loss_sharpness)
        self._loss_epsilon = smooth.constant(self.params.loss_epsilon)

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #

    def initial_state(
        self, flow_index: int, num_flows: int, network: Network, params: Any
    ) -> FlowState:
        bottleneck = network.links[network.bottleneck_of(flow_index)]
        share = self.params.initial_btl_share
        if share is None:
            share = 1.0
        if not 0 < share <= 2.0:
            raise ValueError("initial_btl_share must be in (0, 2]")
        state = FlowState()
        extra = state.extra
        extra["x_btl"] = share * bottleneck.capacity_pps
        extra["x_max"] = 0.0
        extra["x_max_prev"] = 0.0
        extra["tau_min"] = network.propagation_rtt(flow_index)
        extra["t_pbw"] = 0.0
        extra["t_prt"] = 0.0
        extra["m_prt"] = 0.0
        extra["m_dwn"] = 0.0
        extra["m_crs"] = 0.0
        # Deterministic desynchronisation of the wall-clock probing period
        # (Eq. 24): agent i uses 2 + i/N seconds.
        extra["period_wall_s"] = BASE_PERIOD_S + flow_index / max(num_flows, 1)
        bdp = extra["x_btl"] * extra["tau_min"]
        whi_bdp = self.params.whi_init_bdp
        if whi_bdp is None:
            whi_bdp = PROBE_INFLIGHT_GAIN
        extra["w_hi"] = whi_bdp * bdp
        extra["w_lo"] = min(bdp, (1.0 - HEADROOM) * extra["w_hi"])
        extra["cwnd"] = CWND_GAIN * bdp
        state.rate = 0.0
        return state

    # ------------------------------------------------------------------ #
    # Per-step dynamics
    # ------------------------------------------------------------------ #

    def batch_key(self) -> Hashable:
        # ``initial_btl_share``/``whi_init_bdp`` only affect ``initial_state``.
        return (
            "bbr2",
            self.params.sigmoid_sharpness,
            self.params.loss_sharpness,
            self.params.loss_epsilon,
        )

    def step_all(
        self, batch: FlowStateBatch, inputs: FlowInputsBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        (
            inflight_old, x_btl, x_max, tau_min_old, _, w_hi_old, w_lo_old,
            m_prt_old, m_dwn_old, m_crs, t_pbw, x_max_prev, t_prt, period_wall_s,
        ) = batch.block
        dt = inputs.dt
        rate_old = batch.rate

        # --- RTprop estimation (Eq. 9) -------------------------------- #
        new_min_sample = inputs.tau_delayed < tau_min_old - _RTT_SAMPLE_EPS
        tau_min = np.minimum(tau_min_old, inputs.tau_delayed)
        tau_min_floor = np.maximum(tau_min, _RTT_FLOOR)

        # --- ProbeRTT state machine (Eq. 11-13) ------------------------ #
        # Rare transitions (ProbeRTT toggles, period rollovers, fresh
        # minimum-RTT samples) sit behind ``np.count_nonzero`` guards: an
        # all-False ``np.where`` is the identity, so skipping it is bit-exact.
        in_probe_rtt = m_prt_old >= HALF
        any_probe_rtt = np.count_nonzero(in_probe_rtt)
        t_prt = t_prt + dt
        if np.count_nonzero(new_min_sample):
            t_prt = np.where(new_min_sample & ~in_probe_rtt, ZERO, t_prt)
        if any_probe_rtt:
            threshold = np.where(in_probe_rtt, _PROBE_RTT_DURATION, _PROBE_RTT_INTERVAL)
            expired = t_prt >= threshold
        else:
            expired = t_prt >= _PROBE_RTT_INTERVAL
        if np.count_nonzero(expired):
            # ``m_prt`` is exactly 0.0 or 1.0, so the toggle is ``1 - m_prt``.
            m_prt = np.where(expired, ONE - m_prt_old, m_prt_old)
            t_prt = np.where(expired, ZERO, t_prt)
            in_probe_rtt = m_prt >= HALF
            any_probe_rtt = np.count_nonzero(in_probe_rtt)
        else:
            m_prt = m_prt_old

        # --- Probing-period clock (Eq. 16, 24) -------------------------- #
        period = np.minimum(_MAX_PERIOD_RTTS * tau_min, period_wall_s)
        t_pbw = t_pbw + dt
        rollover = t_pbw >= period
        if np.count_nonzero(rollover):
            x_max_prev = np.where(rollover, x_max, x_max_prev)
            x_max = np.where(rollover, ZERO, x_max)
            t_pbw = np.where(rollover, ZERO, t_pbw)
            m_crs = np.where(rollover, ZERO, m_crs)
        measurement = rate_old if inputs.literal_xmax else inputs.delivery_rate
        x_max = np.maximum(x_max, measurement)

        # --- Current estimates and derived windows ---------------------- #
        bdp = x_btl * tau_min
        drain_target = np.minimum(bdp, _DRAIN_HEADROOM * w_hi_old)
        loss = inputs.path_loss

        # --- Mode transitions (Eq. 26-27), crisp ------------------------ #
        cruising = m_crs >= HALF
        draining = m_dwn_old >= HALF
        past_first_rtt = t_pbw > tau_min
        start_drain = (
            ~cruising
            & ~draining
            & past_first_rtt
            & ((inflight_old > _PROBE_INFLIGHT_GAIN * bdp) | (loss > _LOSS_THRESHOLD))
        )
        draining = draining | start_drain
        if np.count_nonzero(draining):
            # Eq. (28): while draining, adopt the max delivery rate of the
            # last two periods as the new bottleneck-bandwidth estimate.
            target = np.maximum(x_max, x_max_prev)
            x_btl = np.where(
                draining & (target > ZERO),
                x_btl + dt * (target - x_btl) / tau_min_floor,
                x_btl,
            )
            drained = draining & (inflight_old <= drain_target)
            draining = draining & ~drained
            cruising = cruising | drained
            m_crs = np.where(drained, ONE, m_crs)
            bdp = x_btl * tau_min
            drain_target = np.minimum(bdp, _DRAIN_HEADROOM * w_hi_old)
        # ``m_dwn`` is 1.0 exactly while draining and 0.0 otherwise (flows
        # with ``m_dwn == 1`` are always in the ``draining`` set).
        m_dwn = draining.astype(float)

        # --- Gate sigmoids (Eq. 29/30), one stacked evaluation ---------- #
        # The four arguments are written into the rows of one (4, n) block.
        args = np.empty((4, t_pbw.shape[0]))
        np.multiply(t_pbw - tau_min, self._sharpness / tau_min_floor, out=args[0])
        np.multiply(
            inflight_old - w_hi_old,
            self._sharpness / np.maximum(bdp, ONE),
            out=args[1],
        )
        np.multiply(loss - _LOSS_THRESHOLD, self._loss_sharpness, out=args[2])
        np.multiply(loss - self._loss_epsilon, self._loss_sharpness, out=args[3])
        gates = smooth.scaled_sigmoid(args)
        probe_gate = gates[0]

        # --- inflight_hi dynamics (Eq. 29) ------------------------------ #
        growth_gate = (~cruising).astype(float) * probe_gate * gates[1]
        exponent = np.minimum(t_pbw / tau_min_floor, _MAX_GROWTH_EXPONENT)
        growth = growth_gate * (TWO**exponent)
        decrease = gates[2] * _BETA / tau_min_floor * w_hi_old
        w_hi = np.maximum(ONE, w_hi_old + dt * (growth - decrease))

        # --- inflight_lo dynamics (Eq. 30) ------------------------------ #
        loss_gate = gates[3]
        w_lo = np.where(
            cruising,
            w_lo_old + dt * (-loss_gate * _BETA * w_lo_old / tau_min_floor),
            w_lo_old + dt * (drain_target - w_lo_old) / tau_min_floor,
        )
        w_lo = np.maximum(ONE, w_lo)

        # --- Pacing rate (Eq. 25) --------------------------------------- #
        pacing = x_btl * (
            ONE
            + _PROBE_EXCESS * probe_gate * (ONE - m_dwn)
            - _DRAIN_DEFICIT * m_dwn
        )

        # --- Congestion window and sending rate (Eq. 31-32, 14-15) ------ #
        bound = np.where(cruising, w_lo, w_hi)
        cwnd_pbw = np.minimum(_CWND_GAIN * bdp, bound)
        tau = inputs.tau
        if any_probe_rtt:
            cwnd_prt = bdp / TWO
            cwnd = np.where(in_probe_rtt, cwnd_prt, cwnd_pbw)
            rate = np.where(
                in_probe_rtt, cwnd_prt / tau, np.minimum(cwnd_pbw / tau, pacing)
            )
        else:
            cwnd = cwnd_pbw
            rate = np.minimum(cwnd_pbw / tau, pacing)
        inflight = self.update_inflight_all(inflight_old, inputs, rate)
        return rate, np.array(
            (
                inflight, x_btl, x_max, tau_min, cwnd, w_hi, w_lo,
                m_prt, m_dwn, m_crs, t_pbw, x_max_prev, t_prt, period_wall_s,
            )
        )
