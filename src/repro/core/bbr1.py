"""BBRv1 fluid model (Sections 3.2 and 3.3 of the paper).

BBRv1 continuously estimates two path properties — the bottleneck bandwidth
``BtlBw`` (state ``x_btl``) and the minimum round-trip time ``RTprop``
(state ``tau_min``) — and alternates between two operating states:

* **ProbeBW** (almost all of the time): an eight-phase gain cycle of
  duration ``tau_min`` per phase.  One phase paces at ``5/4 * BtlBw`` to
  probe for more bandwidth, the next at ``3/4 * BtlBw`` to drain the queue
  built up by the probe, the remaining six at ``BtlBw``.  At the end of the
  cycle the maximum measured delivery rate becomes the new ``BtlBw``.
* **ProbeRTT** (200 ms every 10 s, unless a new minimum RTT keeps being
  observed): the inflight is cut to four segments so the queue drains and
  the propagation delay becomes measurable.

In addition, BBRv1 maintains a congestion window of twice the estimated
BDP, which — contrary to the design intention — becomes the binding
constraint when competing against loss-based CCAs in deep buffers.

Modelling notes: the paper expresses the inherently discrete
parts (ProbeRTT toggling, period rollover, the adoption of the period's
maximum delivery rate) as sharp sigmoids so that the whole system reads as
one ODE.  We implement those transitions as crisp guarded updates evaluated
every integration step — which is what the sharp sigmoids approximate and
what the real protocol does — and keep the genuinely continuous parts
(probing pulse shape, inflight integration) smooth.
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
#: ProbeRTT inflight limit of BBRv1, in segments (packets).
PROBE_RTT_CWND_PKTS: float = 4.0
#: Number of phases in the ProbeBW gain cycle.
GAIN_CYCLE_PHASES: int = 8
#: Pacing-gain of the probing phase.
PROBE_GAIN: float = 1.25
#: Pacing-gain of the draining phase.
DRAIN_GAIN: float = 0.75
#: Congestion window in ProbeBW state, in estimated BDPs.
CWND_GAIN: float = 2.0
#: Tolerance when deciding whether a latency sample establishes a new minimum.
RTT_SAMPLE_EPS_S: float = 1e-6

# The per-step operands, bound once (see ``smooth.constant``).
_RTT_SAMPLE_EPS = smooth.constant(RTT_SAMPLE_EPS_S)
# Floor of ``tau_min`` where it divides.
_RTT_FLOOR = smooth.constant(1e-6)
_PROBE_RTT_DURATION = smooth.constant(PROBE_RTT_DURATION_S)
_PROBE_RTT_INTERVAL = smooth.constant(PROBE_RTT_INTERVAL_S)
_PROBE_RTT_CWND = smooth.constant(PROBE_RTT_CWND_PKTS)
_PHASES = smooth.constant(GAIN_CYCLE_PHASES)
_PROBE_EXCESS = smooth.constant(PROBE_GAIN - 1.0)
_DRAIN_DEFICIT = smooth.constant(1.0 - DRAIN_GAIN)
_CWND_GAIN = smooth.constant(CWND_GAIN)


@dataclass(frozen=True)
class Bbr1Params:
    """Tunable parameters of the BBRv1 fluid model.

    Attributes:
        initial_btl_share: initial ``BtlBw`` estimate as a share of the
            bottleneck capacity.  ``None`` (default) means ``1.0``: every
            flow starts believing it can obtain the full capacity, which is
            the state the (unmodelled) start-up phase leaves behind and which
            the paper's experiments include in their 5-second aggregates.
            ``1/N`` starts the flows at their fair share instead.
        sigmoid_sharpness: sharpness of the probing-pulse sigmoids (Eq. 21).
    """

    initial_btl_share: float | None = None
    sigmoid_sharpness: float = smooth.DEFAULT_SHARPNESS


class Bbr1Fluid(FluidCCA):
    """Fluid model of BBRv1."""

    name = "bbr1"
    traced = ("x_btl", "x_max", "tau_min", "cwnd", "m_prt", "t_pbw")
    untraced = ("t_prt", "phase")

    def __init__(self, params: Bbr1Params | None = None) -> None:
        self.params = params or Bbr1Params()
        self._sharpness = smooth.constant(self.params.sigmoid_sharpness)

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
        extra["tau_min"] = network.propagation_rtt(flow_index)
        extra["t_pbw"] = 0.0
        extra["t_prt"] = 0.0
        extra["m_prt"] = 0.0
        # Desynchronise the gain cycles of same-RTT flows deterministically,
        # exactly as the paper does (phase = agent id modulo 6, Sec. 3.3).
        extra["phase"] = float(flow_index % 6)
        extra["cwnd"] = CWND_GAIN * extra["x_btl"] * extra["tau_min"]
        state.rate = 0.0
        return state

    # ------------------------------------------------------------------ #
    # Per-step dynamics
    # ------------------------------------------------------------------ #

    def batch_key(self) -> Hashable:
        # ``initial_btl_share`` only affects ``initial_state``; the per-step
        # dynamics depend solely on the pulse sharpness.
        return ("bbr1", self.params.sigmoid_sharpness)

    def step_all(
        self, batch: FlowStateBatch, inputs: FlowInputsBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        (
            inflight_old, x_btl, x_max, tau_min_old, _, m_prt_old, t_pbw, t_prt, phase,
        ) = batch.block
        dt = inputs.dt
        rate_old = batch.rate

        # The rare branches (ProbeRTT toggles, gain-cycle rollover, new
        # minimum-RTT samples) are guarded by ``np.count_nonzero`` checks
        # (a third of the cost of ``ndarray.any``): skipping an all-False
        # ``np.where`` leaves every value bit-identical and saves most of
        # the per-step cost on the hot path.

        # --- RTprop estimation (Eq. 9) -------------------------------- #
        new_min_sample = inputs.tau_delayed < tau_min_old - _RTT_SAMPLE_EPS
        tau_min = np.minimum(tau_min_old, inputs.tau_delayed)

        # --- ProbeRTT state machine (Eq. 11-13) ------------------------ #
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

        # --- ProbeBW period clock and BtlBw adoption (Eq. 16, 18, 20) -- #
        t_pbw = t_pbw + dt
        period = _PHASES * tau_min
        rollover = t_pbw >= period
        if np.count_nonzero(rollover):
            x_btl = np.where(rollover & (x_max > ZERO), x_max, x_btl)
            x_max = np.where(rollover, ZERO, x_max)
            t_pbw = np.where(rollover, ZERO, t_pbw)
        measurement = rate_old if inputs.literal_xmax else inputs.delivery_rate
        x_max = np.maximum(x_max, measurement)

        # --- Pacing rate with probing/draining pulses (Eq. 21-22) ------ #
        sharpness = self._sharpness / np.maximum(tau_min, _RTT_FLOOR)
        probe_start = phase * tau_min
        drain_start = (phase + ONE) * tau_min
        drain_end = (phase + TWO) * tau_min
        # All four pulse sigmoids evaluated as one call on a (4, n) block
        # scaled by the broadcast per-flow sharpness.
        edges = np.empty((4, t_pbw.shape[0]))
        np.subtract(t_pbw, probe_start, out=edges[0])
        np.subtract(drain_start, t_pbw, out=edges[1])
        np.subtract(t_pbw, drain_start, out=edges[2])
        np.subtract(drain_end, t_pbw, out=edges[3])
        edges *= sharpness
        gates = smooth.scaled_sigmoid(edges)
        probe = gates[0] * gates[1]
        drain = gates[2] * gates[3]
        pacing = x_btl * (ONE + _PROBE_EXCESS * probe - _DRAIN_DEFICIT * drain)

        # --- Inflight limits and sending rate (Eq. 14-15, 23) ----------- #
        cwnd_pbw = _CWND_GAIN * (x_btl * tau_min)
        tau = inputs.tau
        if any_probe_rtt:
            cwnd = np.where(in_probe_rtt, _PROBE_RTT_CWND, cwnd_pbw)
            rate = np.where(
                in_probe_rtt,
                _PROBE_RTT_CWND / tau,
                np.minimum(cwnd_pbw / tau, pacing),
            )
        else:
            cwnd = cwnd_pbw
            rate = np.minimum(cwnd_pbw / tau, pacing)
        inflight = self.update_inflight_all(inflight_old, inputs, rate)
        return rate, np.array(
            (inflight, x_btl, x_max, tau_min, cwnd, m_prt, t_pbw, t_prt, phase)
        )
