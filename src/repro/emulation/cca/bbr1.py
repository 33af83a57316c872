"""Packet-level BBRv1 (Cardwell et al., 2016), simplified but structurally faithful.

The implementation follows the published state machine:

* **STARTUP**: pacing/cwnd gain 2.885 until the bandwidth estimate stops
  growing by at least 25 % for three consecutive round trips ("full pipe").
* **DRAIN**: inverse gain until the inflight falls to the estimated BDP.
* **PROBE_BW**: the eight-phase gain cycle (5/4, 3/4, 1, 1, 1, 1, 1, 1),
  each phase lasting one RTprop, starting at a random phase.
* **PROBE_RTT**: every 10 s without a new minimum-RTT sample, the window is
  cut to four packets for 200 ms.

Estimators: a windowed-max filter over the last ten round trips for the
bottleneck bandwidth, and a windowed-min over ten seconds for RTprop —
exactly the two quantities the paper's fluid model tracks as ``x_btl`` and
``tau_min``.  BBRv1 ignores packet loss entirely.

:meth:`Bbr1Packet.on_ack` runs all of this as one pass per acknowledgement
(the emulator's hottest CCA call).  ``tests/test_emulation_ccas.py`` keeps
the stage-by-stage formulation (round, filters, full pipe, PROBE_RTT,
gains, controls) as a test oracle and pins ``on_ack`` to it field for
field; the emulator goldens pin the counts it produces.
"""

from __future__ import annotations

import random
from collections import deque

from .base import LossEvent, PacketCCA

STARTUP_GAIN: float = 2.885
DRAIN_GAIN: float = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS: tuple[float, ...] = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
CWND_GAIN: float = 2.0
PROBE_RTT_CWND_PKTS: float = 4.0
PROBE_RTT_DURATION_S: float = 0.2
PROBE_RTT_INTERVAL_S: float = 10.0
BW_WINDOW_ROUNDS: int = 10
FULL_BW_THRESHOLD: float = 1.25
FULL_BW_ROUNDS: int = 3
MIN_CWND_PKTS: float = 4.0


class Bbr1Packet(PacketCCA):
    """Packet-level BBRv1."""

    name = "bbr1"

    def __init__(self, rng: random.Random | None = None, initial_rate_pps: float = 1000.0) -> None:
        super().__init__()
        if initial_rate_pps <= 0:
            raise ValueError("initial rate must be positive")
        self._rng = rng or random.Random(0)
        self.state = "startup"
        self.btlbw_pps = initial_rate_pps
        self.rtprop_s = 0.1
        self._rtprop_stamp = 0.0
        self._rtprop_valid = False
        self._bw_samples: deque[tuple[int, float]] = deque()
        self._round = 0
        self._delivered = 0
        self._next_round_delivered = 0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._cycle_index = self._rng.randrange(len(PROBE_BW_GAINS))
        if PROBE_BW_GAINS[self._cycle_index] == 0.75:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
        self._cycle_stamp = 0.0
        self._probe_rtt_done_stamp: float | None = None
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        self.cwnd_pkts = 10.0
        self.pacing_rate_pps = initial_rate_pps * STARTUP_GAIN

    def bdp_pkts(self) -> float:
        """Current bandwidth-delay-product estimate in packets."""
        return self.btlbw_pps * self.rtprop_s

    def _set_controls(self) -> None:
        self.pacing_rate_pps = max(1.0, self.pacing_gain * self.btlbw_pps)
        if self.state == "probe_rtt":
            self.cwnd_pkts = PROBE_RTT_CWND_PKTS
        else:
            self.cwnd_pkts = max(MIN_CWND_PKTS, self.cwnd_gain * self.bdp_pkts())

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #

    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        # Stages in order: round counting, the windowed-max bandwidth and
        # windowed-min RTprop filters, the full-pipe check, PROBE_RTT entry
        # and exit, the per-state gains and the controls.
        delivered = self._delivered + 1
        self._delivered = delivered
        round_start = delivered >= self._next_round_delivered
        if round_start:
            self._round += 1
            self._next_round_delivered = delivered + inflight + 1
        if delivery_rate > 0:
            samples = self._bw_samples
            while samples and samples[-1][1] <= delivery_rate:
                samples.pop()
            samples.append((self._round, delivery_rate))
            horizon = self._round - BW_WINDOW_ROUNDS
            while samples[0][0] < horizon:
                samples.popleft()
            self.btlbw_pps = samples[0][1]
        if not self._rtprop_valid or rtt <= self.rtprop_s:
            self.rtprop_s = rtt
            self._rtprop_stamp = now
            self._rtprop_valid = True
        state = self.state
        if round_start and state == "startup":
            btlbw = self.btlbw_pps
            if btlbw >= self._full_bw * FULL_BW_THRESHOLD:
                self._full_bw = btlbw
                self._full_bw_count = 0
            else:
                self._full_bw_count += 1
                if self._full_bw_count >= FULL_BW_ROUNDS:
                    self.state = state = "drain"
        if state == "probe_rtt":
            if self._probe_rtt_done_stamp is None:
                self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION_S
            elif now >= self._probe_rtt_done_stamp:
                self._rtprop_stamp = now
                self._probe_rtt_done_stamp = None
                self.state = state = "probe_bw"
                self._cycle_stamp = now
        elif (
            self._rtprop_valid
            and now - self._rtprop_stamp > PROBE_RTT_INTERVAL_S
            and (state == "probe_bw" or state == "startup")
        ):
            self.state = state = "probe_rtt"
            self._probe_rtt_done_stamp = None
        if state == "startup":
            self.pacing_gain = STARTUP_GAIN
            self.cwnd_gain = STARTUP_GAIN
        elif state == "drain":
            self.pacing_gain = DRAIN_GAIN
            self.cwnd_gain = STARTUP_GAIN
            if inflight <= self.btlbw_pps * self.rtprop_s:
                self.state = state = "probe_bw"
                self._cycle_stamp = now
        if state == "probe_bw":
            if now - self._cycle_stamp > self.rtprop_s:
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
                self._cycle_stamp = now
            self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]
            self.cwnd_gain = CWND_GAIN
        elif state == "probe_rtt":
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0
        btlbw = self.btlbw_pps
        pacing = self.pacing_gain * btlbw
        self.pacing_rate_pps = pacing if pacing > 1.0 else 1.0
        if state == "probe_rtt":
            self.cwnd_pkts = PROBE_RTT_CWND_PKTS
        else:
            cwnd = self.cwnd_gain * (btlbw * self.rtprop_s)
            self.cwnd_pkts = cwnd if cwnd > MIN_CWND_PKTS else MIN_CWND_PKTS

    def on_loss(self, event: LossEvent) -> None:
        # BBRv1 deliberately ignores packet loss.
        return

    def on_timeout(self, now: float) -> None:
        # Conservative reaction: restart the estimator windows but keep the
        # model-based controls (BBRv1 has no loss-based window collapse).
        self._bw_samples.clear()
        self.btlbw_pps = max(1.0, self.btlbw_pps / 2.0)
        self._set_controls()
