"""Packet-level BBRv2 (Cardwell et al., IETF 104 drafts), simplified.

BBRv2 keeps BBRv1's STARTUP/DRAIN/PROBE_RTT structure but replaces the
continuous eight-phase gain cycle by an explicit probing schedule with four
ProbeBW sub-states and couples the congestion window to loss:

* **CRUISE**: pace at the bandwidth estimate, inflight capped at
  ``min(BDP, (1 - headroom) * inflight_hi, inflight_lo)``.
* **REFILL**: one round trip at gain 1 to bring the inflight to the BDP
  before probing.
* **UP**: gain 5/4 until the inflight exceeds 5/4 of the BDP or the loss
  rate of the round exceeds 2 %; ``inflight_hi`` grows while probing
  succeeds and is cut by 30 % when the probe ends in excessive loss.
* **DOWN**: gain 3/4 until the inflight falls below the drain target.

Probes are scheduled every ``min(62 RTTs, 2..3 s)``.  During CRUISE, loss
activates the short-term bound ``inflight_lo`` (multiplicatively decreased
by 30 %), which is reset at the start of the next probing period.
"""

from __future__ import annotations

import random
from collections import deque

from .base import LossEvent, PacketCCA

STARTUP_GAIN: float = 2.885
DRAIN_GAIN: float = 1.0 / STARTUP_GAIN
PROBE_GAIN: float = 1.25
DOWN_GAIN: float = 0.75
CWND_GAIN: float = 2.0
PROBE_RTT_DURATION_S: float = 0.2
PROBE_RTT_INTERVAL_S: float = 10.0
BW_WINDOW_ROUNDS: int = 10
FULL_BW_THRESHOLD: float = 1.25
FULL_BW_ROUNDS: int = 3
MIN_CWND_PKTS: float = 4.0
LOSS_THRESHOLD: float = 0.02
BETA: float = 0.3
HEADROOM: float = 0.15
MAX_PROBE_INTERVAL_RTTS: float = 62.0
PROBE_WALL_MIN_S: float = 2.0
PROBE_WALL_MAX_S: float = 3.0


class Bbr2Packet(PacketCCA):
    """Packet-level BBRv2."""

    name = "bbr2"

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
        self._lost = 0
        self._round_delivered = 0
        self._round_lost = 0
        self._next_round_delivered = 0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self.inflight_hi: float | None = None
        self.inflight_lo: float | None = None
        self._hi_cut_this_probe = False
        self._probe_wall_s = self._rng.uniform(PROBE_WALL_MIN_S, PROBE_WALL_MAX_S)
        self._last_probe_stamp = 0.0
        self._refill_stamp = 0.0
        self._probe_rtt_done_stamp: float | None = None
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        self.cwnd_pkts = 10.0
        self.pacing_rate_pps = initial_rate_pps * STARTUP_GAIN

    # ------------------------------------------------------------------ #
    # Estimators
    # ------------------------------------------------------------------ #

    def bdp_pkts(self) -> float:
        """Current bandwidth-delay-product estimate in packets."""
        return self.btlbw_pps * self.rtprop_s

    def _drain_target(self) -> float:
        target = self.bdp_pkts()
        if self.inflight_hi is not None:
            target = min(target, (1.0 - HEADROOM) * self.inflight_hi)
        return max(MIN_CWND_PKTS, target)

    def _round_loss_rate(self) -> float:
        total = self._round_delivered + self._round_lost
        if total == 0:
            return 0.0
        return self._round_lost / total

    def _update_round(self, inflight: int) -> bool:
        self._delivered += 1
        self._round_delivered += 1
        if self._delivered >= self._next_round_delivered:
            self._round += 1
            self._next_round_delivered = self._delivered + inflight + 1
            self._round_delivered = 0
            self._round_lost = 0
            return True
        return False

    def _update_btlbw(self, delivery_rate: float) -> None:
        if delivery_rate <= 0:
            return
        # Monotonic deque: rates decrease from left to right, so the head is
        # always the windowed maximum (O(1) amortised per ACK instead of a
        # full window re-scan — this is the emulator's hottest code path).
        samples = self._bw_samples
        while samples and samples[-1][1] <= delivery_rate:
            samples.pop()
        samples.append((self._round, delivery_rate))
        horizon = self._round - BW_WINDOW_ROUNDS
        while samples[0][0] < horizon:
            samples.popleft()
        self.btlbw_pps = samples[0][1]

    def _update_rtprop(self, now: float, rtt: float) -> None:
        if not self._rtprop_valid or rtt <= self.rtprop_s:
            self.rtprop_s = rtt
            self._rtprop_stamp = now
            self._rtprop_valid = True

    # ------------------------------------------------------------------ #
    # State machine
    # ------------------------------------------------------------------ #

    def _check_full_pipe(self, round_start: bool, inflight: int) -> None:
        if self.state != "startup":
            return
        loss_exit = self._round_loss_rate() > LOSS_THRESHOLD and self._round_lost >= 3
        if round_start:
            if self.btlbw_pps >= self._full_bw * FULL_BW_THRESHOLD:
                self._full_bw = self.btlbw_pps
                self._full_bw_count = 0
            else:
                self._full_bw_count += 1
        if self._full_bw_count >= FULL_BW_ROUNDS or loss_exit:
            if loss_exit and self.inflight_hi is None:
                self.inflight_hi = float(inflight)
            self.state = "drain"

    def _probe_interval_s(self) -> float:
        return min(MAX_PROBE_INTERVAL_RTTS * self.rtprop_s, self._probe_wall_s)

    def _maybe_enter_probe_rtt(self, now: float) -> None:
        if self.state == "probe_rtt":
            if self._probe_rtt_done_stamp is None:
                self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION_S
            elif now >= self._probe_rtt_done_stamp:
                self._rtprop_stamp = now
                self._probe_rtt_done_stamp = None
                self.state = "cruise"
            return
        if (
            self._rtprop_valid
            and now - self._rtprop_stamp > PROBE_RTT_INTERVAL_S
            and self.state in ("startup", "drain", "cruise", "refill", "up", "down")
        ):
            self.state = "probe_rtt"
            self._probe_rtt_done_stamp = None

    def _apply_state(self, now: float, inflight: int) -> None:
        bdp = self.bdp_pkts()
        if self.state == "startup":
            self.pacing_gain = STARTUP_GAIN
            self.cwnd_gain = STARTUP_GAIN
            return
        if self.state == "drain":
            self.pacing_gain = DRAIN_GAIN
            self.cwnd_gain = STARTUP_GAIN
            if inflight <= bdp:
                self.state = "cruise"
                self._last_probe_stamp = now
            return
        if self.state == "probe_rtt":
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0
            return
        if self.state == "cruise":
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0
            if now - self._last_probe_stamp >= self._probe_interval_s():
                self.state = "refill"
                self._refill_stamp = now
                self.inflight_lo = None
                self._hi_cut_this_probe = False
                self._probe_wall_s = self._rng.uniform(PROBE_WALL_MIN_S, PROBE_WALL_MAX_S)
            return
        if self.state == "refill":
            self.pacing_gain = 1.0
            self.cwnd_gain = CWND_GAIN
            if now - self._refill_stamp >= self.rtprop_s:
                self.state = "up"
            return
        if self.state == "up":
            self.pacing_gain = PROBE_GAIN
            self.cwnd_gain = CWND_GAIN
            if self.inflight_hi is not None and inflight >= self.inflight_hi:
                self.inflight_hi = float(inflight)
            probe_done = inflight > PROBE_GAIN * bdp
            loss_done = self._round_loss_rate() > LOSS_THRESHOLD
            if probe_done or loss_done:
                if self.inflight_hi is None or inflight > self.inflight_hi:
                    self.inflight_hi = float(inflight)
                if loss_done and not self._hi_cut_this_probe and self.inflight_hi is not None:
                    self.inflight_hi = max(MIN_CWND_PKTS, (1.0 - BETA) * self.inflight_hi)
                    self._hi_cut_this_probe = True
                self.state = "down"
            return
        if self.state == "down":
            self.pacing_gain = DOWN_GAIN
            self.cwnd_gain = CWND_GAIN
            if inflight <= self._drain_target():
                self.state = "cruise"
                self._last_probe_stamp = now
            return

    def _set_controls(self) -> None:
        self.pacing_rate_pps = max(1.0, self.pacing_gain * self.btlbw_pps)
        bdp = self.bdp_pkts()
        if self.state == "probe_rtt":
            self.cwnd_pkts = max(MIN_CWND_PKTS, bdp / 2.0)
            return
        cwnd = self.cwnd_gain * bdp
        if self.state in ("cruise", "down"):
            if self.inflight_hi is not None:
                cwnd = min(cwnd, (1.0 - HEADROOM) * self.inflight_hi)
            if self.state == "cruise" and self.inflight_lo is not None:
                cwnd = min(cwnd, self.inflight_lo)
        elif self.state in ("refill", "up") and self.inflight_hi is not None:
            cwnd = min(cwnd, PROBE_GAIN * max(self.inflight_hi, bdp))
        self.cwnd_pkts = max(MIN_CWND_PKTS, cwnd)

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #

    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        round_start = self._update_round(inflight)
        self._update_btlbw(delivery_rate)
        self._update_rtprop(now, rtt)
        self._check_full_pipe(round_start, inflight)
        self._maybe_enter_probe_rtt(now)
        self._apply_state(now, inflight)
        self._set_controls()

    def on_loss(self, event: LossEvent) -> None:
        self._lost += event.num_lost
        self._round_lost += event.num_lost
        if self.state == "cruise":
            base = self.inflight_lo if self.inflight_lo is not None else self.cwnd_pkts
            self.inflight_lo = max(MIN_CWND_PKTS, (1.0 - BETA) * base)
        elif self.state == "up" and self._round_loss_rate() > LOSS_THRESHOLD:
            if not self._hi_cut_this_probe:
                reference = self.inflight_hi if self.inflight_hi is not None else float(event.inflight)
                self.inflight_hi = max(MIN_CWND_PKTS, (1.0 - BETA) * reference)
                self._hi_cut_this_probe = True
            self.state = "down"
        elif (
            self.state == "startup"
            and self.inflight_hi is None
            and self._round_loss_rate() > LOSS_THRESHOLD
        ):
            self.inflight_hi = float(event.inflight)
        self._set_controls()

    def on_timeout(self, now: float) -> None:
        self._bw_samples.clear()
        self.btlbw_pps = max(1.0, self.btlbw_pps / 2.0)
        self.inflight_lo = MIN_CWND_PKTS
        self._set_controls()
