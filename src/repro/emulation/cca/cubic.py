"""Packet-level TCP CUBIC (RFC 8312 window growth, simplified).

The implementation follows the kernel structure: slow start up to the
slow-start threshold, then the cubic window-growth function anchored at the
window size of the last loss event.  The TCP-friendliness (Reno emulation)
region and hystart are omitted — they do not influence the macroscopic
behaviour the paper's figures report.
"""

from __future__ import annotations

import math

from .base import LossEvent, PacketCCA

#: CUBIC growth constant ``C`` (RFC 8312).
CUBIC_C: float = 0.4
#: CUBIC multiplicative-decrease factor ``beta``.
CUBIC_BETA: float = 0.7


class CubicPacket(PacketCCA):
    """TCP CUBIC congestion control."""

    name = "cubic"

    def __init__(self, initial_cwnd_pkts: float = 10.0, ssthresh_pkts: float = math.inf) -> None:
        super().__init__()
        if initial_cwnd_pkts < 1:
            raise ValueError("initial cwnd must be at least one packet")
        self.cwnd_pkts = initial_cwnd_pkts
        self.ssthresh_pkts = ssthresh_pkts
        self.w_max = initial_cwnd_pkts
        self.epoch_start: float | None = None
        self._recovery_until = -1

    def in_slow_start(self) -> bool:
        """Whether the window is still below the slow-start threshold."""
        return self.cwnd_pkts < self.ssthresh_pkts

    def _cubic_target(self, now: float) -> float:
        if self.epoch_start is None:
            self.epoch_start = now
        k = ((self.w_max * (1.0 - CUBIC_BETA)) / CUBIC_C) ** (1.0 / 3.0)
        t = now - self.epoch_start
        return CUBIC_C * (t - k) ** 3 + self.w_max

    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        if self.in_slow_start():
            self.cwnd_pkts += 1
            return
        target = self._cubic_target(now)
        if target > self.cwnd_pkts:
            # Approach the cubic target within roughly one RTT.
            self.cwnd_pkts += (target - self.cwnd_pkts) / max(self.cwnd_pkts, 1.0)
        else:
            # Very slow growth when above the target (kernel's 1/(100 cwnd)).
            self.cwnd_pkts += 1 / (100.0 * max(self.cwnd_pkts, 1.0))

    def on_loss(self, event: LossEvent) -> None:
        if event.lost_seqs and max(event.lost_seqs) <= self._recovery_until:
            return
        self.w_max = self.cwnd_pkts
        self.cwnd_pkts = max(2.0, self.cwnd_pkts * CUBIC_BETA)
        self.ssthresh_pkts = self.cwnd_pkts
        self.epoch_start = event.now
        self._recovery_until = event.highest_seq_sent

    def on_timeout(self, now: float) -> None:
        self.w_max = self.cwnd_pkts
        self.ssthresh_pkts = max(2.0, self.cwnd_pkts * CUBIC_BETA)
        self.cwnd_pkts = 1.0
        self.epoch_start = None
        self._recovery_until = -1
