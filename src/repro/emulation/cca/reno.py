"""Packet-level TCP Reno (NewReno-style reaction, SACK-like loss detection)."""

from __future__ import annotations

import math

from .base import LossEvent, PacketCCA


class RenoPacket(PacketCCA):
    """TCP Reno: slow start, AIMD congestion avoidance, halving on loss."""

    name = "reno"

    def __init__(self, initial_cwnd_pkts: float = 10.0, ssthresh_pkts: float = math.inf) -> None:
        super().__init__()
        if initial_cwnd_pkts < 1:
            raise ValueError("initial cwnd must be at least one packet")
        self.cwnd_pkts = initial_cwnd_pkts
        self.ssthresh_pkts = ssthresh_pkts
        # Sequence number marking the end of the current recovery episode:
        # losses of packets sent before it do not trigger another decrease.
        self._recovery_until = -1

    def in_slow_start(self) -> bool:
        """Whether the window is still below the slow-start threshold."""
        return self.cwnd_pkts < self.ssthresh_pkts

    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        cwnd = self.cwnd_pkts
        if cwnd < self.ssthresh_pkts:
            self.cwnd_pkts = cwnd + 1
        else:
            self.cwnd_pkts = cwnd + 1 / cwnd

    def on_loss(self, event: LossEvent) -> None:
        if event.lost_seqs and max(event.lost_seqs) <= self._recovery_until:
            return  # already reacted to this window of loss
        self.ssthresh_pkts = max(2.0, self.cwnd_pkts / 2.0)
        self.cwnd_pkts = self.ssthresh_pkts
        self._recovery_until = event.highest_seq_sent

    def on_timeout(self, now: float) -> None:
        self.ssthresh_pkts = max(2.0, self.cwnd_pkts / 2.0)
        self.cwnd_pkts = 1.0
        self._recovery_until = -1
