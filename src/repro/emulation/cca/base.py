"""Packet-level congestion-control interface of the emulator.

A :class:`PacketCCA` controls one sender through two knobs — the congestion
window (in packets) and an optional pacing rate (packets/second) — and is
driven by three callbacks fired by the sender: one per acknowledgement, one
per detected loss batch, and one per retransmission timeout.

Every acknowledgement covers exactly one packet and reaches the CCA as one
:meth:`PacketCCA.on_ack` call with plain scalars: the current time, the RTT
sample, the delivery-rate sample of BBR's bandwidth estimator (delivered
packets since the acked packet was sent, divided by the elapsed time) and
the current inflight.

Loss records are ephemeral: the sender reuses one :class:`LossEvent`
instance across calls to keep its hot path allocation-free, so a CCA must
read the fields synchronously inside the callback and never retain a
reference to the record itself.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass


@dataclass(slots=True)
class LossEvent:
    """A batch of packets detected as lost.

    Instances may be reused by the caller between callbacks — read, don't
    retain (see the module docstring).
    """

    now: float
    num_lost: int
    inflight: int
    highest_seq_sent: int
    lost_seqs: tuple[int, ...] = ()


class PacketCCA(abc.ABC):
    """Abstract packet-level congestion-control algorithm."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.cwnd_pkts: float = 10.0
        self.pacing_rate_pps: float = math.inf

    @abc.abstractmethod
    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        """Process the acknowledgement of one packet."""

    @abc.abstractmethod
    def on_loss(self, event: LossEvent) -> None:
        """Process detected packet loss."""

    def on_timeout(self, now: float) -> None:
        """Process a retransmission timeout (default: collapse the window)."""
        self.cwnd_pkts = 1.0

    def window_limit(self) -> float:
        """Effective congestion window in packets (never below one packet)."""
        return max(1.0, self.cwnd_pkts)
