"""The packet record used by the emulator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Packet:
    """A data packet travelling from a sender to the destination.

    Attributes:
        flow_id: index of the sending flow.
        seq: per-flow sequence number.
        size_bytes: packet size (one MSS for all data packets).
        sent_time: time the packet left the sender.
        delivered_at_send: cumulative number of packets the sender had seen
            acknowledged when this packet was sent.  Used by the BBR
            delivery-rate sampler (one sample per ACK).
        app_limited: whether the sender was application-limited when the
            packet was sent (never the case for the iPerf-like greedy
            sources used here, kept for completeness).
    """

    flow_id: int
    seq: int
    size_bytes: int
    sent_time: float
    delivered_at_send: int = 0
    app_limited: bool = False
