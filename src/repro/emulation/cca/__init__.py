"""Packet-level congestion-control algorithms of the emulator."""

from __future__ import annotations

import random

from .base import LossEvent, PacketCCA
from .bbr1 import Bbr1Packet
from .bbr2 import Bbr2Packet
from .cubic import CubicPacket
from .reno import RenoPacket


def create_packet_cca(name: str, rng: random.Random, initial_rate_pps: float) -> PacketCCA:
    """Instantiate the packet-level CCA for a scenario flow."""
    name = name.lower()
    if name == "reno":
        return RenoPacket()
    if name == "cubic":
        return CubicPacket()
    if name == "bbr1":
        return Bbr1Packet(rng=rng, initial_rate_pps=initial_rate_pps)
    if name == "bbr2":
        return Bbr2Packet(rng=rng, initial_rate_pps=initial_rate_pps)
    raise ValueError(f"unknown CCA {name!r}")


__all__ = [
    "LossEvent",
    "PacketCCA",
    "RenoPacket",
    "CubicPacket",
    "Bbr1Packet",
    "Bbr2Packet",
    "create_packet_cca",
]
