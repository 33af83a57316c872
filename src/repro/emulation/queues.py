"""Packet queues of the emulator: drop-tail and RED.

These implement the per-packet counterparts of the fluid model's loss
equations (Eq. 4 and Eq. 6).  The RED queue uses the classic exponentially
weighted moving average of the queue length, which is precisely the
behaviour the paper identifies as the source of the fluid model's RED
idealisation error (Insight 9).
"""

from __future__ import annotations

import random


class PacketQueue:
    """Base class of a finite packet queue discipline with drop accounting.

    The queue holds no packets: the virtual transmitter of
    :class:`~repro.emulation.link.BottleneckLink` tracks the queue contents
    arithmetically and consults the discipline only for the accept/drop
    decision (:meth:`decide`), which keeps the ``enqueued``/``dropped``
    counters.
    """

    def __init__(self, capacity_pkts: int) -> None:
        if capacity_pkts < 1:
            raise ValueError("queue capacity must be at least one packet")
        self.capacity_pkts = capacity_pkts
        self.dropped = 0
        self.enqueued = 0
        #: Per-packet service time of the owning link, set by the link; RED
        #: needs it for its idle-period average decay.
        self.service_time_s: float | None = None

    def decide(self, occupancy: int, now: float) -> bool:
        """Admission decision for an arrival at time ``now``.

        ``occupancy`` is the number of waiting packets at arrival time.
        Returns whether the packet is admitted and counts it as enqueued or
        dropped.  Every discipline must implement it.
        """
        raise NotImplementedError

    def notify_idle(self, time: float) -> None:
        """Inform the discipline that the external queue emptied at ``time``."""


class DropTailQueue(PacketQueue):
    """FIFO queue that drops arrivals when full."""

    def decide(self, occupancy: int, now: float) -> bool:
        if occupancy >= self.capacity_pkts:
            self.dropped += 1
            return False
        self.enqueued += 1
        return True


class RedQueue(PacketQueue):
    """Random Early Detection queue.

    The drop probability grows linearly from 0 at ``min_threshold`` to
    ``max_probability`` at ``max_threshold`` of the *averaged* queue length,
    and everything above ``max_threshold`` is dropped.  Thresholds default to
    the whole buffer range so that the steady-state drop probability tracks
    ``q_avg / B`` — the idealisation the fluid model uses (Eq. 6) — while the
    averaging introduces the lag the paper discusses.
    """

    def __init__(
        self,
        capacity_pkts: int,
        rng: random.Random,
        min_threshold_fraction: float = 0.0,
        max_threshold_fraction: float = 1.0,
        max_probability: float = 1.0,
        ewma_weight: float = 0.002,
    ) -> None:
        super().__init__(capacity_pkts)
        if not 0 <= min_threshold_fraction < max_threshold_fraction <= 1.0:
            raise ValueError("RED thresholds must satisfy 0 <= min < max <= 1")
        if not 0 < max_probability <= 1.0:
            raise ValueError("max drop probability must be in (0, 1]")
        if not 0 < ewma_weight <= 1.0:
            raise ValueError("EWMA weight must be in (0, 1]")
        self._rng = rng
        self.min_threshold = min_threshold_fraction * capacity_pkts
        self.max_threshold = max_threshold_fraction * capacity_pkts
        self.max_probability = max_probability
        self.ewma_weight = ewma_weight
        self.avg_queue = 0.0
        self._idle_since: float | None = None

    def drop_probability(self) -> float:
        """Current RED drop probability based on the averaged queue length."""
        if self.avg_queue <= self.min_threshold:
            return 0.0
        if self.avg_queue >= self.max_threshold:
            return 1.0
        span = self.max_threshold - self.min_threshold
        return self.max_probability * (self.avg_queue - self.min_threshold) / span

    def notify_idle(self, time: float) -> None:
        self._idle_since = time

    def _update_avg(self, occupancy: int, now: float) -> None:
        if occupancy == 0 and self._idle_since is not None:
            # Classic RED idle-time correction (Floyd & Jacobson 1993,
            # Sec. 11): while the queue sat empty no arrivals updated the
            # EWMA, so it is stale-high and would over-drop the first burst
            # after the idle period.  Decay it as if the link had served
            # ``m`` (fractional) small packets during the idle time.
            idle_s = now - self._idle_since
            self._idle_since = None
            if self.service_time_s and idle_s > 0:
                m = idle_s / self.service_time_s
                self.avg_queue *= (1.0 - self.ewma_weight) ** m
            else:
                self.avg_queue *= 1.0 - self.ewma_weight
        else:
            self.avg_queue = (
                (1.0 - self.ewma_weight) * self.avg_queue + self.ewma_weight * occupancy
            )

    def decide(self, occupancy: int, now: float) -> bool:
        self._update_avg(occupancy, now)
        if occupancy >= self.capacity_pkts:
            self.dropped += 1
            return False
        if self._rng.random() < self.drop_probability():
            self.dropped += 1
            return False
        self.enqueued += 1
        return True


def make_queue(discipline: str, capacity_pkts: int, rng: random.Random) -> PacketQueue:
    """Factory for the queue discipline named in a scenario configuration."""
    if discipline == "droptail":
        return DropTailQueue(capacity_pkts)
    if discipline == "red":
        return RedQueue(capacity_pkts, rng)
    raise ValueError(f"unknown queue discipline {discipline!r}")
