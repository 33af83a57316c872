"""Pre-change per-packet-closure scheduler, kept verbatim as a reference.

This module preserves the emulator's original event layer — one lambda and
one heap entry per packet hop (access leg, transmitter completion,
bottleneck propagation, return path) — exactly as it stood before the
delay-line/timer rewrite of :mod:`repro.emulation.events`.  It exists for
two reasons:

* the seeded equivalence tests assert that the rewritten scheduler
  produces identical ``sent/delivered/lost`` counts on the droptail path
  (``tests/test_emulation_events.py``), and
* ``benchmarks/test_perf_emulation.py`` measures the packets/second
  speedup of the rewrite against this reference.

Select it with ``EmulationRunner(config, scheduler="closure")``.  It
intentionally retains the pre-change behaviour, including the spurious-RTO accounting
bug and the stale RED idle average fixed in the live classes.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

from .cca.base import AckSample, LossEvent, PacketCCA
from .packet import Packet
from .queues import PacketQueue


class ClosureEventQueue:
    """The original event queue: closure callbacks in a per-packet heap."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self._now:
            raise ValueError("cannot schedule events in the past")
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def run(self, until: float) -> None:
        """Execute events in order until time ``until`` or until stopped."""
        if until < self._now:
            raise ValueError("end time lies in the past")
        while self._heap and not self._stopped:
            time, _, callback = self._heap[0]
            if time > until:
                break
            heapq.heappop(self._heap)
            self._now = time
            callback()
        self._now = max(self._now, until) if not self._stopped else self._now

    def __len__(self) -> int:
        return len(self._heap)

#: Minimum retransmission timeout, mirroring common kernel defaults.
MIN_RTO_S: float = 0.2
#: Periodic interval at which the sender checks for a stalled connection.
TIMEOUT_CHECK_INTERVAL_S: float = 0.1


class ClosureBottleneckLink:
    """The original store-and-forward link: one closure per packet hop."""

    def __init__(
        self,
        events: ClosureEventQueue,
        queue: PacketQueue,
        capacity_pps: float,
        delay_s: float,
        deliver,
    ) -> None:
        if capacity_pps <= 0:
            raise ValueError("capacity must be positive")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.events = events
        self.queue = queue
        self.capacity_pps = capacity_pps
        self.delay_s = delay_s
        self.deliver = deliver
        self._busy = False
        self.transmitted = 0
        # Time-weighted queue statistics for the trace.
        self._last_sample_time = 0.0
        self._queue_time_product = 0.0

    @property
    def service_time(self) -> float:
        """Transmission time of one packet."""
        return 1.0 / self.capacity_pps

    def _account_queue(self) -> None:
        now = self.events.now
        self._queue_time_product += self.queue.occupancy * (now - self._last_sample_time)
        self._last_sample_time = now

    def mean_queue_since(self, since_product: float, since_time: float) -> float:
        """Mean queue length (packets) since a recorded checkpoint."""
        self._account_queue()
        elapsed = self._last_sample_time - since_time
        if elapsed <= 0:
            return float(self.queue.occupancy)
        return (self._queue_time_product - since_product) / elapsed

    def checkpoint(self) -> tuple[float, float]:
        """Snapshot for :meth:`mean_queue_since` (product, time)."""
        self._account_queue()
        return self._queue_time_product, self._last_sample_time

    def on_arrival(self, packet: Packet) -> None:
        """A packet arrives from an access link and is offered to the queue."""
        self._account_queue()
        accepted = self.queue.offer(packet)
        if accepted and not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        packet = self.queue.pop()
        if packet is None:
            self._busy = False
            return
        self._account_queue()
        self._busy = True
        self.events.schedule(self.service_time, lambda p=packet: self._finish_transmission(p))

    def _finish_transmission(self, packet: Packet) -> None:
        self.transmitted += 1
        self.events.schedule(self.delay_s, lambda p=packet: self.deliver(p))
        self._account_queue()
        if self.queue.occupancy > 0:
            self._start_transmission()
        else:
            self._busy = False


class ClosureSender:
    """The original greedy source: per-packet lambdas on both path legs."""

    def __init__(
        self,
        events: ClosureEventQueue,
        flow_id: int,
        cca: PacketCCA,
        bottleneck: ClosureBottleneckLink,
        access_delay_s: float,
        return_delay_s: float,
        mss_bytes: int,
        start_time_s: float = 0.0,
    ) -> None:
        if access_delay_s < 0 or return_delay_s < 0:
            raise ValueError("delays must be non-negative")
        self.events = events
        self.flow_id = flow_id
        self.cca = cca
        self.bottleneck = bottleneck
        self.access_delay_s = access_delay_s
        self.return_delay_s = return_delay_s
        self.mss_bytes = mss_bytes
        self.start_time_s = start_time_s

        self.next_seq = 0
        self.inflight: dict[int, Packet] = {}
        self.sent_count = 0
        self.delivered_count = 0
        self.lost_count = 0
        self.last_rtt_s = 0.0
        self.srtt_s: float | None = None
        self._next_send_time = start_time_s
        self._wakeup_pending = False
        self._last_ack_time = start_time_s
        self._started = False

    def start(self) -> None:
        """Schedule the first transmission and the stall watchdog."""
        if self._started:
            return
        self._started = True
        self.events.schedule_at(self.start_time_s, self._try_send)
        self.events.schedule_at(
            self.start_time_s + TIMEOUT_CHECK_INTERVAL_S, self._check_timeout
        )

    def _rto(self) -> float:
        if self.srtt_s is None:
            return 1.0
        return max(MIN_RTO_S, 4.0 * self.srtt_s)

    def _pacing_wakeup(self) -> None:
        self._wakeup_pending = False
        self._try_send()

    def _try_send(self) -> None:
        now = self.events.now
        window = self.cca.window_limit()
        interval = self.cca.pacing_interval()
        while len(self.inflight) < window:
            if now < self._next_send_time:
                break
            self._transmit(now)
            self._next_send_time = max(self._next_send_time, now) + interval
        if (
            len(self.inflight) < window
            and now < self._next_send_time
            and not self._wakeup_pending
        ):
            # Pacing-limited: wake up when the next transmission is allowed.
            self._wakeup_pending = True
            self.events.schedule_at(self._next_send_time, self._pacing_wakeup)

    def _transmit(self, now: float) -> None:
        packet = Packet(
            flow_id=self.flow_id,
            seq=self.next_seq,
            size_bytes=self.mss_bytes,
            sent_time=now,
            delivered_at_send=self.delivered_count,
        )
        self.next_seq += 1
        self.sent_count += 1
        self.inflight[packet.seq] = packet
        self.events.schedule(
            self.access_delay_s, lambda p=packet: self.bottleneck.on_arrival(p)
        )

    def on_packet_delivered(self, packet: Packet) -> None:
        """Called by the topology when a packet reaches the destination host."""
        self.events.schedule(self.return_delay_s, lambda p=packet: self._on_ack(p))

    def _on_ack(self, packet: Packet) -> None:
        now = self.events.now
        self._last_ack_time = now
        if packet.seq not in self.inflight:
            return  # e.g. already declared lost by the watchdog
        del self.inflight[packet.seq]
        self.delivered_count += 1

        # FIFO network: every unacknowledged packet sent before this one is
        # lost; the lost packets form a prefix of the inflight dict.
        lost: list[int] = []
        for seq in self.inflight:
            if seq >= packet.seq:
                break
            lost.append(seq)
        lost_seqs = tuple(lost)
        rtt = now - packet.sent_time
        self.last_rtt_s = rtt
        self.srtt_s = rtt if self.srtt_s is None else 0.875 * self.srtt_s + 0.125 * rtt
        elapsed = max(now - packet.sent_time, 1e-9)
        delivery_rate = (self.delivered_count - packet.delivered_at_send) / elapsed

        if lost_seqs:
            for seq in lost_seqs:
                del self.inflight[seq]
            self.lost_count += len(lost_seqs)
            self.cca.on_loss(
                LossEvent(
                    now=now,
                    num_lost=len(lost_seqs),
                    inflight=len(self.inflight),
                    highest_seq_sent=self.next_seq - 1,
                    lost_seqs=lost_seqs,
                )
            )
        self.cca.on_ack(
            AckSample(
                now=now,
                rtt=rtt,
                delivery_rate=delivery_rate,
                inflight=len(self.inflight),
                acked_seq=packet.seq,
                newly_delivered=1,
            )
        )
        self._try_send()

    def _check_timeout(self) -> None:
        now = self.events.now
        if self.inflight and now - self._last_ack_time > self._rto():
            self.lost_count += len(self.inflight)
            self.inflight.clear()
            self.cca.on_timeout(now)
            self._last_ack_time = now
            self._try_send()
        self.events.schedule(TIMEOUT_CHECK_INTERVAL_S, self._check_timeout)
