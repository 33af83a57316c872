"""Bottleneck link of the emulator: a packet queue plus a serialising transmitter.

The access links are never saturated (Fig. 3), so they are pure propagation
delays handled by the sender/receiver scheduling; only queued (topology)
links own a queue and a transmitter that serialises packets at the
configured capacity.  Multi-bottleneck topologies chain several of these
links: the runner wires per-flow routes (:meth:`BottleneckLink.set_routes`)
that push a departing packet either onto the forward delay line of the next
hop or — at the flow's last hop — onto the fused return path.

The transmitter is *virtual*: because service times are constant and the
queue is FIFO, the start and departure times of every admitted packet are
fully determined at arrival time (``start = max(arrival, busy_until)``,
``departure = start + service_time``), so no transmission-completion
events are scheduled at all.  An arrival consults the queue discipline for
the accept/drop decision (occupancy is the number of already-admitted
packets that have not started transmission yet) and, when accepted,
immediately pushes the packet onto its delivery path timed at the exact
instant the event-driven transmitter would have produced.  Queue-length
statistics and the ``transmitted`` counter are maintained lazily from the
recorded start times.

When the runner wires up routes (:meth:`BottleneckLink.set_routes`) the
propagation leg and the next hop are additionally fused into one delay-line
push: a packet departing at ``d`` reaches the next link's arrival at
``d + delay`` (forward route) or is acknowledged at
``(d + delay) + return_delay`` (last hop) — the same instants as with
separate hops.  The only heap events a packet ever occupies are therefore
its arrival pops (one batched delay-line pop per hop) and its
acknowledgement (a batched return delay-line pop).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from .events import DelayLine, EventQueue
from .packet import Packet
from .queues import PacketQueue


class BottleneckLink:
    """A store-and-forward link: finite queue, fixed service rate, fixed delay."""

    __slots__ = (
        "events",
        "queue",
        "capacity_pps",
        "delay_s",
        "deliver",
        "service_time_s",
        "_starts",
        "_busy_until",
        "_pending_departure",
        "_transmitted",
        "_prop_line",
        "_ack_routes",
        "_last_sample_time",
        "_queue_time_product",
    )

    def __init__(
        self,
        events: EventQueue,
        queue: PacketQueue,
        capacity_pps: float,
        delay_s: float,
        deliver: Callable[[Packet], None],
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
        self.service_time_s = 1.0 / capacity_pps
        #: Transmission-start times of admitted packets that have not yet
        #: started (== the waiting queue, as departure times, minus service).
        self._starts: deque[float] = deque()
        #: Time the transmitter finishes its last admitted packet.
        self._busy_until = 0.0
        #: Departure time of the packet currently in (virtual) service.
        self._pending_departure: float | None = None
        self._transmitted = 0
        self._prop_line = DelayLine(events, delay_s, deliver)
        self._ack_routes: list[tuple[DelayLine, float]] | None = None
        # Let the queue discipline see the service rate (RED needs it for
        # its idle-period average decay).
        queue.service_time_s = self.service_time_s
        # Time-weighted queue statistics for the trace.
        self._last_sample_time = 0.0
        self._queue_time_product = 0.0

    @property
    def transmitted(self) -> int:
        """Packets that have finished transmission by the current time."""
        self._flush(self.events.now)
        return self._transmitted

    def set_routes(self, routes: list[tuple[DelayLine, float] | None]) -> None:
        """Fuse this link's propagation leg into per-flow onward routes.

        ``routes[flow_id] = (line, extra_delay_s)``: an admitted packet is
        pushed onto ``line`` timed at ``departure + delay_s + extra_delay_s``.
        For a flow's last hop the line is the receiving sender's return
        delay line and ``extra_delay_s`` its return propagation delay (the
        original ack fusion); for an intermediate hop it is the forward
        line whose sink is the next link's ``on_arrival`` with no extra
        delay.  Entries of flows that never traverse this link are None.
        """
        self._ack_routes = routes

    def _flush(self, horizon: float) -> None:
        """Advance the virtual transmitter state to time ``horizon``.

        Pops every queued packet whose transmission starts by ``horizon``,
        integrating the queue-length step function exactly at each start,
        and credits finished departures to the ``transmitted`` counter.
        """
        starts = self._starts
        t_prev = self._last_sample_time
        product = self._queue_time_product
        if starts and starts[0] <= horizon:
            occupancy = len(starts)
            while starts and starts[0] <= horizon:
                begin = starts.popleft()
                product += occupancy * (begin - t_prev)
                occupancy -= 1
                t_prev = begin
                # A new transmission starting proves the previous one (if
                # any) has departed: starts are never earlier than the
                # preceding departure.
                if self._pending_departure is not None:
                    self._transmitted += 1
                self._pending_departure = begin + self.service_time_s
            if not starts:
                self.queue.notify_idle(t_prev)
        pending = self._pending_departure
        if pending is not None and pending <= horizon:
            self._transmitted += 1
            self._pending_departure = None
        self._queue_time_product = product + len(starts) * (horizon - t_prev)
        self._last_sample_time = horizon

    def mean_queue_since(self, since_product: float, since_time: float) -> float:
        """Mean queue length (packets) since a recorded checkpoint."""
        self._flush(self.events.now)
        elapsed = self._last_sample_time - since_time
        if elapsed <= 0:
            return float(len(self._starts))
        return (self._queue_time_product - since_product) / elapsed

    def checkpoint(self) -> tuple[float, float]:
        """Snapshot for :meth:`mean_queue_since` (product, time)."""
        self._flush(self.events.now)
        return self._queue_time_product, self._last_sample_time

    def on_arrival(self, packet: Packet) -> None:
        """A packet arrives from an access link and is offered to the queue."""
        events = self.events
        now = events.now
        starts = self._starts
        if starts and starts[0] <= now:
            self._flush(now)
        else:
            # Inlined tail of _flush: nothing starts by now, only the
            # queue-length integral advances.
            self._queue_time_product += len(starts) * (now - self._last_sample_time)
            self._last_sample_time = now
        if self.queue.decide(len(starts), now):
            busy_until = self._busy_until
            begin = now if now > busy_until else busy_until
            self._busy_until = departure = begin + self.service_time_s
            starts.append(begin)
            routes = self._ack_routes
            if routes is not None:
                # Fused hop: acknowledgement lands at the same instant the
                # separate transmission/propagation/return events would
                # have produced it.  This append bypasses send_at's
                # non-decreasing ready-time guard; monotonicity holds by
                # construction — departures are globally non-decreasing
                # (departure = max(arrival, busy_until) + service) and each
                # flow's line adds a per-flow constant to its own
                # subsequence of them.
                line, return_delay = routes[packet.flow_id]
                pending = line._pending
                pending.append(((departure + self.delay_s) + return_delay, packet))
                timer = line._timer
                if timer._entry is None:
                    timer._arm(pending[0][0])
            else:
                self._prop_line.send_at(departure + self.delay_s, packet)
