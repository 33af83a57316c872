"""Discrete-event simulation core of the packet-level emulator.

The emulator replaces the paper's mininet/OvS/iPerf testbed: it provides packet-granular ground truth that the fluid-model predictions
are validated against.  The core is a conventional event queue — callbacks
scheduled at absolute times, executed in time order with a monotonically
increasing clock — plus two typed primitives that keep the heap small:

* :class:`Timer` — a reusable, cancellable handle bound to one callback.
  Rescheduling a timer tombstones its previous heap entry instead of
  leaking it, so a pacing wakeup, an RTO watchdog or a transmitter
  completion occupies at most one live heap slot for the whole run.

* :class:`DelayLine` — a constant-delay FIFO (the dumbbell's access links,
  the bottleneck propagation leg and the return path are all exactly
  that).  Items wait in a deque of ``(ready_time, item)`` pairs and a
  single self-rearming timer pops whatever is due; any number of in-flight
  packets therefore cost one heap entry, not one each.

Together these make the heap hold O(flows + links) events instead of one
closure per in-flight packet: per sender a pacing timer, a watchdog, an
access delay line and a return delay line; per link a propagation delay
line.  ``benchmarks/test_perf_emulation.py`` bounds the live heap
accordingly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable

# A heap entry is a 4-element list ``[time, tie_break, callback, owner]``.
# ``callback=None`` marks a tombstoned (cancelled or rescheduled) entry;
# ``owner`` points back to the Timer that issued the entry (None for plain
# one-shot schedules) so the run loop can disarm it before the callback
# fires and the callback may immediately re-arm.
_Entry = list


class EventQueue:
    """A time-ordered queue of callbacks."""

    __slots__ = ("_heap", "_counter", "now", "_stopped", "_tombstones", "popped")

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._counter = itertools.count()
        #: Current simulation time in seconds (read-only for callers).
        self.now = 0.0
        self._stopped = False
        self._tombstones = 0
        #: Total callbacks dispatched across all ``run`` calls — the
        #: emulator's events-popped telemetry counter.  Accumulated from a
        #: loop-local integer so the hot loop never touches the attribute.
        self.popped = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        heapq.heappush(
            self._heap, [self.now + delay, next(self._counter), callback, None]
        )

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self.now:
            raise ValueError("cannot schedule events in the past")
        heapq.heappush(self._heap, [time, next(self._counter), callback, None])

    def timer(self, callback: Callable[[], None]) -> Timer:
        """Create a reusable :class:`Timer` bound to ``callback``."""
        return Timer(self, callback)

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def run(self, until: float) -> None:
        """Execute events in order until time ``until`` or until stopped."""
        if until < self.now:
            raise ValueError("end time lies in the past")
        heap = self._heap
        pop = heapq.heappop
        popped = 0
        while heap and not self._stopped:
            entry = heap[0]
            time = entry[0]
            if time > until:
                break
            pop(heap)
            callback = entry[2]
            if callback is None:
                self._tombstones -= 1
                continue
            owner = entry[3]
            if owner is not None:
                owner._entry = None
            self.now = time
            popped += 1
            callback()
        self.popped += popped
        if not self._stopped:
            self.now = max(self.now, until)

    def __len__(self) -> int:
        """Number of live (non-tombstoned) scheduled events."""
        return len(self._heap) - self._tombstones


class Timer:
    """A reusable, cancellable timer bound to a single callback.

    At most one firing is pending at any moment: re-arming an active timer
    replaces the pending firing.  The bound callback is stored once at
    construction, so arming a timer allocates no closure.
    """

    __slots__ = ("_events", "_callback", "_entry")

    def __init__(self, events: EventQueue, callback: Callable[[], None]) -> None:
        self._events = events
        self._callback = callback
        self._entry: _Entry | None = None

    @property
    def active(self) -> bool:
        """Whether a firing is currently pending."""
        return self._entry is not None

    @property
    def when(self) -> float | None:
        """Absolute time of the pending firing, or None when inactive."""
        entry = self._entry
        return entry[0] if entry is not None else None

    def schedule_at(self, time: float) -> None:
        """Arm (or re-arm) the timer to fire at absolute time ``time``."""
        events = self._events
        if time < events.now:
            raise ValueError("cannot schedule events in the past")
        entry = self._entry
        if entry is not None:
            entry[2] = entry[3] = None
            events._tombstones += 1
        self._entry = entry = [time, next(events._counter), self._callback, self]
        heapq.heappush(events._heap, entry)

    def schedule(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        self.schedule_at(self._events.now + delay)

    def _arm(self, time: float) -> None:
        """Branch-free hot-path arm used by the per-packet code paths.

        The caller must guarantee the timer is idle (``_entry is None``) and
        ``time`` is not in the past; unlike :meth:`schedule_at` there is no
        tombstoning or validation.  This is the single definition of the
        heap-entry layout shared by every hot path.
        """
        events = self._events
        self._entry = entry = [time, next(events._counter), self._callback, self]
        heapq.heappush(events._heap, entry)

    def cancel(self) -> None:
        """Cancel the pending firing, if any."""
        entry = self._entry
        if entry is not None:
            entry[2] = entry[3] = None
            self._events._tombstones += 1
            self._entry = None


class DelayLine:
    """A constant-delay FIFO serviced by a single self-rearming timer.

    Models a pure propagation delay: every item sent at time ``t`` is handed
    to ``sink`` at ``t + delay_s``, in send order.  Because the delay is
    constant, ready times are non-decreasing and a deque plus one timer
    replace the per-item closures the event heap would otherwise hold.

    :meth:`send_at` additionally lets the caller supply a precomputed ready
    time (used to fuse consecutive constant-delay hops into one event);
    ready times must still be non-decreasing across calls.
    """

    __slots__ = ("_events", "delay_s", "_sink", "_pending", "_timer")

    def __init__(self, events: EventQueue, delay_s: float, sink: Callable) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self._events = events
        self.delay_s = delay_s
        self._sink = sink
        self._pending: deque = deque()
        self._timer = Timer(events, self._pop_ready)

    def __len__(self) -> int:
        return len(self._pending)

    def send(self, item) -> None:
        """Enqueue ``item`` for delivery ``delay_s`` seconds from now."""
        self.send_at(self._events.now + self.delay_s, item)

    def send_at(self, ready_time: float, item) -> None:
        """Enqueue ``item`` for delivery at absolute time ``ready_time``."""
        pending = self._pending
        if pending and ready_time < pending[-1][0]:
            raise ValueError("delay line requires non-decreasing ready times")
        pending.append((ready_time, item))
        if self._timer._entry is None:
            self._timer.schedule_at(ready_time)

    def purge(self, predicate: Callable) -> int:
        """Remove every pending item for which ``predicate(item)`` is true.

        Used when a flow departs mid-run: its packets still travelling a
        *shared* delay line (a multi-hop forward line) must not be delivered
        to a torn-down endpoint.  The timer is re-armed to the surviving
        head — :meth:`_pop_ready` pops the head unconditionally, so a stale
        firing time would deliver the wrong item early.  Returns the number
        of items removed.
        """
        pending = self._pending
        if not pending:
            return 0
        kept = deque(entry for entry in pending if not predicate(entry[1]))
        removed = len(pending) - len(kept)
        if removed:
            self._pending = kept
            self._timer.cancel()
            if kept:
                self._timer.schedule_at(kept[0][0])
        return removed

    def clear(self) -> int:
        """Drop every pending item and disarm the timer (endpoint teardown)."""
        removed = len(self._pending)
        if removed:
            self._pending.clear()
        self._timer.cancel()
        return removed

    def _pop_ready(self) -> None:
        pending = self._pending
        sink = self._sink
        sink(pending.popleft()[1])
        # Batch any further items that share the firing time (items sent in
        # one burst, e.g. a window of packets released by a single ACK).
        events = self._events
        now = events.now
        while pending and pending[0][0] <= now:
            sink(pending.popleft()[1])
        if pending:
            # Re-arm for the new head.  The timer just fired, so unless a
            # sink re-armed it reentrantly there is nothing to tombstone.
            timer = self._timer
            if timer._entry is None:
                timer._arm(pending[0][0])
            else:
                timer.schedule_at(pending[0][0])
