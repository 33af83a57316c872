"""Unit tests of the emulator building blocks: events, queues, link, sender."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.emulation.events import EventQueue
from repro.emulation.link import BottleneckLink
from repro.emulation.packet import Packet
from repro.emulation.queues import DropTailQueue, RedQueue, make_queue


class TestEventQueue:
    def test_events_run_in_time_order(self):
        events = EventQueue()
        order = []
        events.schedule(0.2, lambda: order.append("b"))
        events.schedule(0.1, lambda: order.append("a"))
        events.schedule(0.3, lambda: order.append("c"))
        events.run(until=1.0)
        assert order == ["a", "b", "c"]

    def test_ties_run_in_fifo_order(self):
        events = EventQueue()
        order = []
        events.schedule(0.1, lambda: order.append(1))
        events.schedule(0.1, lambda: order.append(2))
        events.run(until=1.0)
        assert order == [1, 2]

    def test_clock_advances_to_until(self):
        events = EventQueue()
        events.run(until=2.5)
        assert events.now == 2.5

    def test_events_beyond_horizon_not_executed(self):
        events = EventQueue()
        fired = []
        events.schedule(5.0, lambda: fired.append(1))
        events.run(until=1.0)
        assert not fired
        assert len(events) == 1

    def test_cannot_schedule_in_past(self):
        events = EventQueue()
        events.run(until=1.0)
        with pytest.raises(ValueError):
            events.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            events.schedule(-0.1, lambda: None)

    def test_stop_halts_processing(self):
        events = EventQueue()
        fired = []
        events.schedule(0.1, lambda: (fired.append(1), events.stop()))
        events.schedule(0.2, lambda: fired.append(2))
        events.run(until=1.0)
        assert fired == [1]

    def test_callbacks_can_schedule_more_events(self):
        events = EventQueue()
        fired = []

        def chain():
            fired.append(events.now)
            if len(fired) < 3:
                events.schedule(0.1, chain)

        events.schedule(0.1, chain)
        events.run(until=1.0)
        assert len(fired) == 3
        assert fired == pytest.approx([0.1, 0.2, 0.3])


def make_packet(seq: int = 0, flow: int = 0) -> Packet:
    return Packet(flow_id=flow, seq=seq, size_bytes=1500, sent_time=0.0)


def admit_all(queue, arrivals: int) -> list[bool]:
    """Offer ``arrivals`` back-to-back packets at t=0 that never depart."""
    results = []
    for _ in range(arrivals):
        results.append(queue.decide(queue.enqueued, 0.0))
    return results


class TestDropTailQueue:
    def test_accepts_until_full_then_drops(self):
        queue = DropTailQueue(capacity_pkts=3)
        assert admit_all(queue, 5) == [True, True, True, False, False]
        assert queue.dropped == 2
        assert queue.enqueued == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_pkts=0)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=200))
    def test_conservation(self, capacity, arrivals):
        queue = DropTailQueue(capacity_pkts=capacity)
        admit_all(queue, arrivals)
        assert queue.enqueued + queue.dropped == arrivals
        assert queue.enqueued == min(capacity, arrivals)


class TestRedQueue:
    def test_no_drops_when_average_queue_small(self):
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        assert all(admit_all(queue, 10))

    def test_drop_probability_grows_with_average_queue(self):
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.avg_queue = 10.0
        low = queue.drop_probability()
        queue.avg_queue = 90.0
        assert queue.drop_probability() > low

    def test_full_queue_always_drops(self):
        queue = RedQueue(capacity_pkts=5, rng=random.Random(1))
        assert queue.decide(5, 0.0) is False

    def test_average_lags_instantaneous_queue(self):
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        admit_all(queue, 50)
        assert queue.avg_queue < queue.enqueued

    def test_invalid_parameters(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            RedQueue(10, rng, min_threshold_fraction=0.9, max_threshold_fraction=0.5)
        with pytest.raises(ValueError):
            RedQueue(10, rng, max_probability=0.0)
        with pytest.raises(ValueError):
            RedQueue(10, rng, ewma_weight=2.0)

    def test_factory(self):
        rng = random.Random(1)
        assert isinstance(make_queue("droptail", 10, rng), DropTailQueue)
        assert isinstance(make_queue("red", 10, rng), RedQueue)
        with pytest.raises(ValueError):
            make_queue("codel", 10, rng)


class TestBottleneckLink:
    def test_serialises_at_capacity(self):
        events = EventQueue()
        delivered = []
        link = BottleneckLink(
            events=events,
            queue=DropTailQueue(capacity_pkts=100),
            capacity_pps=100.0,
            delay_s=0.0,
            deliver=delivered.append,
        )
        for i in range(10):
            link.on_arrival(make_packet(i))
        events.run(until=1.0)
        # 10 packets at 100 pps take exactly 0.1 s; all must be delivered.
        assert len(delivered) == 10
        assert events.now >= 0.1

    def test_propagation_delay_applied(self):
        events = EventQueue()
        times = []
        link = BottleneckLink(
            events=events,
            queue=DropTailQueue(capacity_pkts=10),
            capacity_pps=1000.0,
            delay_s=0.05,
            deliver=lambda p: times.append(events.now),
        )
        link.on_arrival(make_packet(0))
        events.run(until=1.0)
        assert times[0] == pytest.approx(0.001 + 0.05, abs=1e-9)

    def test_drops_counted_when_queue_full(self):
        events = EventQueue()
        link = BottleneckLink(
            events=events,
            queue=DropTailQueue(capacity_pkts=2),
            capacity_pps=10.0,
            delay_s=0.0,
            deliver=lambda p: None,
        )
        for i in range(10):
            link.on_arrival(make_packet(i))
        assert link.queue.dropped > 0

    def test_invalid_parameters(self):
        events = EventQueue()
        with pytest.raises(ValueError):
            BottleneckLink(events, DropTailQueue(1), capacity_pps=0.0, delay_s=0.0, deliver=lambda p: None)
        with pytest.raises(ValueError):
            BottleneckLink(events, DropTailQueue(1), capacity_pps=10.0, delay_s=-1.0, deliver=lambda p: None)

    def test_fifo_order(self):
        events = EventQueue()
        delivered = []
        link = BottleneckLink(
            events=events,
            queue=DropTailQueue(capacity_pkts=10),
            capacity_pps=1000.0,
            delay_s=0.0,
            deliver=delivered.append,
        )
        for i in range(5):
            link.on_arrival(make_packet(i))
        events.run(until=1.0)
        assert [packet.seq for packet in delivered] == [0, 1, 2, 3, 4]

    def test_transmission_counter(self):
        events = EventQueue()
        link = BottleneckLink(
            events=events,
            queue=DropTailQueue(capacity_pkts=100),
            capacity_pps=1000.0,
            delay_s=0.0,
            deliver=lambda p: None,
        )
        for i in range(5):
            link.on_arrival(make_packet(i))
        events.run(until=1.0)
        assert link.transmitted == 5
