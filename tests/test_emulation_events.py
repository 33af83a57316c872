"""Tests of the typed event primitives (Timer, DelayLine) and of the
emulator accounting fixes that rode along with the event-layer rewrite
(spurious-RTO reconciliation, RED idle decay, absolute-grid sampling).
The emulator's packet counts are pinned by ``test_emulation_golden.py``."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.config import dumbbell_scenario
from repro.emulation.cca.base import LossEvent, PacketCCA
from repro.emulation.events import DelayLine, EventQueue
from repro.emulation.link import BottleneckLink
from repro.emulation.nodes import Sender
from repro.emulation.packet import Packet
from repro.emulation.queues import DropTailQueue, RedQueue
from repro.emulation.runner import RECORD_INTERVAL_S, EmulationRunner


class TestTimer:
    def test_fires_at_scheduled_time(self):
        events = EventQueue()
        fired = []
        timer = events.timer(lambda: fired.append(events.now))
        timer.schedule(0.5)
        events.run(until=1.0)
        assert fired == [0.5]

    def test_cancel_prevents_firing(self):
        events = EventQueue()
        fired = []
        timer = events.timer(lambda: fired.append(1))
        timer.schedule(0.5)
        timer.cancel()
        events.run(until=1.0)
        assert not fired
        assert not timer.active

    def test_rearm_replaces_pending_firing(self):
        events = EventQueue()
        fired = []
        timer = events.timer(lambda: fired.append(events.now))
        timer.schedule_at(0.5)
        timer.schedule_at(0.25)
        events.run(until=1.0)
        assert fired == [0.25]

    def test_active_and_when(self):
        events = EventQueue()
        timer = events.timer(lambda: None)
        assert not timer.active and timer.when is None
        timer.schedule_at(0.75)
        assert timer.active and timer.when == 0.75
        events.run(until=1.0)
        assert not timer.active and timer.when is None

    def test_callback_can_rearm_itself(self):
        events = EventQueue()
        fired = []
        timer = events.timer(lambda: (fired.append(events.now), timer.schedule(0.1)))
        timer.schedule(0.1)
        events.run(until=0.35)
        assert fired == pytest.approx([0.1, 0.2, 0.3])
        assert timer.active  # armed for 0.4, beyond the horizon

    def test_len_excludes_tombstoned_entries(self):
        events = EventQueue()
        timer = events.timer(lambda: None)
        timer.schedule_at(0.5)
        timer.schedule_at(0.6)  # tombstones the 0.5 entry
        assert len(events) == 1
        timer.cancel()
        assert len(events) == 0
        events.run(until=1.0)
        assert len(events) == 0

    def test_cannot_schedule_in_past(self):
        events = EventQueue()
        events.run(until=1.0)
        timer = events.timer(lambda: None)
        with pytest.raises(ValueError):
            timer.schedule_at(0.5)
        with pytest.raises(ValueError):
            timer.schedule(-0.1)


def make_packet(seq: int = 0, flow: int = 0) -> Packet:
    return Packet(flow_id=flow, seq=seq, size_bytes=1500, sent_time=0.0)


class TestDelayLine:
    def test_constant_delay_applied(self):
        events = EventQueue()
        out = []
        line = DelayLine(events, 0.25, lambda item: out.append((events.now, item)))
        line.send("a")
        events.run(until=1.0)
        assert out == [(0.25, "a")]

    def test_fifo_order_preserved(self):
        events = EventQueue()
        out = []
        line = DelayLine(events, 0.1, out.append)
        events.schedule_at(0.0, lambda: [line.send(i) for i in range(5)])
        events.run(until=1.0)
        assert out == [0, 1, 2, 3, 4]

    def test_equal_ready_times_delivered_in_send_order(self):
        # Items sent at the same instant share a ready time and must pop in
        # send order within a single batched firing.
        events = EventQueue()
        out = []
        line = DelayLine(events, 0.0, out.append)
        fired = []
        events.schedule_at(0.5, lambda: fired.append("marker"))
        events.schedule_at(0.5, lambda: [line.send(i) for i in (1, 2, 3)])
        events.run(until=1.0)
        assert out == [1, 2, 3]

    def test_one_live_event_for_many_items(self):
        events = EventQueue()
        line = DelayLine(events, 0.5, lambda item: None)
        for i in range(100):
            line.send(i)
        assert len(line) == 100
        assert len(events) == 1  # a single pop event services the whole line

    def test_interleaved_sends_keep_timing(self):
        events = EventQueue()
        out = []
        line = DelayLine(events, 0.2, lambda item: out.append((round(events.now, 6), item)))
        events.schedule_at(0.0, lambda: line.send("x"))
        events.schedule_at(0.1, lambda: line.send("y"))
        events.run(until=1.0)
        assert out == [(0.2, "x"), (0.3, "y")]

    def test_send_at_requires_monotone_ready_times(self):
        events = EventQueue()
        line = DelayLine(events, 0.0, lambda item: None)
        line.send_at(0.5, "a")
        with pytest.raises(ValueError):
            line.send_at(0.4, "b")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayLine(EventQueue(), -0.1, lambda item: None)


class _InertCCA(PacketCCA):
    """A CCA that never changes its window (for white-box sender tests)."""

    name = "inert"

    def __init__(self, cwnd: float = 100.0) -> None:
        super().__init__()
        self.cwnd_pkts = cwnd
        self.timeouts = 0

    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        pass

    def on_loss(self, event: LossEvent) -> None:
        pass

    def on_timeout(self, now: float) -> None:
        self.timeouts += 1


def _make_sender(events: EventQueue) -> Sender:
    link = BottleneckLink(
        events=events,
        queue=DropTailQueue(capacity_pkts=100),
        capacity_pps=1000.0,
        delay_s=0.0,
        deliver=lambda p: None,
    )
    return Sender(
        events=events,
        flow_id=0,
        cca=_InertCCA(),
        bottleneck=link,
        access_delay_s=0.0,
        return_delay_s=0.0,
        mss_bytes=1500,
    )


class TestSpuriousRtoReconciliation:
    def test_late_ack_moves_loss_back_to_delivery(self):
        events = EventQueue()
        sender = _make_sender(events)
        p0 = Packet(0, 0, 1500, 0.0, 0)
        p1 = Packet(0, 1, 1500, 0.0, 0)
        sender.inflight.update({0: p0, 1: p1})
        sender.n_inflight = 2
        sender.sent_count = 2
        sender.next_seq = 2
        # Let the watchdog believe the connection stalled past the RTO.
        events.now = 2.0
        sender._check_timeout()
        assert sender.lost_count == 2
        assert sender.delivered_count == 0
        assert sender.cca.timeouts == 1
        # The ACK for packet 0 arrives late: it was genuinely delivered.
        sender._on_ack(p0)
        assert sender.delivered_count == 1
        assert sender.lost_count == 1
        assert sender.reconciled_count == 1
        # A second copy of the same ACK must not double-count.
        sender._on_ack(p0)
        assert sender.delivered_count == 1
        assert sender.lost_count == 1

    def test_marks_confirmed_lost_are_purged_fifo(self):
        events = EventQueue()
        sender = _make_sender(events)
        packets = {seq: Packet(0, seq, 1500, 0.0, 0) for seq in range(3)}
        sender.inflight.update(packets)
        sender.n_inflight = 3
        sender.sent_count = 3
        sender.next_seq = 3
        events.now = 2.0
        sender._check_timeout()
        assert sender._timeout_marked == {0, 1, 2}
        # ACK for seq 2 arrives: seqs 0 and 1 can never be ACKed any more
        # (FIFO network), so their marks are dropped and they stay lost.
        sender._on_ack(packets[2])
        assert sender._timeout_marked == set()
        assert sender.delivered_count == 1
        assert sender.lost_count == 2
        # Stale duplicate ACKs for purged marks change nothing.
        sender._on_ack(packets[0])
        assert sender.delivered_count == 1
        assert sender.lost_count == 2


class _RecordingCCA(PacketCCA):
    """A fixed-window CCA that records every ACK callback with the sender's view."""

    name = "recording"

    def __init__(self, cwnd: float, pacing_rate_pps: float = math.inf) -> None:
        super().__init__()
        self.cwnd_pkts = cwnd
        self.pacing_rate_pps = pacing_rate_pps
        self.sender: Sender | None = None
        #: (now, rtt, delivery_rate, inflight, clock, sent_count) per call.
        self.acks: list[tuple[float, float, float, int, float, int]] = []

    def on_ack(self, now: float, rtt: float, delivery_rate: float, inflight: int) -> None:
        sender = self.sender
        self.acks.append((now, rtt, delivery_rate, inflight, sender.events.now, sender.sent_count))

    def on_loss(self, event: LossEvent) -> None:
        pass


def _run_recorded(
    cca: _RecordingCCA, *, size: int, buffer_pkts: int, start: float = 0.0
) -> tuple[Sender, list[Packet]]:
    """Run one finite flow over a 1000 pkt/s link; return it and the packets
    in the order they reached the destination (= ACK order, FIFO)."""
    events = EventQueue()
    arrived: list[Packet] = []

    def deliver(packet: Packet) -> None:
        arrived.append(packet)
        sender.on_packet_delivered(packet)

    link = BottleneckLink(
        events=events,
        queue=DropTailQueue(capacity_pkts=buffer_pkts),
        capacity_pps=1000.0,
        delay_s=0.01,
        deliver=deliver,
    )
    sender = Sender(
        events=events,
        flow_id=0,
        cca=cca,
        bottleneck=link,
        access_delay_s=0.005,
        return_delay_s=0.015,
        mss_bytes=1500,
        start_time_s=start,
        size_packets=size,
    )
    cca.sender = sender
    sender.start()
    events.run(until=10.0)
    return sender, arrived


class TestSenderAckContract:
    """What the sender hands a CCA: one ``on_ack`` per acknowledged packet."""

    def test_one_on_ack_per_acknowledged_packet(self):
        # A 30-packet burst into a 5-packet buffer: most of it is dropped,
        # so inflight must be reported after the losses the ACK revealed.
        cca = _RecordingCCA(cwnd=30.0)
        sender, arrived = _run_recorded(cca, size=100, buffer_pkts=5)
        assert sender.completed_time_s is not None
        assert sender.timeout_count == 0
        assert sender.lost_count > 0
        assert len(cca.acks) == len(arrived) == sender.delivered_count
        assert sender.delivered_count + sender.lost_count == 100
        for k, (packet, call) in enumerate(zip(arrived, cca.acks, strict=True)):
            now, rtt, delivery_rate, inflight, clock, sent = call
            assert now == clock
            assert rtt == now - packet.sent_time
            assert delivery_rate == (k + 1 - packet.delivered_at_send) / rtt
            # FIFO: every packet up to the acked one is acked or lost.
            assert inflight == sent - (packet.seq + 1)

    def test_infinite_pacing_rate_sends_whole_window_at_once(self):
        cca = _RecordingCCA(cwnd=8.0)
        _, arrived = _run_recorded(cca, size=8, buffer_pkts=100, start=0.25)
        assert [p.seq for p in arrived] == list(range(8))
        assert {p.sent_time for p in arrived} == {0.25}

    def test_finite_pacing_rate_spaces_sends_by_its_inverse(self):
        cca = _RecordingCCA(cwnd=100.0, pacing_rate_pps=500.0)
        _, arrived = _run_recorded(cca, size=10, buffer_pkts=100)
        gaps = np.diff([p.sent_time for p in arrived])
        np.testing.assert_allclose(gaps, 1.0 / 500.0, rtol=1e-9)


class TestRedIdleDecay:
    def test_decide_applies_idle_decay(self):
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.service_time_s = 0.001
        queue.avg_queue = 50.0
        queue.notify_idle(0.0)
        assert queue.decide(0, 1.0)  # after 1000 service times of idleness
        expected = 50.0 * (1.0 - queue.ewma_weight) ** 1000
        assert queue.avg_queue == pytest.approx(expected)
        assert queue.avg_queue < 10.0

    def test_link_idle_report_decays_average(self):
        # The link reports the queue emptied (its last packet started
        # service at t=0); the next arrival, at 0.5 s, decays the average.
        events = EventQueue()
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        link = BottleneckLink(
            events, queue, capacity_pps=1000.0, delay_s=0.0, deliver=lambda p: None
        )
        link.on_arrival(make_packet(0))
        queue.avg_queue = 40.0
        events.run(until=0.5)
        link.on_arrival(make_packet(1))
        expected = 40.0 * (1.0 - queue.ewma_weight) ** 500
        assert queue.avg_queue == pytest.approx(expected)

    def test_decay_only_hits_first_arrival_after_idle(self):
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.service_time_s = 0.001
        queue.avg_queue = 50.0
        queue.notify_idle(0.0)
        queue.decide(0, 1.0)
        decayed = queue.avg_queue
        queue.decide(3, 1.0)  # regular EWMA from here on
        w = queue.ewma_weight
        assert queue.avg_queue == pytest.approx((1.0 - w) * decayed + w * 3)


class TestSamplingGrid:
    def test_timestamps_on_exact_absolute_grid(self):
        config = dumbbell_scenario(["bbr1"], duration_s=1.0)
        trace = EmulationRunner(config).run()
        expected = (np.arange(len(trace.time)) + 1.0) * RECORD_INTERVAL_S
        # Bitwise equality: sample k fires at exactly (k + 1) * interval,
        # with no accumulated floating-point drift.
        np.testing.assert_array_equal(trace.time, expected)
        assert len(trace.time) == 100

    def test_heap_stays_small_while_running(self):
        # The tentpole invariant: the delay-line scheduler keeps O(flows +
        # links) live events regardless of how many packets are in flight.
        config = dumbbell_scenario(["bbr1"] * 4, duration_s=0.5)
        runner = EmulationRunner(config)
        peak = 0

        def probe():
            nonlocal peak
            peak = max(peak, len(runner.events))
            runner.events.schedule(0.01, probe)

        runner.events.schedule(0.005, probe)
        runner.run()
        # 4 senders x (pacing + watchdog + access line + return line) + the
        # sampler + the probe itself, with a little slack.
        assert peak <= 4 * 4 + 4

    def test_inflight_counter_consistent(self):
        config = dumbbell_scenario(["bbr1", "reno"], duration_s=1.0)
        runner = EmulationRunner(config)
        runner.run()
        for sender in runner.senders.values():
            assert sender.n_inflight == len(sender.inflight)
