"""Tests of the typed event primitives (Timer, DelayLine) and the
closure-vs-delayline scheduler equivalence, plus the emulator accounting
fixes that rode along with the event-layer rewrite (spurious-RTO
reconciliation, RED idle decay, absolute-grid sampling)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import dumbbell_scenario
from repro.emulation.cca.base import AckSample, LossEvent, PacketCCA
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

    def on_ack(self, sample: AckSample) -> None:
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


class TestRedIdleDecay:
    def test_decide_applies_idle_decay(self):
        events = EventQueue()
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.bind_clock(events, service_time_s=0.001)
        queue.avg_queue = 50.0
        queue.notify_idle(0.0)
        events.now = 1.0  # 1000 service times of idleness
        assert queue.decide(0, 1.0)
        expected = 50.0 * (1.0 - queue.ewma_weight) ** 1000
        assert queue.avg_queue == pytest.approx(expected)
        assert queue.avg_queue < 10.0

    def test_offer_applies_idle_decay_after_pop_empties_queue(self):
        events = EventQueue()
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.bind_clock(events, service_time_s=0.001)
        queue.offer(make_packet(0))
        queue.avg_queue = 40.0
        queue.pop()  # queue empties -> idle period starts at now=0
        events.now = 0.5
        queue.offer(make_packet(1))
        expected = 40.0 * (1.0 - queue.ewma_weight) ** 500
        assert queue.avg_queue == pytest.approx(expected)

    def test_unbound_queue_keeps_legacy_ewma(self):
        # Without a clock (the pre-change closure path) the EWMA decays one
        # step per arrival, exactly as before.
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.avg_queue = 40.0
        queue.offer(make_packet(0))
        assert queue.avg_queue == pytest.approx(40.0 * (1.0 - queue.ewma_weight))

    def test_decay_only_hits_first_arrival_after_idle(self):
        events = EventQueue()
        queue = RedQueue(capacity_pkts=100, rng=random.Random(1))
        queue.bind_clock(events, service_time_s=0.001)
        queue.avg_queue = 50.0
        queue.notify_idle(0.0)
        events.now = 1.0
        queue.decide(0, 1.0)
        decayed = queue.avg_queue
        queue.decide(3, 1.0)  # regular EWMA from here on
        w = queue.ewma_weight
        assert queue.avg_queue == pytest.approx((1.0 - w) * decayed + w * 3)


class TestSchedulerEquivalence:
    """Same seeds => identical droptail accounting across event layers."""

    @pytest.mark.parametrize("ccas", [["bbr1"] * 3, ["bbr1", "reno", "cubic", "bbr2"]])
    def test_droptail_counts_identical(self, ccas):
        config = dumbbell_scenario(ccas, duration_s=2.0, seed=3)
        old = EmulationRunner(config, scheduler="closure")
        old.run()
        new = EmulationRunner(config, scheduler="delayline")
        new.run()
        counts_old = [
            (s.sent_count, s.delivered_count, s.lost_count) for s in old.senders.values()
        ]
        counts_new = [
            (s.sent_count, s.delivered_count, s.lost_count) for s in new.senders.values()
        ]
        assert counts_old == counts_new
        assert old.bottleneck.queue.dropped == new.bottleneck.queue.dropped
        assert old.bottleneck.transmitted == new.bottleneck.transmitted

    def test_droptail_traces_identical(self):
        config = dumbbell_scenario(["bbr1"] * 2, duration_s=2.0, seed=11)
        trace_old = EmulationRunner(config, scheduler="closure").run()
        trace_new = EmulationRunner(config, scheduler="delayline").run()
        for old_flow, new_flow in zip(trace_old.flows, trace_new.flows, strict=True):
            np.testing.assert_allclose(old_flow.rate, new_flow.rate)
            np.testing.assert_allclose(old_flow.delivery_rate, new_flow.delivery_rate)
        np.testing.assert_allclose(
            trace_old.bottleneck().queue, trace_new.bottleneck().queue
        )
        np.testing.assert_allclose(
            trace_old.bottleneck().loss_prob, trace_new.bottleneck().loss_prob
        )

    def test_unknown_scheduler_rejected(self):
        config = dumbbell_scenario(["bbr1"], duration_s=1.0)
        with pytest.raises(ValueError):
            EmulationRunner(config, scheduler="quantum")


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
