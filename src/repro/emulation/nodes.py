"""Sender and receiver endpoints of the packet-level emulator.

A :class:`Sender` models an iPerf-like greedy source: it always has data to
send and is limited only by its congestion window and pacing rate.  The
destination host acknowledges every packet individually (SACK-style), so the
sender detects a loss as soon as a later-sent packet is acknowledged — the
network is FIFO, hence any still-unacknowledged packet that was sent before
an acknowledged one must have been dropped.  Lost packets are not
retransmitted (the throughput metrics of the paper measure delivered
traffic; retransmissions would only re-label which packets carry it).

Each acknowledgement reaches the CCA as exactly one
:meth:`~repro.emulation.cca.base.PacketCCA.on_ack` call carrying the ACK
time, the RTT sample, the delivery-rate sample and the inflight left after
the losses it revealed (those go first, as one ``on_loss`` call).

Event usage is O(1) per sender regardless of the number of in-flight
packets: the access leg and the return path are
:class:`~repro.emulation.events.DelayLine` FIFOs, and the pacing wakeup and
the RTO watchdog are reusable :class:`~repro.emulation.events.Timer`
handles.  No per-packet closures are ever scheduled.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .cca.base import LossEvent, PacketCCA
from .events import DelayLine, EventQueue, Timer
from .link import BottleneckLink
from .packet import Packet

#: Minimum retransmission timeout, mirroring common kernel defaults.
MIN_RTO_S: float = 0.2
#: Periodic interval at which the sender checks for a stalled connection.
TIMEOUT_CHECK_INTERVAL_S: float = 0.1

_INF = math.inf


class Sender:
    """A greedy traffic source controlled by a packet-level CCA."""

    __slots__ = (
        "events",
        "flow_id",
        "cca",
        "bottleneck",
        "access_delay_s",
        "return_delay_s",
        "mss_bytes",
        "start_time_s",
        "size_packets",
        "stop_time_s",
        "completed_time_s",
        "on_complete",
        "next_seq",
        "inflight",
        "n_inflight",
        "sent_count",
        "delivered_count",
        "lost_count",
        "timeout_count",
        "reconciled_count",
        "last_rtt_s",
        "srtt_s",
        "return_line",
        "_access_line",
        "_pacing_timer",
        "_watchdog",
        "_timeout_marked",
        "_cca_ack",
        "_loss_event",
        "_next_send_time",
        "_last_ack_time",
        "_started",
        "_done",
        "_stop_timer",
    )

    def __init__(
        self,
        events: EventQueue,
        flow_id: int,
        cca: PacketCCA,
        bottleneck: BottleneckLink,
        access_delay_s: float,
        return_delay_s: float,
        mss_bytes: int,
        start_time_s: float = 0.0,
        size_packets: int | None = None,
        stop_time_s: float | None = None,
    ) -> None:
        if access_delay_s < 0 or return_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if size_packets is not None and size_packets < 1:
            raise ValueError("flow size must be at least one packet")
        if stop_time_s is not None and stop_time_s <= start_time_s:
            raise ValueError("stop time must lie after the start time")
        self.events = events
        self.flow_id = flow_id
        self.cca = cca
        self.bottleneck = bottleneck
        self.access_delay_s = access_delay_s
        self.return_delay_s = return_delay_s
        self.mss_bytes = mss_bytes
        self.start_time_s = start_time_s
        #: Packets to deliver before the flow completes (None: long-lived).
        self.size_packets = size_packets
        #: Absolute switch-off time of an on/off source (None: never).
        self.stop_time_s = stop_time_s
        #: Absolute time the flow completed or switched off (None: active).
        self.completed_time_s: float | None = None
        #: Runner hook fired once at teardown (purges shared delay lines).
        self.on_complete: Callable[[Sender], None] | None = None

        self.next_seq = 0
        self.inflight: dict[int, Packet] = {}
        self.n_inflight = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.lost_count = 0
        #: Number of retransmission timeouts fired by the watchdog.
        self.timeout_count = 0
        #: Packets first written off by the watchdog whose ACK arrived later
        #: (spurious-timeout reconciliation, see :meth:`_reconcile_late_ack`).
        self.reconciled_count = 0
        self.last_rtt_s = 0.0
        self.srtt_s: float | None = None
        self._next_send_time = start_time_s
        self._last_ack_time = start_time_s
        self._started = False
        self._done = False
        self._stop_timer = Timer(events, self._on_stop) if stop_time_s is not None else None

        #: Data path to the bottleneck (the sender's private access link).
        self._access_line = DelayLine(events, access_delay_s, bottleneck.on_arrival)
        #: Return path carrying ACKs back from the destination.  The link
        #: pushes straight onto this line when ack routes are fused.
        self.return_line = DelayLine(events, return_delay_s, self._on_ack)
        self._pacing_timer = Timer(events, self._try_send)
        self._watchdog = Timer(events, self._check_timeout)
        #: Sequences written off by the watchdog that may still be ACKed.
        self._timeout_marked: set[int] = set()
        # The CCA's ACK callback, bound once; the loss record is reused
        # across calls (the CCA contract is to read it synchronously, see
        # cca/base.py) so the ACK hot path allocates nothing beyond the
        # packet itself.
        self._cca_ack = cca.on_ack
        self._loss_event = LossEvent(0.0, 0, 0, 0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Schedule the first transmission and the stall watchdog."""
        if self._started:
            return
        self._started = True
        self.events.schedule_at(self.start_time_s, self._try_send)
        self._watchdog.schedule_at(self.start_time_s + TIMEOUT_CHECK_INTERVAL_S)
        if self._stop_timer is not None and self.stop_time_s is not None:
            self._stop_timer.schedule_at(self.stop_time_s)

    # ------------------------------------------------------------------ #
    # Transmission path
    # ------------------------------------------------------------------ #

    def _rto(self) -> float:
        if self.srtt_s is None:
            return 1.0
        return max(MIN_RTO_S, 4.0 * self.srtt_s)

    def _try_send(self) -> None:
        if self._done:
            return
        now = self.events.now
        next_send = self._next_send_time
        if now < next_send and self._pacing_timer._entry is not None:
            # Pacing-limited and the wakeup is already armed: nothing to do
            # (the armed wakeup fires no later than any newly computed send
            # time would).
            return
        cca = self.cca
        window = cca.cwnd_pkts  # inlined cca.window_limit()
        if window < 1.0:
            window = 1.0
        n_inflight = self.n_inflight
        if n_inflight >= window:
            return
        limit = self.size_packets if self.size_packets is not None else _INF
        if self.next_seq >= limit:
            # Every packet of a finite flow is already injected; completion
            # fires once the last in-flight packet is acknowledged.
            return
        if now >= next_send:
            # Seconds between transmissions; an unset (infinite or
            # non-positive) pacing rate sends the whole window at once.
            rate = cca.pacing_rate_pps
            interval = 0.0 if rate <= 0.0 or rate == _INF else 1.0 / rate
            inflight = self.inflight
            line = self._access_line
            pending = line._pending
            flow_id = self.flow_id
            mss = self.mss_bytes
            delivered = self.delivered_count
            arrival = now + self.access_delay_s
            seq = first_seq = self.next_seq
            while True:
                packet = Packet(flow_id, seq, mss, now, delivered)
                inflight[seq] = packet
                pending.append((arrival, packet))
                seq += 1
                n_inflight += 1
                next_send = (next_send if next_send > now else now) + interval
                if n_inflight >= window or now < next_send or seq >= limit:
                    break
            self.sent_count += seq - first_seq
            self.next_seq = seq
            self.n_inflight = n_inflight
            self._next_send_time = next_send
            # The whole burst shares one arrival time, so the line's timer
            # is armed at most once per call.
            timer = line._timer
            if timer._entry is None:
                timer._arm(pending[0][0])
        if n_inflight < window and now < next_send and self.next_seq < limit:
            # Pacing-limited: wake up when the next transmission is allowed.
            timer = self._pacing_timer
            if timer._entry is None:
                timer._arm(next_send)

    # ------------------------------------------------------------------ #
    # Acknowledgement path
    # ------------------------------------------------------------------ #

    def on_packet_delivered(self, packet: Packet) -> None:
        """Called by the topology when a packet reaches the destination host."""
        if self._done:
            # Stragglers of a departed flow (packets that were already queued
            # at a bottleneck when the source switched off) die here rather
            # than re-arming the torn-down return line.
            return
        self.return_line.send(packet)

    def _on_ack(self, packet: Packet) -> None:
        if self._done:
            return
        now = self.events.now
        self._last_ack_time = now
        inflight = self.inflight
        seq = packet.seq
        if inflight.pop(seq, None) is None:
            self._reconcile_late_ack(seq)
            return
        n_inflight = self.n_inflight - 1
        delivered = self.delivered_count + 1
        self.delivered_count = delivered
        if self._timeout_marked:
            self._purge_marked(seq)

        # FIFO network: every unacknowledged packet sent before this one is
        # lost.  Packets enter ``inflight`` in strictly increasing sequence
        # order and dict iteration preserves insertion order, so the lost
        # packets form a prefix — stop at the first seq past the ACK instead
        # of scanning the whole window on every acknowledgement.
        lost: list[int] = []
        for s in inflight:
            if s >= seq:
                break
            lost.append(s)
        rtt = now - packet.sent_time
        self.last_rtt_s = rtt
        srtt = self.srtt_s
        self.srtt_s = rtt if srtt is None else 0.875 * srtt + 0.125 * rtt
        elapsed = rtt if rtt > 1e-9 else 1e-9
        delivery_rate = (delivered - packet.delivered_at_send) / elapsed

        if lost:
            for s in lost:
                del inflight[s]
            n_inflight -= len(lost)
            self.lost_count += len(lost)
            event = self._loss_event
            event.now = now
            event.num_lost = len(lost)
            event.inflight = n_inflight
            event.highest_seq_sent = self.next_seq - 1
            event.lost_seqs = tuple(lost)
            self.n_inflight = n_inflight
            self.cca.on_loss(event)
        else:
            self.n_inflight = n_inflight
        self._cca_ack(now, rtt, delivery_rate, n_inflight)
        size = self.size_packets
        if size is not None and self.next_seq >= size and n_inflight == 0:
            self._complete(now)
            return
        self._try_send()

    def _reconcile_late_ack(self, seq: int) -> None:
        """An ACK arrived for a packet the watchdog had written off.

        The packet was genuinely delivered, so the spurious timeout must not
        leave it counted as lost: move it from the loss tally to the
        delivery tally.  (The pre-change implementation silently dropped
        such ACKs, undercounting deliveries and overcounting losses after
        every spurious RTO.)
        """
        marked = self._timeout_marked
        if seq in marked:
            marked.remove(seq)
            self.lost_count -= 1
            self.delivered_count += 1
            self.reconciled_count += 1
            self._purge_marked(seq)

    def _purge_marked(self, acked_seq: int) -> None:
        """Drop timeout marks that can no longer be reconciled.

        The network is FIFO: once ``acked_seq`` is acknowledged, any marked
        packet with a smaller sequence would already have been acknowledged
        if it had been delivered — it is confirmed lost and its mark can be
        discarded (keeping the marked set bounded).
        """
        self._timeout_marked = {s for s in self._timeout_marked if s >= acked_seq}

    # ------------------------------------------------------------------ #
    # Stall watchdog (retransmission timeout)
    # ------------------------------------------------------------------ #

    def _check_timeout(self) -> None:
        if self._done:
            return
        now = self.events.now
        inflight = self.inflight
        if inflight and now - self._last_ack_time > self._rto():
            self.timeout_count += 1
            self.lost_count += len(inflight)
            # Keep the written-off sequences around: if an ACK still arrives
            # (spurious timeout) the counters are reconciled in _on_ack.
            self._timeout_marked.update(inflight)
            inflight.clear()
            self.n_inflight = 0
            self.cca.on_timeout(now)
            self._last_ack_time = now
            self._try_send()
            size = self.size_packets
            if size is not None and self.next_seq >= size and self.n_inflight == 0:
                # The write-off drained the window and every packet of the
                # finite flow is injected: nothing can restart this source.
                self._complete(now)
                return
        self._watchdog.schedule(TIMEOUT_CHECK_INTERVAL_S)

    # ------------------------------------------------------------------ #
    # Finite-size completion and on/off switch-off
    # ------------------------------------------------------------------ #

    def _on_stop(self) -> None:
        """On/off switch-off: abandon in-flight data and tear down."""
        if self._done:
            return
        # The source stops mid-transfer: whatever is still travelling is
        # abandoned, not awaited — the flow's lifetime ends exactly at the
        # configured stop time.
        self.inflight.clear()
        self.n_inflight = 0
        self._timeout_marked.clear()
        self._complete(self.events.now)

    def _complete(self, now: float) -> None:
        """Record the completion time and release every event-loop resource.

        After this call the sender occupies zero heap slots: the pacing
        timer, the RTO watchdog, the stop timer and both private delay
        lines are cancelled/drained, so a churn run's heap stays bounded by
        the *active* flow population.  Packets of this flow still inside
        shared infrastructure (bottleneck queues, multi-hop forward lines)
        are the runner's responsibility (see its ``on_complete`` hook).
        """
        self._done = True
        self.completed_time_s = now
        self._pacing_timer.cancel()
        self._watchdog.cancel()
        if self._stop_timer is not None:
            self._stop_timer.cancel()
        self._access_line.clear()
        self.return_line.clear()
        if self.on_complete is not None:
            self.on_complete(self)


class Destination:
    """The shared destination host: routes delivered packets back to their sender."""

    def __init__(self, senders: dict[int, Sender]) -> None:
        self._senders = senders

    def deliver(self, packet: Packet) -> None:
        sender = self._senders.get(packet.flow_id)
        if sender is None:
            raise KeyError(f"packet for unknown flow {packet.flow_id}")
        sender.on_packet_delivered(packet)
