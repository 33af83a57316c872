"""Scenario runner of the packet-level emulator.

Builds the topology of a :class:`~repro.config.ScenarioConfig` — the
paper's dumbbell, or an explicit multi-bottleneck
:class:`~repro.config.TopologyConfig` (parking lots, multi-dumbbells) —
runs the discrete-event simulation, and samples the same
:class:`~repro.metrics.traces.Trace` structure the fluid model produces, so
that every metric of the paper's evaluation can be computed from either
substrate interchangeably (this emulator plays the role of the paper's
mininet experiments).

Multi-hop topologies chain one :class:`~repro.emulation.link.BottleneckLink`
per queued link via the existing delay-line primitives: each link's
propagation leg is fused into a forward delay line feeding the next hop's
arrival, and the last hop of every flow is fused with the flow's return
path (one heap event per hop per packet, exactly as on the dumbbell).
Per-link queue/loss/utilization series are recorded into the sampling
buffers and emitted as one :class:`~repro.metrics.traces.LinkTrace` per
queued link.  A link whose configured buffer is unbounded (``math.inf``)
gets a fixed :data:`UNBOUNDED_BUFFER_BDP` reference BDPs of queue.

When the scenario carries a :class:`~repro.config.FlowSchedule`, the runner
materialises it once (the identical per-flow start/size/stop list the fluid
substrate consumes) and builds each sender with its scheduled activation
time, finite size and optional switch-off time.  A departing flow tears
itself down — timers cancelled, private delay lines drained — and the
runner's ``on_complete`` hook purges its stragglers from the shared
inter-link forward lines, so the event heap stays bounded by the *active*
flow population under churn.  Flow lifetimes are recorded on the
:class:`~repro.metrics.traces.FlowTrace` (``start_time_s``/``end_time_s``)
for flow-completion-time metrics.

Samples are recorded into preallocated numpy buffers on an absolute time
grid (sample ``k`` fires at exactly ``(k + 1) * RECORD_INTERVAL_S``), so
emulation trace timestamps line up with the fluid traces' uniform grid
instead of accumulating floating-point drift from relative rescheduling.
When ``duration_s`` is not an integer multiple of :data:`RECORD_INTERVAL_S`, a
final sample is flushed at ``duration_s`` with rates normalised by the
actual partial-interval length, so the trace covers the full run.

Per-flow randomness is derived via :func:`derive_rng`, which hashes the
(scenario seed, stream label) pair: every (seed, flow) combination gets an
independent RNG stream, a prerequisite for uncorrelated multi-seed
replication in the campaign layer (``repro-bbr campaign --seeds K``).
Multi-hop topologies additionally derive one queue-RNG stream per link
(``derive_rng(seed, f"link:{name}")``); single-bottleneck scenarios —
legacy or one-hop topology — keep the historical ``"queue"`` stream so
seeded runs stay reproducible across the two config forms.

``scheduler`` selects the event layer: ``"delayline"`` (default) uses the
typed delay-line/timer primitives of :mod:`repro.emulation.events`;
``"closure"`` uses the preserved pre-change per-packet-closure scheduler
(:mod:`repro.emulation.closure_ref`) for equivalence tests and benchmarks.
The closure reference predates the topology subsystem and supports
single-bottleneck scenarios only.
"""

from __future__ import annotations

import math

import numpy as np

from .. import units
from ..config import EMULATION_RECORD_INTERVAL_S, EMULATION_SCHEDULER, ScenarioConfig
from ..obs import TELEMETRY
from ..rng import derive_rng
from ..metrics.traces import FlowTrace, LinkTrace, Trace
from . import closure_ref
from .cca import create_packet_cca
from .events import DelayLine, EventQueue, Timer
from .link import BottleneckLink
from .nodes import Destination, Sender
from .queues import make_queue

#: Seconds between emulation trace samples.  Every run uses it; store keys
#: and stored meta of emulation points record it.
RECORD_INTERVAL_S = EMULATION_RECORD_INTERVAL_S

#: The event layer every campaign runs (and store keys and meta record);
#: ``"closure"`` is the reference that tests and benchmarks compare against.
SCHEDULER = EMULATION_SCHEDULER

#: Event-layer implementations selectable via ``EmulationRunner(scheduler=...)``.
SCHEDULERS = (SCHEDULER, "closure")

#: Default emulated buffer, in reference-BDP multiples, standing in for an
#: "infinite" (``math.inf``) configured buffer.  The packet emulator needs a
#: concrete queue bound; 100 BDP is far beyond what any built-in CCA can
#: fill (their windows cap out earlier), so an unbounded buffer never drops.
UNBOUNDED_BUFFER_BDP = 100.0

__all__ = [
    "derive_rng",
    "EmulationRunner",
    "emulate",
    "RECORD_INTERVAL_S",
    "SCHEDULER",
    "SCHEDULERS",
    "UNBOUNDED_BUFFER_BDP",
]


class EmulationRunner:
    """Runs one scenario on the packet-level emulator."""

    def __init__(
        self,
        config: ScenarioConfig,
        scheduler: str = SCHEDULER,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
        topo = config.effective_topology()
        multi_hop = topo.num_links > 1
        if multi_hop and scheduler != "delayline":
            raise ValueError(
                "multi-bottleneck topologies require the delayline scheduler "
                "(the closure reference predates the topology subsystem)"
            )
        # Materialise the flow schedule once: both substrates consume the
        # identical per-flow (start, size, stop) list (see FlowSchedule).
        schedule_entries = config.flow_schedule()
        if schedule_entries is not None and scheduler != "delayline":
            raise ValueError(
                "flow schedules require the delayline scheduler "
                "(the closure reference predates time-varying flow populations)"
            )
        self._schedule_entries = schedule_entries
        self.config = config
        self.topology = topo
        self.scheduler = scheduler
        self.rng = derive_rng(config.seed, "queue")
        # The closure reference carries its own verbatim pre-change event
        # queue so the benchmark compares full old-vs-new event layers.
        self.events = (
            EventQueue() if scheduler == "delayline" else closure_ref.ClosureEventQueue()
        )

        # ---------- queued links (one BottleneckLink per topology link) --- #
        link_cls = BottleneckLink if scheduler == "delayline" else closure_ref.ClosureBottleneckLink
        sender_cls = Sender if scheduler == "delayline" else closure_ref.ClosureSender
        self.senders: dict[int, Sender] = {}
        destination = Destination(self.senders)
        ref_bdp = config.bottleneck_bdp_packets()
        self.links: list[BottleneckLink] = []
        link_by_name: dict[str, BottleneckLink] = {}
        for link_cfg in topo.links:
            buffer_pkts = config.link_buffer_packets(link_cfg)
            if math.isinf(buffer_pkts):
                buffer_pkts = UNBOUNDED_BUFFER_BDP * ref_bdp
            # Single-bottleneck scenarios keep the historical "queue" RNG
            # stream (one-hop topologies alias onto the legacy form
            # bit-for-bit); multi-hop links each get their own stream.
            queue_rng = (
                derive_rng(config.seed, f"link:{link_cfg.name}")
                if multi_hop
                else self.rng
            )
            queue = make_queue(
                link_cfg.discipline, max(1, int(round(buffer_pkts))), queue_rng
            )
            link = link_cls(
                events=self.events,
                queue=queue,
                capacity_pps=link_cfg.capacity_pps,
                delay_s=link_cfg.delay_s,
                deliver=destination.deliver,
            )
            self.links.append(link)
            link_by_name[link_cfg.name] = link
        #: The reference-bottleneck link (back-compat accessor; on the
        #: dumbbell this is *the* bottleneck).
        self.bottleneck = link_by_name[topo.reference]

        # ---------- senders ---------------------------------------------- #
        reference_capacity = self.bottleneck.capacity_pps
        for i, flow_cfg in enumerate(config.flows):
            cca = create_packet_cca(
                flow_cfg.cca,
                rng=derive_rng(config.seed, f"flow:{i}"),
                initial_rate_pps=reference_capacity / config.num_flows,
            )
            first_hop = link_by_name[topo.paths[i][0]]
            path_delay_s = sum(topo.link(name).delay_s for name in topo.paths[i])
            if schedule_entries is None:
                self.senders[i] = sender_cls(
                    events=self.events,
                    flow_id=i,
                    cca=cca,
                    bottleneck=first_hop,
                    access_delay_s=flow_cfg.access_delay_s,
                    return_delay_s=flow_cfg.access_delay_s + path_delay_s,
                    mss_bytes=units.MSS_BYTES,
                    start_time_s=flow_cfg.start_time_s,
                )
            else:
                # Schedule start times override FlowConfig.start_time_s (the
                # fluid substrate applies the same precedence).
                entry = schedule_entries[i]
                size = entry.size_packets
                self.senders[i] = sender_cls(
                    events=self.events,
                    flow_id=i,
                    cca=cca,
                    bottleneck=first_hop,
                    access_delay_s=flow_cfg.access_delay_s,
                    return_delay_s=flow_cfg.access_delay_s + path_delay_s,
                    mss_bytes=units.MSS_BYTES,
                    start_time_s=entry.start_time_s,
                    size_packets=None if size is None else max(1, math.ceil(size)),
                    stop_time_s=entry.stop_time_s,
                )
                self.senders[i].on_complete = self._on_flow_complete
        #: Shared inter-link forward lines, kept for churn teardown purges.
        self._forward_lines: dict[tuple[str, str], DelayLine] = {}
        if scheduler == "delayline":
            # Fuse every link's propagation leg into its onward routes: an
            # intermediate hop pushes straight onto the forward delay line
            # of the next link, and a flow's last hop pushes onto the
            # flow's return delay line (one event per packet per hop saved;
            # identical arrival/acknowledgement times).
            forward_lines = self._forward_lines
            for name, link in link_by_name.items():
                routes: list[tuple[DelayLine, float] | None] = [None] * config.num_flows
                used = False
                for i, path in enumerate(topo.paths):
                    if name not in path:
                        continue
                    used = True
                    hop = path.index(name)
                    if hop == len(path) - 1:
                        routes[i] = (
                            self.senders[i].return_line,
                            self.senders[i].return_delay_s,
                        )
                    else:
                        next_name = path[hop + 1]
                        line = forward_lines.get((name, next_name))
                        if line is None:
                            line = DelayLine(
                                self.events,
                                link.delay_s,
                                link_by_name[next_name].on_arrival,
                            )
                            forward_lines[(name, next_name)] = line
                        routes[i] = (line, 0.0)
                if used:
                    link.set_routes(routes)

        # Sampling state: preallocated buffers on the absolute time grid
        # (generously sized; _build_trace slices to the fired sample count).
        n_flows = config.num_flows
        n_links = len(self.links)
        capacity = int(config.duration_s / RECORD_INTERVAL_S) + 2
        self._max_samples = capacity
        self._flow_buffers = np.empty((5, n_flows, capacity))
        self._link_buffers = np.empty((4, n_links, capacity))
        self._time_buf = np.empty(capacity)
        self._prev_sent = [0] * n_flows
        self._prev_delivered = [0] * n_flows
        self._prev_enqueued = [0] * n_links
        self._prev_dropped = [0] * n_links
        self._prev_transmitted = [0] * n_links
        self._queue_checkpoints = [(0.0, 0.0)] * n_links
        self._rtt_floor = [config.rtt_s(i) for i in range(n_flows)]
        self._sample_idx = 0
        # Live-heap high-water mark, refreshed on the sampling grid (cheap:
        # one len() per sample, not per event).
        self._heap_peak = 0
        self._sample_timer = (
            Timer(self.events, self._sample) if scheduler == "delayline" else None
        )

    # ------------------------------------------------------------------ #
    # Churn teardown
    # ------------------------------------------------------------------ #

    def _on_flow_complete(self, sender: Sender) -> None:
        """A scheduled flow completed or switched off: purge its stragglers.

        The sender has already cancelled its own timers and drained its
        private access/return lines; what remains are packets of this flow
        travelling *shared* inter-link forward lines (multi-hop topologies).
        Purging them keeps the heap and the deques bounded by the active
        flow population — a departed flow costs zero live events.
        """
        flow_id = sender.flow_id
        for line in self._forward_lines.values():
            line.purge(lambda packet: packet.flow_id == flow_id)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _sample(self) -> None:
        k = self._sample_idx
        if k >= self._max_samples:
            return
        interval = RECORD_INTERVAL_S
        self._record((k + 1) * interval, interval)
        if k + 1 < self._max_samples:
            # Absolute grid: sample k fires at exactly (k + 1) * interval,
            # immune to the drift of relative rescheduling.
            if self._sample_timer is not None:
                self._sample_timer.schedule_at((k + 2) * interval)
            else:
                self.events.schedule_at((k + 2) * interval, self._sample)

    def _record(self, now: float, interval: float) -> None:
        """Record one sample at absolute time ``now`` covering ``interval`` seconds."""
        k = self._sample_idx
        rate_buf, delivery_buf, cwnd_buf, inflight_buf, rtt_buf = self._flow_buffers
        prev_sent = self._prev_sent
        prev_delivered = self._prev_delivered
        rtt_floor = self._rtt_floor
        for i, sender in self.senders.items():
            sent = sender.sent_count
            delivered = sender.delivered_count
            rate_buf[i, k] = (sent - prev_sent[i]) / interval
            delivery_buf[i, k] = (delivered - prev_delivered[i]) / interval
            prev_sent[i] = sent
            prev_delivered[i] = delivered
            cwnd_buf[i, k] = sender.cca.window_limit()
            inflight_buf[i, k] = float(len(sender.inflight))
            rtt_buf[i, k] = (
                sender.last_rtt_s if sender.last_rtt_s > 0 else rtt_floor[i]
            )
        queue_buf, loss_buf, arrival_buf, departure_buf = self._link_buffers
        for j, link in enumerate(self.links):
            queue = link.queue
            arrivals = (queue.enqueued + queue.dropped) - (
                self._prev_enqueued[j] + self._prev_dropped[j]
            )
            drops = queue.dropped - self._prev_dropped[j]
            transmitted = link.transmitted - self._prev_transmitted[j]
            self._prev_enqueued[j] = queue.enqueued
            self._prev_dropped[j] = queue.dropped
            self._prev_transmitted[j] = link.transmitted
            mean_queue = link.mean_queue_since(*self._queue_checkpoints[j])
            self._queue_checkpoints[j] = link.checkpoint()
            queue_buf[j, k] = mean_queue
            loss_buf[j, k] = drops / arrivals if arrivals > 0 else 0.0
            arrival_buf[j, k] = arrivals / interval
            departure_buf[j, k] = transmitted / interval
        self._time_buf[k] = now
        self._sample_idx = k + 1
        live = len(self.events)
        if live > self._heap_peak:
            self._heap_peak = live

    def _flush_tail(self) -> None:
        """Record the final partial interval when ``duration_s`` is not a
        multiple of :data:`RECORD_INTERVAL_S` (rates normalised by its actual
        length), so the trace covers the full run instead of silently
        dropping the tail."""
        duration = self.config.duration_s
        last_t = self._time_buf[self._sample_idx - 1] if self._sample_idx else 0.0
        partial = duration - last_t
        if partial > 1e-6 * RECORD_INTERVAL_S and self._sample_idx < self._max_samples:
            self._record(duration, partial)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> Trace:
        """Run the emulation for the configured duration and return its trace."""
        with TELEMETRY.span(
            "emu.run",
            flows=self.config.num_flows,
            duration_s=self.config.duration_s,
            scheduler=self.scheduler,
        ):
            for sender in self.senders.values():
                sender.start()
            if self._sample_timer is not None:
                self._sample_timer.schedule_at(RECORD_INTERVAL_S)
            else:
                self.events.schedule_at(RECORD_INTERVAL_S, self._sample)
            self.events.run(until=self.config.duration_s)
            self._flush_tail()
            trace = self._build_trace()
        if TELEMETRY.enabled:
            counters = self.runtime_counters()
            TELEMETRY.count("emu.events_popped", counters["events_popped"])
            TELEMETRY.count("emu.pkts_sent", counters["pkts_sent"])
            TELEMETRY.count("emu.pkts_delivered", counters["pkts_delivered"])
            TELEMETRY.gauge_max("emu.heap_peak", counters["heap_peak"])
        return trace

    def runtime_counters(self) -> dict[str, int]:
        """Substrate counters for the stored per-point ``runtime`` block."""
        return {
            "events_popped": int(getattr(self.events, "popped", 0)),
            "heap_peak": int(self._heap_peak),
            "pkts_sent": int(sum(s.sent_count for s in self.senders.values())),
            "pkts_delivered": int(
                sum(s.delivered_count for s in self.senders.values())
            ),
        }

    def _build_trace(self) -> Trace:
        n = self._sample_idx
        time = self._time_buf[:n].copy()
        rate_buf, delivery_buf, cwnd_buf, inflight_buf, rtt_buf = self._flow_buffers
        entries = self._schedule_entries
        flows = []
        for i, flow_cfg in enumerate(self.config.flows):
            sender = self.senders[i]
            start_s = entries[i].start_time_s if entries is not None else flow_cfg.start_time_s
            flows.append(
                FlowTrace(
                    cca=flow_cfg.cca,
                    rate=rate_buf[i, :n].copy(),
                    delivery_rate=delivery_buf[i, :n].copy(),
                    cwnd=cwnd_buf[i, :n].copy(),
                    inflight=inflight_buf[i, :n].copy(),
                    rtt=rtt_buf[i, :n].copy(),
                    start_time_s=start_s,
                    end_time_s=getattr(sender, "completed_time_s", None),
                )
            )
        queue_buf, loss_buf, arrival_buf, departure_buf = self._link_buffers
        links = []
        for j, (link_cfg, link) in enumerate(zip(self.topology.links, self.links, strict=True)):
            links.append(
                LinkTrace(
                    name=link_cfg.name,
                    capacity_pps=link.capacity_pps,
                    buffer_pkts=float(link.queue.capacity_pkts),
                    queue=queue_buf[j, :n].copy(),
                    loss_prob=loss_buf[j, :n].copy(),
                    arrival_rate=arrival_buf[j, :n].copy(),
                    departure_rate=departure_buf[j, :n].copy(),
                )
            )
        return Trace(time=time, flows=flows, links=links, substrate="emulation")


def emulate(config: ScenarioConfig, scheduler: str = SCHEDULER) -> Trace:
    """Convenience wrapper: build an :class:`EmulationRunner` and run it."""
    return EmulationRunner(config, scheduler=scheduler).run()
