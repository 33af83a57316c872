"""Array-native method-of-steps integrator for the network fluid model
(Section 4.1.1).

Every fluid run is a lockstep *batch*: :class:`FluidSimulator` takes a
sequence of independent scenarios that share the integration step, the
duration and the global fluid numerics, and integrates them as one
block-diagonal system whose combined network holds every scenario's links.
:func:`simulate_many` runs such a batch and :func:`simulate` is a batch of
one; a scenario's trace does not depend on the batch it ran in.

The fluid model is a system of delay differential equations: every step the
simulator

1. reads the delayed sending rates of all flows to form per-link arrival
   rates (Eq. 1),
2. evaluates the queue-discipline loss model (Eq. 4 / Eq. 6),
3. computes per-flow path latency (Eq. 3), observed path loss (Eq. 7) and
   delivery rate (Eq. 17) from delayed link state,
4. lets every flow's CCA model advance its own state and sending rate,
5. integrates the link queues (Eq. 2), and
6. pushes the new samples into the delay ring.

Because every delay of a scenario is a *constant*, every table the step
reads is fixed before the first step: the :class:`FluidSimulator`
constructor builds them once, as read-only arrays on the simulator, and
:meth:`FluidSimulator.run` allocates only one run's mutable state (delay
ring, record blocks, CCA batches, queue, rate and scratch arrays), steps,
and builds the traces.  Every delayed signal lives in one
:class:`~repro.core.history.DelayRing` whose row is ``[rates | latency |
arrival | queue | loss]``; every ``(column, delay)`` pair the step reads
becomes one flat offset before the loop, so a step makes one ring read (a
single ``take``) and one row write; the flow→link incidence structure turns
Eq. 1 into one row-wise reduction of that read per distinct segment length (each
link's row sums its users in flow order) and Eq. 3 into one gather-and-add
per hop, and the loss/queue updates (Eq. 4/6, Eq. 2) run as single numpy
expressions over every queued link at once.  Flows advance as
structure-of-arrays groups through their CCA model's batched ``step_all``,
one group per ``batch_key`` (every :class:`~repro.core.flow.FluidCCA`
implements both), so arbitrary heterogeneous mixes step in a handful of
calls.  A group's CCA state is one
``(rows, n)`` block (:class:`~repro.core.flow.FlowStateBatch`), so masking
the flows that have not started or have departed is one ``np.where`` per
group for the block and one for the rate.  Every per-flow array is laid
out in *group-major slots* — each group one contiguous run — so the
per-group reads are views, and a trace record is one write per block
(flows, links, each group's traced rows).  The step therefore makes a
fixed number of Python-level calls whatever the number of flows, links or
lockstep scenarios (``tests/test_fluid_step_calls.py``).

The integrator's numbers are pinned by ``tests/golden/fluid_traces.json``:
per trace a sha256 over every recorded series, compared where the stored
environment matches, and each series' exact sum, compared at rtol 1e-12
anywhere.

The integrator executes arbitrary multi-bottleneck topologies
(:class:`~repro.config.TopologyConfig`; parking lots, multi-dumbbells): all
K queued links integrate their queue/loss state together, per-flow path
latency sums the per-link queueing delays (Eq. 3), and a flow crossing
several queued links observes the composed path loss ``1 - prod(1 - p_l)``
with per-link backward delays (Eq. 7 generalised).

Eq. 1 was derived for a single bottleneck, where a link's arrival rate is
the sum of the flows' delayed *sending* rates.  On a multi-hop path that
overestimates downstream load: traffic reaching link ``l`` has already
been thinned by every upstream drop.  The integrator therefore attenuates
per-link arrivals along the path — the contribution of flow ``i`` to link
``l`` is its delayed sending rate run through ``r <- min(r * (1 - p_m),
C_m)`` for every upstream queued link ``m`` in path order, i.e. multiplied
by the upstream survival product and capped by the smallest upstream
delivered capacity, with each ``p_m`` read at the lag the traffic actually
crossed ``m``.  The delivery rate (Eq. 17) is then taken at the flow's
*effective* bottleneck: the path link with the smallest survival-scaled
capacity ``C_l / prod_upstream(1 - p_m)`` (re-evaluated every step from
the delayed loss state), using the flow's attenuated contribution as the
numerator.  Flows crossing a single queued link take exactly the legacy
single-bottleneck code path, so a one-hop topology is bit-identical with
the dumbbell form, and loss-free multi-hop runs whose rates stay below
every upstream capacity are bit-identical with the unattenuated model
(``tests/test_attenuation.py`` holds that model's traces as frozen data).

The per-flow CCA dynamics live in :mod:`repro.core.reno`, ``cubic``,
``bbr1`` and ``bbr2``; the simulator is agnostic to them and supports
arbitrary mixes of CCAs, which is how the heterogeneous scenarios of the
paper's evaluation (e.g. BBRv1 vs. Reno) are expressed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..config import FlowArrival, ScenarioConfig
from ..metrics.traces import FlowTrace, LinkTrace, Trace
from ..obs import TELEMETRY
from . import queues, smooth
from .flow import TAU_FLOOR_S, FlowInputsBatch, FluidCCA
from .history import DelayRing
from .network import Link, Network, Path
from .registry import create_model
from .smooth import ONE, ZERO

#: Seconds between fluid trace samples.  Every run records on this grid;
#: an integration step ``dt`` must not exceed it.
RECORD_INTERVAL_S = 1e-3

#: The step's per-flow series, in the order of the recorded flow block.
#: ``delivery_rate`` is always recorded, so any selection of them is one
#: contiguous run of the block.
_FLOW_BLOCK = ("rate", "delivery_rate", "rtt")

# The step loop's constant operands, bound once (see ``smooth.constant``).
_TAU_FLOOR = smooth.constant(TAU_FLOOR_S)


class FluidSimulator:
    """Integrates a batch of independent scenarios as one fluid system.

    The scenarios must share ``dt``, ``duration_s`` and the global fluid
    numerics (sigmoid sharpness, drop-tail exponent, ``literal_xmax``);
    per-model parameters may differ freely because model batches group by
    ``batch_key``.  Each scenario's network is built with
    :meth:`Network.from_scenario` and its links are appended to one
    combined network, so the flow→link incidence keeps every scenario on
    its own links.  Each flow's state is built with its scenario-local
    index and flow count (e.g. BBRv1 desynchronises gain cycles by
    ``i % 6`` and BBRv2 spreads its wall-clock period by ``i / N`` *within*
    a scenario), and each scenario's flow schedule is materialised once (a
    static population is plain start-time entries).

    The simulator is its own plan: the constructor also fixes, once, every
    constant table the step reads, as read-only arrays on the simulator —
    the CCA ``groups`` in group-major slot order, the ring read table
    (``read_columns``, ``read_delays`` and the named slices ``read_at``),
    the Eq. 1 blocks, the bottleneck capacities, the attenuation levels
    and multi-hop padded tables, ``latency_const`` and ``hop_cols``, the
    queued-link capacity, buffer and discipline tables, the flow lifetimes
    and the record layout.  :meth:`run` allocates only one run's mutable
    state (the delay ring, the record blocks, the CCA batches with their
    inputs, and the queue, rate and scratch arrays), steps, and builds the
    traces; every run of one simulator returns the same traces.

    ``models`` substitutes a model for a flow, keyed by its index within
    the batch; ``series`` selects the recorded per-flow series (see
    :func:`simulate_many`).  :meth:`run` returns one trace per scenario.
    """

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        *,
        models: dict[int, FluidCCA] | None = None,
        series: Sequence[str] | None = None,
    ) -> None:
        self.configs = tuple(configs)
        if not self.configs:
            raise ValueError("a fluid batch needs at least one scenario")
        first = self.configs[0]
        for cfg in self.configs[1:]:
            if cfg.fluid.dt != first.fluid.dt:
                raise ValueError("batched scenarios must share the integration step")
            if cfg.duration_s != first.duration_s:
                raise ValueError("batched scenarios must share the duration")
            for field_name in ("sigmoid_sharpness", "droptail_exponent", "literal_xmax"):
                if getattr(cfg.fluid, field_name) != getattr(first.fluid, field_name):
                    raise ValueError(
                        f"batched scenarios must share fluid numerics ({field_name})"
                    )
        if RECORD_INTERVAL_S < first.fluid.dt:
            raise ValueError("record interval must be at least one integration step")
        self.dt = dt = first.fluid.dt
        self.duration_s = first.duration_s
        # The per-flow series the trace records (``None``: all of them).
        self.series = selected = (
            None if series is None else frozenset(series) | {"delivery_rate"}
        )

        links: list[Link] = []
        paths: list[Path] = []
        self.models: dict[int, FluidCCA] = {}
        self._states: list = []
        entries: list[FlowArrival] = []
        # Per scenario: its flow count and queued-link count, in batch order.
        self._sizes: list[tuple[int, int]] = []
        for cfg in self.configs:
            net = Network.from_scenario(cfg)
            offset = len(links)
            links.extend(net.links)
            for i, path in enumerate(net.paths):
                flow = len(paths)
                paths.append(
                    Path(
                        link_indices=tuple(offset + idx for idx in path.link_indices),
                        return_delay_s=path.return_delay_s,
                    )
                )
                if models and flow in models:
                    model = models[flow]
                else:
                    model = create_model(cfg.flows[i].cca, cfg.fluid)
                self.models[flow] = model
                self._states.append(model.initial_state(i, net.num_flows, net, cfg.fluid))
            entries.extend(cfg.flow_schedule())
            self._sizes.append((net.num_flows, len(net.queued_link_indices())))
        self.network = net = Network(links, paths)

        if selected is not None:
            known = {"cwnd", "inflight", *_FLOW_BLOCK}
            for model in self.models.values():
                known.update(model.traced)
            unknown = sorted(selected - known)
            if unknown:
                raise ValueError(f"unknown trace series: {', '.join(unknown)}")
        #: Substrate counters of the last completed run (steps, flows,
        #: links) over the whole batch; empty before any run.
        self.runtime: dict[str, int] = {}

        num_flows = net.num_flows
        self.queued_links = queued_links = net.queued_link_indices()
        num_queued = len(queued_links)
        pos_of_link = {idx: pos for pos, idx in enumerate(queued_links)}

        # ---------- group-major flow slots ------------------------------ #
        # Every per-flow array of the step loop is indexed by *slot*: the
        # flows of each ``batch_key`` group occupy one contiguous run of
        # slots (groups in first-appearance order, original flow order
        # within a group), so every per-group read is a view and every
        # per-group write a slice assignment, however the groups interleave
        # across the scenarios of a lockstep batch.  ``order[s]`` is the
        # flow in slot ``s``; ``slot_of`` is its inverse.
        group_indices: dict[object, list[int]] = {}
        for i in range(num_flows):
            group_indices.setdefault(self.models[i].batch_key(), []).append(i)
        order = [i for flow_ids in group_indices.values() for i in flow_ids]
        slot_of = np.empty(num_flows, dtype=np.intp)
        slot_of[order] = np.arange(num_flows)

        # ---------- record layout --------------------------------------- #
        # One row per record and block: the flow block [rate | delivery |
        # rtt] (the selected run of it) and the link block [queue | loss |
        # arrival | departure] by slot/link position, and per group the
        # selected rows of its state block (inflight, then the model's
        # traced fields).
        self.steps = int(round(self.duration_s / dt))
        self.record_every = max(1, int(round(RECORD_INTERVAL_S / dt)))
        self.num_records = self.steps // self.record_every + 1
        self.flow_names = [
            name for name in _FLOW_BLOCK if selected is None or name in selected
        ]
        self.flow_cols = slice(
            _FLOW_BLOCK.index(self.flow_names[0]),
            _FLOW_BLOCK.index(self.flow_names[-1]) + 1,
        )
        # Per CCA group: (model, slot run, its flows, the rows of its state
        # block it records or ``None``, their names).  Leading rows (the
        # full record) are one slice copy.
        self.groups: list[
            tuple[FluidCCA, slice, list[int], slice | np.ndarray | None, list[str]]
        ] = []
        start = 0
        for flow_ids in group_indices.values():
            model = self.models[flow_ids[0]]
            row_names = ("inflight", *model.traced)
            kept = [
                row
                for row, name in enumerate(row_names)
                if selected is None or name in selected
            ]
            rows: slice | np.ndarray | None = None
            if kept:
                rows = (
                    slice(0, len(kept))
                    if kept == list(range(len(kept)))
                    else np.array(kept, dtype=np.intp)
                )
            slots = slice(start, start + len(flow_ids))
            start = slots.stop
            self.groups.append((model, slots, flow_ids, rows, [row_names[row] for row in kept]))

        # ---------- flow lifetimes (slot order) ------------------------- #
        # A flow that has not started, has stopped or has delivered its
        # size is masked out of the CCA updates.  ``churn`` is False when
        # every flow is long-lived (no finite size or stop time), and the
        # step then masks only the flows not started yet.
        arrivals = [entries[i] for i in order]
        self.start_times = np.array([e.start_time_s for e in arrivals], dtype=float)
        self.stop_times = np.array(
            [math.inf if e.stop_time_s is None else e.stop_time_s for e in arrivals],
            dtype=float,
        )
        self.sizes = np.array(
            [math.inf if e.size_packets is None else e.size_packets for e in arrivals],
            dtype=float,
        )
        self.churn = bool(
            np.any(np.isfinite(self.stop_times)) or np.any(np.isfinite(self.sizes))
        )
        self.max_start = float(np.max(self.start_times))

        # ---------- the delay ring's row -------------------------------- #
        # One delay ring holds every delayed signal, one row per step laid
        # out as [rates | latency | arrival | queue | loss] by slot and
        # queued-link position; the latency columns start at the propagation
        # RTT.  Every (column, delay) pair a step reads is fixed below, so a
        # step reads them all with one ``take``.
        propagation_rtt = np.array(
            [net.propagation_rtt(i) for i in order], dtype=float
        )
        link0 = 2 * num_flows
        self.ring_row = np.concatenate(
            (np.zeros(num_flows), propagation_rtt, np.zeros(3 * num_queued))
        )
        self.max_delay = float(np.max(propagation_rtt)) + dt

        # Flow -> link incidence for Eq. 1: the delayed sending rates of all
        # (link, user) pairs are read at once and summed per link.  The
        # pairs follow each link's users in original flow order, so every
        # link sums its scenario's flows in the same order as a run alone.
        # ``att_list`` holds the pairs whose link has queued links upstream
        # on the flow's path: (pair position, flow, link, upstream links).
        user_flows: list[int] = []
        user_delays: list[float] = []
        seg_bounds = [0]
        att_list: list[tuple[int, int, int, list[int]]] = []
        for idx in queued_links:
            for i in net.users(idx):
                ups = net.upstream_queued_links(i, idx)
                if ups:
                    att_list.append((len(user_flows), i, idx, ups))
                user_flows.append(i)
                user_delays.append(net.forward_delay(i, idx))
            seg_bounds.append(len(user_flows))
        # Eq. 1 is one row-wise reduction per distinct segment length: the
        # links with ``length`` users read their pairs as one (links,
        # length) matrix (a single block when all lengths agree, as on the
        # paper grid's ten-flow dumbbells).  Each row reduces exactly like
        # the 1-D sum of its segment (``np.add.reduceat`` would not: it sums
        # in sequence).
        seg_starts = np.array(seg_bounds[:-1], dtype=np.intp)
        seg_lens = np.diff(seg_bounds)
        self.eq1_blocks: list[tuple[np.ndarray, np.ndarray]] = []
        for length in np.unique(seg_lens):
            rows = np.flatnonzero(seg_lens == length)
            self.eq1_blocks.append((rows, seg_starts[rows, None] + np.arange(length)))

        # Per-flow bottleneck bookkeeping for Eqs. 7 and 17.
        bottleneck_of = [net.bottleneck_of(i) for i in order]
        backward_delay = np.array(
            [net.backward_delay(i, b) for i, b in zip(order, bottleneck_of, strict=True)]
        )
        btl_pos = np.array([pos_of_link[b] for b in bottleneck_of], dtype=np.intp)
        self.btl_capacity = np.array(
            [net.links[b].capacity_pps for b in bottleneck_of], dtype=float
        )

        # Multi-bottleneck paths: a flow crossing several queued links
        # observes the *composed* path loss 1 - prod_l (1 - p_l), each link's
        # loss delayed by its own backward delay (Eq. 7 generalised to K
        # links).  Flows with a single queued link keep the direct bottleneck
        # read — bit-identical with the legacy dumbbell pipeline.
        multi_slots: list[int] = []
        multi_cols: list[int] = []
        multi_delays: list[float] = []
        multi_caps: list[float] = []
        multi_bounds = [0]
        for slot, i in enumerate(order):
            queued_on_path = [
                idx for idx in net.paths[i].link_indices if idx in pos_of_link
            ]
            if len(queued_on_path) < 2:
                continue
            multi_slots.append(slot)
            for idx in queued_on_path:
                multi_cols.append(link0 + pos_of_link[idx])
                multi_delays.append(net.backward_delay(i, idx))
                multi_caps.append(net.links[idx].capacity_pps)
            multi_bounds.append(len(multi_cols))
        self.multi_slots = np.array(multi_slots, dtype=np.intp)
        self.multi_starts = np.array(multi_bounds[:-1], dtype=np.intp)
        self.multi_caps = np.array(multi_caps, dtype=float)
        self.multi_rows = np.arange(len(multi_slots))
        # Dynamic effective bottleneck (Eq. 17 under attenuation): per step,
        # each multi-hop flow's reference link is the path link with the
        # smallest survival-scaled capacity C_l / S_l, where S_l is the
        # flow's survival product over links upstream of l (ties pick the
        # most upstream link).  The per-pair survive factors are the same
        # backward-delayed reads the composed path loss already uses;
        # arrival/queue of the chosen link are read at its own backward
        # delay.  The per-pair arrays are processed as a rectangular
        # (multi-hop flows, longest path) matrix: ``pad_idx`` holds each
        # row's pair positions, and the padding past a shorter segment
        # (``~pad_valid``) has survive = 1 / capacity = inf so it never
        # wins the argmin.
        multi_lens = np.diff(multi_bounds)
        self.pad_valid = np.arange(multi_lens.max(initial=0)) < multi_lens[:, None]
        self.pad_idx = np.where(
            self.pad_valid,
            self.multi_starts[:, None] + np.arange(self.pad_valid.shape[1]),
            0,
        )
        self.caps_pad = self.multi_caps[self.pad_idx]
        self.caps_pad[~self.pad_valid] = np.inf

        # Upstream attenuation tables for Eq. 1: the contribution of flow i
        # to link l is its delayed sending rate run through
        # ``r <- min(r * (1 - p_m), C_m)`` over the queued links m upstream
        # of l in path order — the survival product capped by the smallest
        # upstream delivered capacity.  Each p_m is read at the lag the
        # traffic actually crossed m, ``d^f_{i,l} - d^f_{i,m}``.  Pairs
        # whose link is the flow's first queued link have no upstream terms
        # and keep the exact legacy arithmetic (one-hop scenarios stay
        # bit-identical).  Pairs are sorted by upstream depth (deepest
        # first) so each depth level is a leading slice of one ring read.
        att_list.sort(key=lambda entry: -len(entry[3]))
        self.att_positions = np.array([p for p, _, _, _ in att_list], dtype=np.intp)
        # Per upstream depth: (its pairs, their survivals in the read, caps).
        self.att_levels: list[tuple[slice, slice, np.ndarray]] = []
        att_cols: list[int] = []
        att_delays: list[float] = []
        for d in range(len(att_list[0][3]) if att_list else 0):
            level = [entry for entry in att_list if len(entry[3]) > d]
            for _, i, idx, ups in level:
                att_cols.append(link0 + 2 * num_queued + pos_of_link[ups[d]])
                att_delays.append(net.forward_delay(i, idx) - net.forward_delay(i, ups[d]))
            caps = [net.links[ups[d]].capacity_pps for _, _, _, ups in level]
            self.att_levels.append(
                (
                    slice(0, len(level)),
                    slice(len(att_cols) - len(level), len(att_cols)),
                    np.array(caps, dtype=float),
                )
            )

        # The ring reads of a step, in read order: (name, columns, delays).
        # The Eq. 1 pairs lead, so their pair positions index the read
        # directly.
        flow_index = np.arange(num_flows, dtype=np.intp)
        multi_cols_arr = np.array(multi_cols, dtype=np.intp)
        multi_delays_arr = np.array(multi_delays, dtype=float)
        reads = [
            ("eq1", slot_of[np.array(user_flows, dtype=np.intp)], np.array(user_delays, dtype=float)),
            ("own", flow_index, propagation_rtt + dt),
            ("rtt", num_flows + flow_index, propagation_rtt),
            ("arrival", link0 + btl_pos, backward_delay),
            ("queue", link0 + num_queued + btl_pos, backward_delay),
            ("loss", link0 + 2 * num_queued + btl_pos, backward_delay),
            ("multi_loss", multi_cols_arr + 2 * num_queued, multi_delays_arr),
            ("att", np.array(att_cols, dtype=np.intp), np.array(att_delays, dtype=float)),
            ("multi_arrival", multi_cols_arr, multi_delays_arr),
            ("multi_queue", multi_cols_arr + num_queued, multi_delays_arr),
        ]
        self.read_columns = np.concatenate([cols for _, cols, _ in reads])
        self.read_delays = np.concatenate([delays for _, _, delays in reads])
        # Where each read lands in the step's read.
        bounds = np.cumsum([0] + [len(cols) for _, cols, _ in reads]).tolist()
        self.read_at = {
            name: slice(bounds[k], bounds[k + 1]) for k, (name, _, _) in enumerate(reads)
        }

        # Path latency (Eq. 3) = constant propagation part + the queueing
        # delays of the flow's queued links, added one hop at a time in path
        # order, so a flow's sum does not depend on the other scenarios of a
        # batch.  ``hop_cols[h]`` holds every flow's h-th queued link; flows
        # with fewer hops point at the zero entry past the links.
        self.latency_const = np.empty(num_flows)
        flow_queued: list[list[int]] = []
        for slot, i in enumerate(order):
            path = net.paths[i]
            acc = path.return_delay_s
            for idx in path.link_indices:
                acc += net.links[idx].delay_s
            self.latency_const[slot] = acc
            flow_queued.append(
                [pos_of_link[idx] for idx in path.link_indices if idx in pos_of_link]
            )
        self.hop_cols = [
            np.array(
                [cols[h] if h < len(cols) else num_queued for cols in flow_queued],
                dtype=np.intp,
            )
            for h in range(max(len(cols) for cols in flow_queued))
        ]

        # Queued-link parameter tables for Eq. 2 and Eq. 4/6.
        self.link_capacity = np.array(
            [net.links[idx].capacity_pps for idx in queued_links], dtype=float
        )
        self.link_buffer = np.array(
            [net.links[idx].buffer_pkts for idx in queued_links], dtype=float
        )
        disciplines = [net.links[idx].discipline for idx in queued_links]
        self.droptail_mask = np.array([d == "droptail" for d in disciplines])
        self.all_droptail = all(d == "droptail" for d in disciplines)
        self.all_red = all(d == "red" for d in disciplines)
        self.sharpness = smooth.constant(first.fluid.sigmoid_sharpness)
        self.exponent = smooth.constant(first.fluid.droptail_exponent)
        self.dt_bound = smooth.constant(dt)

        # Every table above is shared by every run: none may be written.
        for value in vars(self).values():
            _freeze(value)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> list[Trace]:
        """Integrate the batch and return one recorded trace per scenario."""
        with TELEMETRY.span(
            "fluid.integrate",
            flows=self.network.num_flows,
            duration_s=self.duration_s,
        ):
            traces = self._run()
        if TELEMETRY.enabled:
            TELEMETRY.count("fluid.steps", self.runtime["steps"])
            TELEMETRY.count("fluid.lockstep_batches")
            TELEMETRY.count("fluid.lockstep_scenarios", len(self.configs))
        return traces

    def _run(self) -> list[Trace]:
        dt = self.dt
        num_flows = self.network.num_flows
        num_queued = len(self.queued_links)
        read_at = self.read_at

        # ---------- the run's mutable state ----------------------------- #
        ring = DelayRing(self.ring_row.size, dt, self.max_delay, initial=self.ring_row)
        read_offsets = ring.offsets(self.read_columns, self.read_delays)
        rec_flow = np.zeros((self.num_records, len(self.flow_names) * num_flows))
        rec_link = np.zeros((self.num_records, 4 * num_queued))
        record_index = 0
        # Per group (model, slots, batch, reusable FlowInputsBatch, record
        # or ``None``) and, for the groups that record a row, (batch, rows,
        # record).
        batch_groups = []
        record_groups = []
        for model, slots, flow_ids, rows, names in self.groups:
            batch = model.make_batch([self._states[i] for i in flow_ids])
            inputs = FlowInputsBatch(
                dt=self.dt_bound,
                tau=self.latency_const,
                tau_delayed=self.latency_const,
                path_loss=self.latency_const,
                delivery_rate=self.latency_const,
                rate_delayed=self.latency_const,
                literal_xmax=self.configs[0].fluid.literal_xmax,
            )
            record = None
            if rows is not None:
                record = np.zeros((self.num_records, len(names), batch.size))
                record_groups.append((batch, rows, record))
            batch_groups.append((model, slots, batch, inputs, record))
        arrival = np.zeros(num_queued)
        queue_arr = np.zeros(num_queued)
        queueing_delay = np.zeros(num_queued + 1)
        queueing_delay_links = queueing_delay[:num_queued]
        rates_all = np.zeros(num_flows)
        # Multi-hop scratch: survive matrix (padding stays 1), exclusive
        # prefix survival (column 0 stays 1), attenuated contribution and
        # effective capacity.
        surv_pad = np.ones(self.pad_idx.shape)
        surv_prefix = np.ones(self.pad_idx.shape)
        own_contrib = np.empty(self.pad_idx.shape)
        eff_capacity = np.empty(self.pad_idx.shape)
        # Churn state: cumulative delivered volume drives finite-size
        # completion; completed (or stopped) flows are masked out of the
        # CCA updates from the *next* step on, so their rate pins to zero
        # and they contribute no arrivals.
        delivered_vol = np.zeros(num_flows)
        completed = np.zeros(num_flows, dtype=bool)
        end_times = np.full(num_flows, math.nan)

        for step in range(self.steps + 1):
            t = step * dt
            delayed = ring.read(read_offsets)

            # 1. Link arrival rates from delayed sending rates (Eq. 1),
            # attenuated by upstream loss and capacity along each path.
            if self.att_positions.size:
                att_surv = ONE - delayed[read_at["att"]]
                contrib = delayed[self.att_positions]
                for rows, seg, caps in self.att_levels:
                    np.minimum(contrib[rows] * att_surv[seg], caps, out=contrib[rows])
                delayed[self.att_positions] = contrib
            for rows, pairs in self.eq1_blocks:
                arrival[rows] = np.add.reduce(delayed[pairs], axis=1)
            if self.all_droptail:
                loss = queues.droptail_loss_vec(
                    arrival, self.link_capacity, queue_arr, self.link_buffer, self.sharpness, self.exponent
                )
            elif self.all_red:
                loss = queues.red_loss_vec(queue_arr, self.link_buffer)
            else:
                loss = np.where(
                    self.droptail_mask,
                    queues.droptail_loss_vec(
                        arrival, self.link_capacity, queue_arr, self.link_buffer, self.sharpness, self.exponent
                    ),
                    queues.red_loss_vec(queue_arr, self.link_buffer),
                )
            departure = np.where(
                queue_arr > ZERO,
                self.link_capacity,
                np.minimum((ONE - loss) * arrival, self.link_capacity),
            )

            # 2. Per-flow observations: path latency (Eq. 3), observed loss
            # (Eq. 7) and delivery rate (Eq. 17), all flows at once.
            np.divide(queue_arr, self.link_capacity, out=queueing_delay_links)
            path_queueing = queueing_delay[self.hop_cols[0]]
            for cols in self.hop_cols[1:]:
                path_queueing += queueing_delay[cols]
            latency = self.latency_const + path_queueing
            own_delayed = delayed[read_at["own"]]
            tau_delayed = delayed[read_at["rtt"]]
            y_delayed = delayed[read_at["arrival"]]
            q_delayed = delayed[read_at["queue"]]
            p_delayed = delayed[read_at["loss"]]
            if self.multi_slots.size:
                survive = ONE - delayed[read_at["multi_loss"]]
                p_delayed[self.multi_slots] = ONE - np.multiply.reduceat(
                    survive, self.multi_starts
                )
            has_arrival = y_delayed > ZERO
            saturated = (q_delayed > ZERO) | (y_delayed > self.btl_capacity)
            y_safe = np.where(has_arrival, y_delayed, ONE)
            delivery_rates = np.where(
                saturated & has_arrival,
                np.minimum(own_delayed / y_safe * self.btl_capacity, self.btl_capacity),
                np.minimum(own_delayed, self.btl_capacity),
            )
            if self.multi_slots.size:
                # Effective bottleneck for multi-hop flows: exclusive prefix
                # survival S_l and the flow's attenuated contribution R_l
                # (min(r * s, C) recursion) along each segment, then the
                # argmin of C_l / S_l picks the reference link (first on
                # ties = most upstream), over the padded matrix.
                np.place(surv_pad, self.pad_valid, survive)
                np.cumprod(surv_pad[:, :-1], axis=1, out=surv_prefix[:, 1:])
                own_contrib[:, 0] = own_delayed[self.multi_slots]
                for d in range(1, own_contrib.shape[1]):
                    np.minimum(
                        own_contrib[:, d - 1] * surv_pad[:, d - 1],
                        self.caps_pad[:, d - 1],
                        out=own_contrib[:, d],
                    )
                # An upstream link dropping everything (RED at a full
                # buffer) zeroes the survival prefix: no traffic reaches
                # the links behind it, so their effective capacity is
                # infinite rather than a division by zero.
                unreachable = surv_prefix == ZERO
                np.divide(
                    self.caps_pad,
                    np.where(unreachable, ONE, surv_prefix),
                    out=eff_capacity,
                )
                eff_capacity[unreachable] = np.inf
                choice = np.argmin(eff_capacity, axis=1)
                chosen = self.pad_idx[self.multi_rows, choice]
                cap_dyn = self.multi_caps[chosen]
                y_dyn = delayed[read_at["multi_arrival"]][chosen]
                q_dyn = delayed[read_at["multi_queue"]][chosen]
                own_dyn = own_contrib[self.multi_rows, choice]
                has_dyn = y_dyn > ZERO
                sat_dyn = (q_dyn > ZERO) | (y_dyn > cap_dyn)
                y_safe_dyn = np.where(has_dyn, y_dyn, ONE)
                delivery_rates[self.multi_slots] = np.where(
                    sat_dyn & has_dyn,
                    np.minimum(own_dyn / y_safe_dyn * cap_dyn, cap_dyn),
                    np.minimum(own_dyn, cap_dyn),
                )

            # 3. CCA updates, one batched call per group on its slot run.
            # The inputs every model floors or clips are prepared once for
            # all flows (the ``FlowInputsBatch`` contract).
            tau_floored = np.maximum(latency, _TAU_FLOOR)
            path_loss = np.minimum(ONE, np.maximum(ZERO, p_delayed))
            # A flow that has not started or has departed keeps its state
            # and sends nothing: one mask over the group's block and one
            # over its rate (none once every flow of a static population
            # has started).
            if self.churn:
                active_all = (
                    (self.start_times <= t) & (t < self.stop_times) & ~completed
                )
            else:
                active_all = None if t >= self.max_start else self.start_times <= t
            for model, slots, batch, inputs, _ in batch_groups:
                inputs.tau = tau_floored[slots]
                inputs.tau_delayed = tau_delayed[slots]
                inputs.path_loss = path_loss[slots]
                inputs.delivery_rate = delivery_rates[slots]
                inputs.rate_delayed = own_delayed[slots]
                rate, block = model.step_all(batch, inputs)
                if active_all is None:
                    batch.rate = rate
                    batch.block = block
                else:
                    active = active_all[slots]
                    batch.rate = np.where(active, rate, ZERO)
                    batch.block = np.where(active, block, batch.block)
                rates_all[slots] = batch.rate

            if self.churn:
                # Finite-size completion: only active flows accumulate
                # delivered volume, and a crossing takes effect (flow
                # masked inactive) from the next step.
                np.add(
                    delivered_vol,
                    delivery_rates * self.dt_bound,
                    out=delivered_vol,
                    where=active_all,
                )
                newly_done = (delivered_vol >= self.sizes) & ~completed
                completed |= newly_done
                end_times[newly_done] = t

            # 4. Record (before integrating queues so t=0 is captured).
            if step % self.record_every == 0 and record_index < self.num_records:
                np.concatenate(
                    (rates_all, delivery_rates, latency)[self.flow_cols],
                    out=rec_flow[record_index],
                )
                np.concatenate(
                    (queue_arr, loss, arrival, departure), out=rec_link[record_index]
                )
                for batch, rows, record in record_groups:
                    record[record_index] = batch.block[rows]
                record_index += 1

            # 5. Integrate the link queues (Eq. 2).
            queue_arr = queues.step_queue_vec(
                queue_arr, arrival, self.link_capacity, loss, self.link_buffer, self.dt_bound
            )

            # 6. Push the step's row (the queue after its Eq. 2 step).
            ring.push((rates_all, latency, arrival, queue_arr, loss))

        self.runtime = {
            "steps": self.steps + 1,
            "flows": num_flows,
            "links": num_queued,
        }

        # ---------- traces: views of the record blocks ------------------ #
        # A flow's series are its slot column of the flow block and of its
        # group's record; each scenario's flows and queued links are one
        # contiguous run of the batch's.
        records = slice(0, record_index)

        def flow_series(name: str, slot: int) -> np.ndarray | None:
            if name not in self.flow_names:
                return None
            return rec_flow[records, self.flow_names.index(name) * num_flows + slot]

        ccas = [flow.cca for cfg in self.configs for flow in cfg.flows]
        flows: dict[int, FlowTrace] = {}
        for (_, slots, flow_ids, _, names), (*_, record) in zip(
            self.groups, batch_groups, strict=True
        ):
            for col, i in enumerate(flow_ids):
                slot = slots.start + col
                rows = {
                    name: record[records, row, col] for row, name in enumerate(names)
                }
                inflight = rows.pop("inflight", None)
                # Departure time (``None``: never departed).
                end_time: float | None = None
                if completed[slot]:
                    end_time = float(end_times[slot])
                elif self.stop_times[slot] <= self.duration_s:
                    end_time = float(self.stop_times[slot])
                flows[i] = FlowTrace(
                    cca=ccas[i],
                    rate=flow_series("rate", slot),
                    delivery_rate=flow_series("delivery_rate", slot),
                    cwnd=rows.get("cwnd"),
                    inflight=inflight,
                    rtt=flow_series("rtt", slot),
                    extras=rows,
                    start_time_s=float(self.start_times[slot]),
                    end_time_s=end_time,
                )
        net = self.network
        links = [
            LinkTrace(
                name=net.links[idx].name,
                capacity_pps=net.links[idx].capacity_pps,
                buffer_pkts=net.links[idx].buffer_pkts,
                queue=rec_link[records, pos],
                loss_prob=rec_link[records, num_queued + pos],
                arrival_rate=rec_link[records, 2 * num_queued + pos],
                departure_rate=rec_link[records, 3 * num_queued + pos],
            )
            for pos, idx in enumerate(self.queued_links)
        ]
        time = (np.arange(record_index) * self.record_every) * dt
        traces: list[Trace] = []
        flow_at = link_at = 0
        for scenario_flows, scenario_links in self._sizes:
            traces.append(
                Trace(
                    time=time,
                    flows=[flows[i] for i in range(flow_at, flow_at + scenario_flows)],
                    links=links[link_at : link_at + scenario_links],
                    substrate="fluid",
                )
            )
            flow_at += scenario_flows
            link_at += scenario_links
        return traces


def _freeze(value: object) -> None:
    """Mark every array in ``value`` (lists, tuples and dicts too) read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (list, tuple)):
        for item in value:
            _freeze(item)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)


def simulate(config: ScenarioConfig, *, series: Sequence[str] | None = None) -> Trace:
    """Integrate one scenario: a lockstep batch of one (:func:`simulate_many`)."""
    return simulate_many([config], series=series)[0]


def simulate_many(
    configs: Sequence[ScenarioConfig], *, series: Sequence[str] | None = None
) -> list[Trace]:
    """Integrate many *independent* scenarios in lockstep as one batched system.

    The aggregate-validation figures (Figs. 6-10, 13-17) integrate dozens of
    scenarios that share the integration step and duration but differ in CCA
    mix, buffer size and queue discipline.  The scenarios never interact, so
    :class:`FluidSimulator` stacks their fluid models into a single
    block-diagonal system: one wide flow population, one link set containing
    every scenario's links, and a flow→link incidence that keeps each
    scenario on its own links.  Every numpy expression of the integrator
    then amortises its per-operation overhead over the whole batch, which
    is where the bulk of the sweep speedup comes from on a single core.

    Each returned trace is bit-identical to running its scenario alone
    (a batch of one, :func:`simulate`): the per-flow arithmetic is
    element-wise, each flow's slot in the group-major layout (every CCA
    group one contiguous run, however the groups interleave across
    scenarios) changes where it is stored but not what is computed, the
    single Eq. 1 reduction sums each link's users in the scenario's own
    flow order, Eq. 3 adds a flow's queueing delays hop by hop, and zero
    padding is exact (``tests/golden/fluid_traces.json`` pins both forms).

    All scenarios must share ``dt``, ``duration_s`` and the global fluid
    numerics (sigmoid sharpness, drop-tail exponent, ``literal_xmax``);
    per-model parameters may differ freely because model batches group by
    ``batch_key``.

    ``series`` names the per-flow series the traces record: any of
    ``rate``, ``delivery_rate``, ``cwnd``, ``inflight``, ``rtt`` and the
    models' traced fields (an unknown name is a ``ValueError``).  The
    default ``None`` records every one of them.  ``delivery_rate``, the
    link series and the flow start/end times are always recorded; a series
    left out is ``None`` on each :class:`~repro.metrics.traces.FlowTrace`
    (a traced field left out is absent from its ``extras``), and what is
    recorded is bit-identical to the full record.  Campaigns pass
    :data:`~repro.metrics.METRIC_SERIES`, what the aggregate metrics read.
    """
    configs = list(configs)
    if not configs:
        return []
    return FluidSimulator(configs, series=series).run()
