"""Array-native method-of-steps integrator for the network fluid model
(Section 4.1.1).

The fluid model is a system of delay differential equations: every step the
simulator

1. reads the delayed sending rates of all flows to form per-link arrival
   rates (Eq. 1),
2. evaluates the queue-discipline loss model (Eq. 4 / Eq. 6),
3. computes per-flow path latency (Eq. 3), observed path loss (Eq. 7) and
   delivery rate (Eq. 17) from delayed link state,
4. lets every flow's CCA model advance its own state and sending rate,
5. integrates the link queues (Eq. 2), and
6. pushes the new samples into the ring-buffer histories.

Because every delay of a scenario is a *constant*, the integrator hoists
all delay arithmetic out of the loop: delays become integer lag tables
computed once, per-component ring-buffer reads become one batched
:meth:`~repro.core.history.VectorHistory.gather` per signal per step, the
flow→link incidence structure turns Eq. 1 into a gather plus one row-wise
reduction per distinct segment length (each link's row sums its users in
flow order) and Eq. 3 into one gather-and-add per hop, and the loss/queue
updates (Eq. 4/6, Eq. 2) run as single numpy expressions over every queued
link at once.  Flows advance as structure-of-arrays groups through their
CCA model's batched ``step_all``, one group per ``batch_key`` (every
:class:`~repro.core.flow.FluidCCA` implements both), so arbitrary
heterogeneous mixes step in a handful of calls.  A group's CCA state is one
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
numerator.  ``attenuate_arrivals=False`` restores the unattenuated Eq.-1
arrivals (the pre-attenuation pipeline, kept for regression and
benchmarking).  Flows crossing a single queued link take exactly the
legacy single-bottleneck code path, so a one-hop topology is bit-identical
with the dumbbell form, and loss-free multi-hop runs whose rates stay
below every upstream capacity are bit-identical with the unattenuated
model.

The per-flow CCA dynamics live in :mod:`repro.core.reno`, ``cubic``,
``bbr1`` and ``bbr2``; the simulator is agnostic to them and supports
arbitrary mixes of CCAs, which is how the heterogeneous scenarios of the
paper's evaluation (e.g. BBRv1 vs. Reno) are expressed.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from ..config import FlowArrival, ScenarioConfig
from ..metrics.traces import FlowTrace, LinkTrace, Trace
from ..obs import TELEMETRY
from . import queues, smooth
from .flow import TAU_FLOOR_S, FlowInputsBatch, FluidCCA
from .history import VectorHistory
from .network import Network, Path
from .registry import create_model
from .smooth import ONE, ZERO

#: Seconds between fluid trace samples.  Every run records on this grid;
#: an integration step ``dt`` must not exceed it.
RECORD_INTERVAL_S = 1e-3

# The step loop's constant operands, bound once (see ``smooth.constant``).
_TAU_FLOOR = smooth.constant(TAU_FLOOR_S)


class FluidSimulator:
    """Simulates a :class:`~repro.config.ScenarioConfig` with the fluid model."""

    def __init__(
        self,
        config: ScenarioConfig,
        models: dict[int, FluidCCA] | None = None,
        *,
        network: Network | None = None,
        initial_states: list | None = None,
        attenuate_arrivals: bool = True,
        schedule_entries: Sequence[FlowArrival] | None = None,
    ) -> None:
        if RECORD_INTERVAL_S < config.fluid.dt:
            raise ValueError("record interval must be at least one integration step")
        self.config = config
        # ``schedule_entries`` lets :func:`simulate_many` hand over the
        # concatenated per-scenario schedules of a merged batch; a plain run
        # materialises its own config's schedule (or ``None`` for the
        # legacy static population).
        if schedule_entries is not None:
            self._schedule_entries: tuple[FlowArrival, ...] | None = tuple(
                schedule_entries
            )
        else:
            self._schedule_entries = config.flow_schedule()
        if (
            self._schedule_entries is not None
            and len(self._schedule_entries) != len(config.flows)
        ):
            raise ValueError("schedule entries must match the flow count")
        self.network = network if network is not None else Network.from_scenario(config)
        self.dt = config.fluid.dt
        # Upstream loss/capacity attenuation of per-link arrivals (and the
        # matching effective-bottleneck Eq. 17).  Only multi-hop paths are
        # affected; ``False`` restores the unattenuated Eq.-1 arrivals of
        # the original pipeline (kept for regression and benchmarking).
        self.attenuate_arrivals = attenuate_arrivals
        # ``initial_states`` lets :func:`simulate_many` hand over states that
        # were built with each scenario's own flow indexing (e.g. the BBR
        # gain-cycle phase is ``flow_index % 6`` *within* its scenario).
        self._initial_states = initial_states
        self.models: dict[int, FluidCCA] = {}
        for i, flow_cfg in enumerate(config.flows):
            if models and i in models:
                self.models[i] = models[i]
            else:
                self.models[i] = create_model(flow_cfg.cca, config.fluid)
        #: Substrate counters of the last completed run (steps, flows,
        #: links, gathers) — the fluid half of the stored ``runtime``
        #: block; empty before any run.
        self.runtime: dict[str, int] = {}

    def _flow_lifetimes(self):
        """Per-flow start/stop/size arrays and whether any flow can depart.

        Returns ``(start_times, stop_times, flow_sizes, churn)``.  Without a
        schedule — or with a schedule of long-lived flows only — ``churn``
        is False and the integrator keeps the legacy start-only masking
        (bit-identical with the pre-schedule integrator).
        """
        entries = self._schedule_entries
        if entries is None:
            start_times = np.array(
                [f.start_time_s for f in self.config.flows], dtype=float
            )
            return start_times, None, None, False
        start_times = np.array([e.start_time_s for e in entries], dtype=float)
        stop_times = np.array(
            [math.inf if e.stop_time_s is None else e.stop_time_s for e in entries],
            dtype=float,
        )
        flow_sizes = np.array(
            [math.inf if e.size_packets is None else e.size_packets for e in entries],
            dtype=float,
        )
        churn = bool(np.any(np.isfinite(stop_times)) or np.any(np.isfinite(flow_sizes)))
        return start_times, stop_times, flow_sizes, churn

    @staticmethod
    def _flow_end_list(
        churn: bool,
        num_flows: int,
        duration_s: float,
        completed,
        end_times,
        stop_times,
    ) -> list[float | None]:
        """Per-flow departure times for the trace (``None`` = never departed)."""
        if not churn:
            return [None] * num_flows
        ends: list[float | None] = []
        for i in range(num_flows):
            if completed[i]:
                ends.append(float(end_times[i]))
            elif stop_times[i] <= duration_s:
                ends.append(float(stop_times[i]))
            else:
                ends.append(None)
        return ends

    def _make_states(self) -> list:
        if self._initial_states is not None:
            return list(self._initial_states)
        net = self.network
        cfg = self.config
        return [
            self.models[i].initial_state(i, net.num_flows, net, cfg.fluid)
            for i in range(net.num_flows)
        ]

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> Trace:
        """Integrate the scenario and return the recorded trace."""
        with TELEMETRY.span(
            "fluid.integrate",
            flows=self.network.num_flows,
            duration_s=self.config.duration_s,
        ):
            trace = self._run()
        if TELEMETRY.enabled and self.runtime:
            TELEMETRY.count("fluid.steps", self.runtime["steps"])
            TELEMETRY.count("fluid.gathers", self.runtime.get("gathers", 0))
        return trace

    def _run(self) -> Trace:
        net = self.network
        cfg = self.config
        dt = self.dt
        num_flows = net.num_flows
        queued_links = net.queued_link_indices()
        num_queued = len(queued_links)

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

        # ---------- constant per-flow / per-link tables (slot order) ---- #
        propagation_rtt = np.array(
            [net.propagation_rtt(i) for i in order], dtype=float
        )
        bottleneck_of = [net.bottleneck_of(i) for i in order]
        backward_delay = np.array(
            [net.backward_delay(i, b) for i, b in zip(order, bottleneck_of, strict=True)]
        )
        flow_starts, flow_stops, flow_sizes, churn = self._flow_lifetimes()
        start_times = flow_starts[order]
        max_start = float(np.max(start_times))
        if churn:
            # Active-flow masking state: cumulative delivered volume drives
            # finite-size completion; completed (or stopped) flows are
            # masked out of the CCA updates from the *next* step on, so
            # their rate pins to zero and they contribute no arrivals —
            # without ever re-allocating the incidence pipeline.
            stop_times = flow_stops[order]
            sizes = flow_sizes[order]
            delivered_vol = np.zeros(num_flows)
            completed = np.zeros(num_flows, dtype=bool)
            end_times = np.full(num_flows, math.nan)

        max_delay = float(np.max(propagation_rtt)) + dt
        rate_history = VectorHistory(num_flows, dt, max_delay)
        latency_history = VectorHistory(num_flows, dt, max_delay, initial=propagation_rtt)
        # One merged history for the queued-link state, laid out as
        # [arrival | queue | loss] so the per-flow observation block needs a
        # single gather per step.
        link_history = VectorHistory(max(3 * num_queued, 1), dt, max_delay)

        # Flow -> link incidence for Eq. 1: the delayed sending rates of all
        # (link, user) pairs are gathered at once and summed per link.  The
        # pairs follow each link's users in original flow order, so every
        # link sums its scenario's flows in the same order as a run alone.
        user_flows: list[int] = []
        user_delays: list[float] = []
        seg_bounds = [0]
        for idx in queued_links:
            for i in net.users(idx):
                user_flows.append(i)
                user_delays.append(net.forward_delay(i, idx))
            seg_bounds.append(len(user_flows))
        user_flows_arr = slot_of[np.array(user_flows, dtype=np.intp)]
        user_lags = rate_history.lag_steps(np.array(user_delays, dtype=float))
        # Eq. 1 is one row-wise reduction per distinct segment length: the
        # links with ``length`` users gather their pairs as one (links,
        # length) matrix (a single block when all lengths agree, as on the
        # paper grid's ten-flow dumbbells).  Each row reduces exactly like
        # the 1-D sum of its segment (``np.add.reduceat`` would not: it sums
        # in sequence).
        seg_starts = np.array(seg_bounds[:-1], dtype=np.intp)
        seg_lens = np.diff(seg_bounds)
        eq1_blocks: list[tuple[np.ndarray, np.ndarray]] = []
        for length in np.unique(seg_lens):
            rows = np.flatnonzero(seg_lens == length)
            eq1_blocks.append((rows, seg_starts[rows, None] + np.arange(length)))
        arrival = np.zeros(num_queued)

        # Per-flow bottleneck bookkeeping for Eqs. 7 and 17.
        pos_of_link = {idx: pos for pos, idx in enumerate(queued_links)}
        btl_pos = np.array([pos_of_link[b] for b in bottleneck_of], dtype=np.intp)
        btl_capacity = np.array(
            [net.links[b].capacity_pps for b in bottleneck_of], dtype=float
        )
        flow_index = np.arange(num_flows, dtype=np.intp)
        own_lags = rate_history.lag_steps(propagation_rtt + dt)
        rtt_lags = latency_history.lag_steps(propagation_rtt)
        back_lags = link_history.lag_steps(backward_delay)
        obs_cols = np.concatenate(
            [btl_pos, num_queued + btl_pos, 2 * num_queued + btl_pos]
        )
        obs_lags = np.concatenate([back_lags, back_lags, back_lags])

        # Multi-bottleneck paths: a flow crossing several queued links
        # observes the *composed* path loss 1 - prod_l (1 - p_l), each link's
        # loss delayed by its own backward delay (Eq. 7 generalised to K
        # links).  Flows with a single queued link keep the direct bottleneck
        # gather above — bit-identical with the legacy dumbbell pipeline.
        multi_flows: list[int] = []
        multi_ids: list[int] = []
        multi_cols: list[int] = []
        multi_delays: list[float] = []
        multi_bounds = [0]
        for slot, i in enumerate(order):
            queued_on_path = [
                idx for idx in net.paths[i].link_indices if idx in pos_of_link
            ]
            if len(queued_on_path) < 2:
                continue
            multi_flows.append(slot)
            multi_ids.append(i)
            for idx in queued_on_path:
                multi_cols.append(2 * num_queued + pos_of_link[idx])
                multi_delays.append(net.backward_delay(i, idx))
            multi_bounds.append(len(multi_cols))
        attenuating = self.attenuate_arrivals
        if multi_flows:
            multi_flows_arr = np.array(multi_flows, dtype=np.intp)
            multi_cols_arr = np.array(multi_cols, dtype=np.intp)
            multi_lags = link_history.lag_steps(np.array(multi_delays, dtype=float))
            multi_starts = np.array(multi_bounds[:-1], dtype=np.intp)
        if multi_flows and attenuating:
            # Dynamic effective bottleneck (Eq. 17 under attenuation): per
            # step, each multi-hop flow's reference link is the path link
            # with the smallest survival-scaled capacity C_l / S_l, where
            # S_l is the flow's survival product over links upstream of l
            # (ties pick the most upstream link).  The per-pair survive
            # factors are the same backward-delayed gathers the composed
            # path loss already uses; arrival/queue of the chosen link are
            # gathered at its own backward delay.  The per-pair arrays are
            # processed as a rectangular (num_multi, max_len) matrix —
            # segments shorter than max_len are padded with survive = 1 /
            # capacity = inf so they never win the argmin.
            num_multi = len(multi_flows)
            multi_links = [
                idx
                for i in multi_ids
                for idx in net.paths[i].link_indices
                if idx in pos_of_link
            ]
            multi_caps = np.array(
                [net.links[idx].capacity_pps for idx in multi_links], dtype=float
            )
            multi_arr_cols = multi_cols_arr - 2 * num_queued
            multi_q_cols = multi_cols_arr - num_queued
            multi_lens = np.diff(multi_bounds)
            max_len = int(multi_lens.max())
            ragged = bool(np.any(multi_lens != max_len))
            pad_idx = np.zeros((num_multi, max_len), dtype=np.intp)
            pad_invalid = np.ones((num_multi, max_len), dtype=bool)
            for row, (start, length) in enumerate(zip(multi_starts, multi_lens, strict=True)):
                pad_idx[row, :length] = np.arange(start, start + length)
                pad_invalid[row, :length] = False
            caps_pad = multi_caps[pad_idx]
            caps_pad[pad_invalid] = np.inf
            pad_valid = ~pad_invalid
            multi_rows = np.arange(num_multi)
            # Reusable per-step buffers (survive matrix, exclusive prefix
            # survival, attenuated contribution, effective capacity).
            surv_pad = np.ones((num_multi, max_len))
            surv_prefix = np.ones((num_multi, max_len))
            own_contrib = np.empty((num_multi, max_len))
            eff_capacity = np.empty((num_multi, max_len))

        # Upstream attenuation tables for Eq. 1: the contribution of flow i
        # to link l is its delayed sending rate run through
        # ``r <- min(r * (1 - p_m), C_m)`` over the queued links m upstream
        # of l in path order — the survival product capped by the smallest
        # upstream delivered capacity.  Each p_m is read at the lag the
        # traffic actually crossed m, ``d^f_{i,l} - d^f_{i,m}``.  Pairs
        # whose link is the flow's first queued link have no upstream terms
        # and keep the exact legacy arithmetic (one-hop scenarios stay
        # bit-identical).  Pairs are sorted by upstream depth (deepest
        # first) so each depth level is a leading slice, and all depth
        # levels share one gather per step.
        att_positions = np.empty(0, dtype=np.intp)
        att_levels: list[tuple[slice, slice, np.ndarray]] = []
        if attenuating:
            att_list: list[tuple[int, int, int, list[int]]] = []
            pos = 0
            for idx in queued_links:
                for i in net.users(idx):
                    ups = net.upstream_queued_links(i, idx)
                    if ups:
                        att_list.append((pos, i, idx, ups))
                    pos += 1
            att_list.sort(key=lambda entry: -len(entry[3]))
            if att_list:
                att_positions = np.array([p for p, _, _, _ in att_list], dtype=np.intp)
                max_depth = len(att_list[0][3])
                att_cols: list[int] = []
                att_delays: list[float] = []
                for d in range(max_depth):
                    count = sum(1 for _, _, _, ups in att_list if len(ups) > d)
                    caps = np.empty(count)
                    for local, (_, i, idx, ups) in enumerate(att_list[:count]):
                        m = ups[d]
                        att_cols.append(2 * num_queued + pos_of_link[m])
                        att_delays.append(
                            net.forward_delay(i, idx) - net.forward_delay(i, m)
                        )
                        caps[local] = net.links[m].capacity_pps
                    offset = len(att_cols) - count
                    att_levels.append(
                        (slice(0, count), slice(offset, offset + count), caps)
                    )
                att_cols_arr = np.array(att_cols, dtype=np.intp)
                att_lags = link_history.lag_steps(np.array(att_delays, dtype=float))

        # All link-state reads of a step sample the same (immutable) ring
        # buffer, so the attenuated pipeline fuses them into one gather:
        # [attenuation survivals | per-flow bottleneck obs | multi-pair
        # loss | multi-pair arrival | multi-pair queue].
        fused_cols = None
        if attenuating and multi_flows:
            pieces = (
                (att_cols_arr, att_lags),
                (obs_cols, obs_lags),
                (multi_cols_arr, multi_lags),
                (multi_arr_cols, multi_lags),
                (multi_q_cols, multi_lags),
            )
            fused_cols = np.concatenate([cols for cols, _ in pieces])
            fused_lags = np.concatenate([lags for _, lags in pieces])
            bounds = np.cumsum([0] + [len(cols) for cols, _ in pieces])
            (s_att, s_obs, s_loss, s_arr, s_queue) = (
                slice(bounds[k], bounds[k + 1]) for k in range(5)
            )

        # Path latency (Eq. 3) = constant propagation part + the queueing
        # delays of the flow's queued links, added one hop at a time in
        # queued-link order, so a flow's sum does not depend on the other
        # scenarios of a batch.  ``hop_cols[h]`` holds every flow's h-th
        # queued link; flows with fewer hops point at the zero entry past
        # the links.
        latency_const = np.empty(num_flows)
        flow_queued: list[list[int]] = []
        for slot, i in enumerate(order):
            path = net.paths[i]
            acc = path.return_delay_s
            for idx in path.link_indices:
                acc += net.links[idx].delay_s
            latency_const[slot] = acc
            flow_queued.append(
                sorted(pos_of_link[idx] for idx in path.link_indices if idx in pos_of_link)
            )
        max_hops = max(len(cols) for cols in flow_queued)
        hop_cols = [
            np.array(
                [cols[h] if h < len(cols) else num_queued for cols in flow_queued],
                dtype=np.intp,
            )
            for h in range(max_hops)
        ]
        queueing_delay = np.zeros(num_queued + 1)
        queueing_delay_links = queueing_delay[:num_queued]

        # Queued-link parameter arrays for Eq. 2 and Eq. 4/6.
        link_capacity = np.array(
            [net.links[idx].capacity_pps for idx in queued_links], dtype=float
        )
        link_buffer = np.array(
            [net.links[idx].buffer_pkts for idx in queued_links], dtype=float
        )
        disciplines = [net.links[idx].discipline for idx in queued_links]
        all_droptail = all(d == "droptail" for d in disciplines)
        all_red = all(d == "red" for d in disciplines)
        droptail_mask = np.array([d == "droptail" for d in disciplines])
        sharpness = smooth.constant(cfg.fluid.sigmoid_sharpness)
        exponent = smooth.constant(cfg.fluid.droptail_exponent)
        literal_xmax = cfg.fluid.literal_xmax

        # ---------- trace recording buffers ----------------------------- #
        # One row per record and block: the flow block [rate | delivery |
        # rtt] and the link block [queue | loss | arrival | departure] by
        # slot/link position, each filled by a single concatenate per
        # record, and per group the traced rows of its state block
        # (inflight, then the model's traced fields), one slice copy.
        steps = int(round(cfg.duration_s / dt))
        record_every = max(1, int(round(RECORD_INTERVAL_S / dt)))
        num_records = steps // record_every + 1
        rec_flow = np.zeros((num_records, 3 * num_flows))
        rec_link = np.zeros((num_records, 4 * num_queued))
        record_index = 0

        # ---------- CCA states: one batched group per batch key --------- #
        states = self._make_states()
        dt_bound = smooth.constant(dt)
        # (model, slots, batch, reusable FlowInputsBatch, traced rows, record)
        batch_groups = []
        start = 0
        for flow_ids in group_indices.values():
            model = self.models[flow_ids[0]]
            batch = model.make_batch([states[i] for i in flow_ids])
            slots = slice(start, start + len(flow_ids))
            start = slots.stop
            inputs = FlowInputsBatch(
                dt=dt_bound,
                tau=latency_const,
                tau_delayed=latency_const,
                path_loss=latency_const,
                delivery_rate=latency_const,
                rate_delayed=latency_const,
                literal_xmax=literal_xmax,
            )
            traced = 1 + len(model.traced)
            record = np.zeros((num_records, traced, batch.size))
            batch_groups.append((model, slots, batch, inputs, traced, record))

        # ---------- mutable per-step arrays ----------------------------- #
        queue_arr = np.zeros(num_queued)
        rates_all = np.zeros(num_flows)
        delivery_rates = np.zeros(num_flows)

        for step in range(steps + 1):
            t = step * dt
            if fused_cols is not None:
                fused = link_history.gather(fused_cols, fused_lags)

            # 1. Link arrival rates from delayed sending rates (Eq. 1),
            # attenuated by upstream loss and capacity along each path.
            delayed_rates = rate_history.gather(user_flows_arr, user_lags)
            if att_positions.size:
                att_surv = ONE - fused[s_att]
                contrib = delayed_rates[att_positions]
                for rows, seg, caps in att_levels:
                    np.minimum(contrib[rows] * att_surv[seg], caps, out=contrib[rows])
                delayed_rates[att_positions] = contrib
            for rows, pairs in eq1_blocks:
                arrival[rows] = np.add.reduce(delayed_rates[pairs], axis=1)
            if all_droptail:
                loss = queues.droptail_loss_vec(
                    arrival, link_capacity, queue_arr, link_buffer, sharpness, exponent
                )
            elif all_red:
                loss = queues.red_loss_vec(queue_arr, link_buffer)
            else:
                loss = np.where(
                    droptail_mask,
                    queues.droptail_loss_vec(
                        arrival, link_capacity, queue_arr, link_buffer, sharpness, exponent
                    ),
                    queues.red_loss_vec(queue_arr, link_buffer),
                )
            departure = np.where(
                queue_arr > ZERO,
                link_capacity,
                np.minimum((ONE - loss) * arrival, link_capacity),
            )

            # 2. Per-flow observations: path latency (Eq. 3), observed loss
            # (Eq. 7) and delivery rate (Eq. 17), all flows at once.
            np.divide(queue_arr, link_capacity, out=queueing_delay_links)
            path_queueing = queueing_delay[hop_cols[0]]
            for cols in hop_cols[1:]:
                path_queueing += queueing_delay[cols]
            latency = latency_const + path_queueing
            own_delayed = rate_history.gather(flow_index, own_lags)
            tau_delayed = latency_history.gather(flow_index, rtt_lags)
            if fused_cols is not None:
                obs = fused[s_obs]
            else:
                obs = link_history.gather(obs_cols, obs_lags)
            y_delayed = obs[:num_flows]
            q_delayed = obs[num_flows : 2 * num_flows]
            p_delayed = obs[2 * num_flows :]
            if multi_flows:
                if fused_cols is not None:
                    survive = ONE - fused[s_loss]
                else:
                    survive = ONE - link_history.gather(multi_cols_arr, multi_lags)
                p_delayed[multi_flows_arr] = ONE - np.multiply.reduceat(
                    survive, multi_starts
                )
            has_arrival = y_delayed > ZERO
            saturated = (q_delayed > ZERO) | (y_delayed > btl_capacity)
            y_safe = np.where(has_arrival, y_delayed, ONE)
            delivery_rates = np.where(
                saturated & has_arrival,
                np.minimum(own_delayed / y_safe * btl_capacity, btl_capacity),
                np.minimum(own_delayed, btl_capacity),
            )
            if multi_flows and attenuating:
                # Effective bottleneck for multi-hop flows: exclusive prefix
                # survival S_l and the flow's attenuated contribution R_l
                # (min(r * s, C) recursion) along each segment, then the
                # argmin of C_l / S_l picks the reference link (first on
                # ties = most upstream).  All segments are processed as the
                # padded (num_multi, max_len) matrix built above.
                if ragged:
                    # Padding entries keep their initial survive = 1.0.
                    np.place(surv_pad, pad_valid, survive)
                else:
                    surv_pad = survive.reshape(num_multi, max_len)
                np.cumprod(surv_pad[:, :-1], axis=1, out=surv_prefix[:, 1:])
                own_contrib[:, 0] = own_delayed[multi_flows_arr]
                for d in range(1, max_len):
                    np.minimum(
                        own_contrib[:, d - 1] * surv_pad[:, d - 1],
                        caps_pad[:, d - 1],
                        out=own_contrib[:, d],
                    )
                # An upstream link dropping everything (RED at a full
                # buffer) zeroes the survival prefix: no traffic reaches
                # the links behind it, so their effective capacity is
                # infinite rather than a division by zero.
                unreachable = surv_prefix == ZERO
                if np.count_nonzero(unreachable):
                    np.divide(
                        caps_pad,
                        np.where(unreachable, ONE, surv_prefix),
                        out=eff_capacity,
                    )
                    eff_capacity[unreachable] = np.inf
                else:
                    np.divide(caps_pad, surv_prefix, out=eff_capacity)
                choice = np.argmin(eff_capacity, axis=1)
                chosen = pad_idx[multi_rows, choice]
                cap_dyn = multi_caps[chosen]
                y_dyn = fused[s_arr][chosen]
                q_dyn = fused[s_queue][chosen]
                own_dyn = own_contrib[multi_rows, choice]
                has_dyn = y_dyn > ZERO
                sat_dyn = (q_dyn > ZERO) | (y_dyn > cap_dyn)
                y_safe_dyn = np.where(has_dyn, y_dyn, ONE)
                delivery_rates[multi_flows_arr] = np.where(
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
            if churn:
                active_all = (start_times <= t) & (t < stop_times) & ~completed
            else:
                active_all = None if t >= max_start else start_times <= t
            for model, slots, batch, inputs, _, _ in batch_groups:
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

            if churn:
                # Finite-size completion: only active flows accumulate
                # delivered volume, and a crossing takes effect (flow
                # masked inactive) from the next step.
                np.add(
                    delivered_vol,
                    delivery_rates * dt_bound,
                    out=delivered_vol,
                    where=active_all,
                )
                newly_done = (delivered_vol >= sizes) & ~completed
                completed |= newly_done
                end_times[newly_done] = t

            # 4. Record (before integrating queues so t=0 is captured).
            if step % record_every == 0 and record_index < num_records:
                np.concatenate(
                    (rates_all, delivery_rates, latency), out=rec_flow[record_index]
                )
                np.concatenate(
                    (queue_arr, loss, arrival, departure), out=rec_link[record_index]
                )
                for _, _, batch, _, traced, record in batch_groups:
                    record[record_index] = batch.block[:traced]
                record_index += 1

            # 5. Integrate the link queues (Eq. 2).
            queue_arr = queues.step_queue_vec(
                queue_arr, arrival, link_capacity, loss, link_buffer, dt_bound
            )

            # 6. Push histories (the queue after its Eq. 2 step).
            rate_history.advance()[:] = rates_all
            latency_history.advance()[:] = latency
            np.concatenate((arrival, queue_arr, loss), out=link_history.advance())

        self.runtime = {
            "steps": steps + 1,
            "flows": num_flows,
            "links": num_queued,
            "gathers": rate_history.gathers
            + latency_history.gathers
            + link_history.gathers,
        }
        flow_ends = self._flow_end_list(
            churn,
            num_flows,
            cfg.duration_s,
            completed[slot_of] if churn else None,
            end_times[slot_of] if churn else None,
            flow_stops if churn else None,
        )

        # ---------- per-flow series: views of each flow's slot column --- #
        records = slice(0, record_index)
        flows: dict[int, FlowTrace] = {}
        for model, slots, _, _, _, record in batch_groups:
            for col, i in enumerate(order[slots]):
                slot = slots.start + col
                extras = dict(zip(model.traced, record[records, 1:, col].T, strict=True))
                flows[i] = self._flow_trace(
                    i,
                    rec_flow[records, slot],
                    rec_flow[records, num_flows + slot],
                    extras["cwnd"],
                    record[records, 0, col],
                    rec_flow[records, 2 * num_flows + slot],
                    extras,
                    flow_starts,
                    flow_ends,
                )
        return self._assemble_trace(
            (np.arange(record_index) * record_every) * dt,
            [flows[i] for i in range(num_flows)],
            {idx: rec_link[records, pos] for pos, idx in enumerate(queued_links)},
            {
                idx: rec_link[records, num_queued + pos]
                for pos, idx in enumerate(queued_links)
            },
            {
                idx: rec_link[records, 2 * num_queued + pos]
                for pos, idx in enumerate(queued_links)
            },
            {
                idx: rec_link[records, 3 * num_queued + pos]
                for pos, idx in enumerate(queued_links)
            },
        )

    # ------------------------------------------------------------------ #
    # Trace assembly
    # ------------------------------------------------------------------ #

    def _flow_trace(
        self,
        i: int,
        rate: np.ndarray,
        delivery: np.ndarray,
        cwnd: np.ndarray,
        inflight: np.ndarray,
        rtt: np.ndarray,
        extras: dict[str, np.ndarray],
        flow_starts: np.ndarray | None,
        flow_ends: list[float | None] | None,
    ) -> FlowTrace:
        return FlowTrace(
            cca=self.config.flows[i].cca,
            rate=rate,
            delivery_rate=delivery,
            cwnd=cwnd,
            inflight=inflight,
            rtt=rtt,
            extras=extras,
            start_time_s=0.0 if flow_starts is None else float(flow_starts[i]),
            end_time_s=None if flow_ends is None else flow_ends[i],
        )

    def _assemble_trace(
        self,
        time: np.ndarray,
        flows: list[FlowTrace],
        queue: dict[int, np.ndarray],
        loss: dict[int, np.ndarray],
        arrival: dict[int, np.ndarray],
        departure: dict[int, np.ndarray],
    ) -> Trace:
        links = []
        for idx in sorted(queue):
            link = self.network.links[idx]
            buffer_pkts = link.buffer_pkts if math.isfinite(link.buffer_pkts) else math.inf
            links.append(
                LinkTrace(
                    name=link.name or f"link-{idx}",
                    capacity_pps=link.capacity_pps,
                    buffer_pkts=buffer_pkts,
                    queue=queue[idx],
                    loss_prob=loss[idx],
                    arrival_rate=arrival[idx],
                    departure_rate=departure[idx],
                )
            )
        return Trace(time=time, flows=flows, links=links, substrate="fluid")


def simulate(config: ScenarioConfig, *, attenuate_arrivals: bool = True) -> Trace:
    """Convenience wrapper: build a :class:`FluidSimulator` and run it."""
    return FluidSimulator(config, attenuate_arrivals=attenuate_arrivals).run()


def simulate_many(configs: Sequence[ScenarioConfig]) -> list[Trace]:
    """Integrate many *independent* scenarios in lockstep as one batched system.

    The aggregate-validation figures (Figs. 6-10, 13-17) integrate dozens of
    scenarios that share the integration step and duration but differ in CCA
    mix, buffer size and queue discipline.  The scenarios never interact, so
    their fluid models can be stacked into a single block-diagonal system:
    one wide flow population, one link set containing every scenario's
    bottleneck, and a flow→link incidence that keeps each scenario on its
    own links.  Every numpy expression of the integrator then
    amortises its per-operation overhead over the whole batch, which is
    where the bulk of the sweep speedup comes from on a single core.

    Each returned trace is bit-identical to running its scenario alone
    through :func:`simulate`: the per-flow arithmetic is element-wise, each
    flow's slot in the group-major layout (every CCA group one contiguous
    run, however the groups interleave across scenarios) changes where it
    is stored but not what is computed, the single Eq. 1 reduction sums
    each link's users in the scenario's own flow order, Eq. 3 adds a flow's
    queueing delays hop by hop, and zero padding is exact
    (``tests/golden/fluid_traces.json`` pins both forms).

    All scenarios must share ``dt``, ``duration_s`` and the global fluid
    numerics (sigmoid sharpness, drop-tail exponent, ``literal_xmax``);
    per-model parameters may differ freely because model batches group by
    ``batch_key``.
    """
    configs = list(configs)
    if not configs:
        return []
    if len(configs) == 1:
        return [simulate(configs[0])]
    if TELEMETRY.enabled:
        TELEMETRY.count("fluid.lockstep_batches")
        TELEMETRY.count("fluid.lockstep_scenarios", len(configs))
    first = configs[0]
    for cfg in configs[1:]:
        if cfg.fluid.dt != first.fluid.dt:
            raise ValueError("batched scenarios must share the integration step")
        if cfg.duration_s != first.duration_s:
            raise ValueError("batched scenarios must share the duration")
        for field_name in ("sigmoid_sharpness", "droptail_exponent", "literal_xmax"):
            if getattr(cfg.fluid, field_name) != getattr(first.fluid, field_name):
                raise ValueError(
                    f"batched scenarios must share fluid numerics ({field_name})"
                )

    combined_links: list = []
    combined_paths: list[Path] = []
    combined_flows: list = []
    combined_entries: list[FlowArrival] = []
    any_schedule = any(cfg.schedule is not None for cfg in configs)
    models: dict[int, FluidCCA] = {}
    initial_states: list = []
    flow_bounds = [0]
    queued_counts: list[int] = []
    for cfg in configs:
        sub = FluidSimulator(cfg)
        net = sub.network
        offset = len(combined_links)
        combined_links.extend(net.links)
        queued_counts.append(len(net.queued_link_indices()))
        if any_schedule:
            # Concatenate each scenario's materialised schedule; a
            # schedule-free scenario contributes plain start-only entries,
            # so its flows keep the legacy start-time masking.
            entries = cfg.flow_schedule()
            if entries is None:
                entries = tuple(
                    FlowArrival(start_time_s=f.start_time_s) for f in cfg.flows
                )
            combined_entries.extend(entries)
        for path in net.paths:
            combined_paths.append(
                Path(
                    link_indices=tuple(offset + i for i in path.link_indices),
                    return_delay_s=path.return_delay_s,
                )
            )
        for i in range(net.num_flows):
            models[len(combined_flows)] = sub.models[i]
            combined_flows.append(cfg.flows[i])
            # States are built with the scenario-local flow index and count:
            # e.g. BBRv1 desynchronises gain cycles by ``i % 6`` and BBRv2
            # spreads its wall-clock period by ``i / N`` *within* a scenario.
            initial_states.append(
                sub.models[i].initial_state(i, net.num_flows, net, cfg.fluid)
            )
        flow_bounds.append(len(combined_flows))

    network = Network(combined_links, combined_paths)
    # The merged scenario only carries the flows and the global fluid
    # numerics; the combined network (which already encodes every
    # scenario's topology) is passed explicitly, so any per-scenario
    # topology must not survive into the merged config (its path count
    # would not match the combined flow population).
    merged_config = dataclasses.replace(
        first, flows=tuple(combined_flows), topology=None, schedule=None
    )
    combined = FluidSimulator(
        merged_config,
        models=models,
        network=network,
        initial_states=initial_states,
        schedule_entries=combined_entries if any_schedule else None,
    ).run()

    # Split the combined trace back into one trace per scenario.  Links are
    # emitted by global index, and each scenario's links form one contiguous
    # block, so its queued links are a contiguous run in the combined list.
    traces: list[Trace] = []
    link_pos = 0
    for j in range(len(configs)):
        flows = combined.flows[flow_bounds[j] : flow_bounds[j + 1]]
        links = combined.links[link_pos : link_pos + queued_counts[j]]
        link_pos += queued_counts[j]
        traces.append(
            Trace(time=combined.time, flows=flows, links=links, substrate="fluid")
        )
    return traces
