"""Scenario configuration dataclasses shared by the fluid model and the
packet-level emulator.

The paper evaluates exclusively on the dumbbell of Fig. 3: ``N`` senders,
each connected to a switch over its own unsaturated access link, and a
single shared bottleneck link between the switch and the destination.  That
remains the default scenario shape (``bottleneck=`` + ``flows=``), but a
scenario may instead carry an explicit :class:`TopologyConfig` — a set of
named queued links plus one link-name path per flow — which opens the
multi-bottleneck topologies the paper lists as future work (parking-lot
chains, multi-dumbbell cross-traffic; builders in :mod:`repro.topology`).

The legacy single-bottleneck form is a thin wrapper over a one-hop
topology: :meth:`ScenarioConfig.effective_topology` maps it onto a single
named link traversed by every flow, and both substrates consume only the
effective topology, so the two forms are interchangeable (and equivalence
is tested bit-for-bit in ``tests/test_topology.py``).

The configuration captures everything both substrates need: link
capacities, buffer sizes, propagation delays, queue disciplines, per-flow
paths, the CCA run by each sender, and numerical parameters of the fluid
model.  Buffer sizes everywhere are expressed in multiples of the
*reference-bottleneck* BDP: the reference link's capacity times the mean
propagation RTT over all flows (for a dumbbell this is the paper's
bottleneck BDP).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from . import units
from .rng import derive_rng

#: Queue disciplines supported by both the fluid model and the emulator.
QUEUE_DISCIPLINES = ("droptail", "red")

#: Congestion-control algorithms supported by both substrates.
CCA_NAMES = ("reno", "cubic", "bbr1", "bbr2")

#: Arrival processes supported by :class:`FlowSchedule`.
ARRIVAL_PROCESSES = ("staggered", "poisson", "onoff")

#: Flow-size distributions supported by :class:`FlowSchedule`.
SIZE_DISTRIBUTIONS = ("infinite", "fixed", "pareto")

#: Seconds between emulation trace samples.  Every emulation run uses it;
#: store keys and stored meta of emulation points record it (re-exported as
#: :data:`repro.emulation.runner.RECORD_INTERVAL_S`).
EMULATION_RECORD_INTERVAL_S = 0.01

#: The event layer every emulation campaign runs, recorded in store keys
#: and meta like the sampling interval (re-exported as
#: :data:`repro.emulation.runner.SCHEDULER`).
EMULATION_SCHEDULER = "delayline"


@dataclass(frozen=True)
class LinkConfig:
    """Configuration of a single link.

    Attributes:
        capacity_mbps: transmission capacity in Mbps.
        delay_s: one-way propagation delay in seconds.
        buffer_bdp: buffer size expressed in multiples of the reference
            bottleneck BDP (the paper sweeps 1..7 BDP).  ``math.inf`` means
            unbounded.
        discipline: ``"droptail"`` or ``"red"``.
        name: identifier used by :class:`TopologyConfig` paths and per-link
            trace/metric output.  Optional for the legacy single-bottleneck
            form (where it defaults to ``"bottleneck"``).
    """

    capacity_mbps: float
    delay_s: float
    buffer_bdp: float = 1.0
    discipline: str = "droptail"
    name: str = ""

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ValueError("link capacity must be positive")
        if self.delay_s < 0:
            raise ValueError("link delay must be non-negative")
        if self.buffer_bdp <= 0:
            raise ValueError("buffer size must be positive")
        if self.discipline not in QUEUE_DISCIPLINES:
            raise ValueError(f"unknown queue discipline {self.discipline!r}")

    @property
    def capacity_pps(self) -> float:
        """Capacity in packets per second."""
        return units.mbps_to_pps(self.capacity_mbps)


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of a single sender (agent).

    Attributes:
        cca: name of the congestion-control algorithm (see ``CCA_NAMES``).
        access_delay_s: one-way propagation delay of the sender's private
            access link (the heterogeneous ``d_{l_i}`` of Fig. 3).
        start_time_s: time at which the flow starts sending.
    """

    cca: str
    access_delay_s: float = 0.005
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.cca not in CCA_NAMES:
            raise ValueError(f"unknown CCA {self.cca!r}; expected one of {CCA_NAMES}")
        if self.access_delay_s < 0:
            raise ValueError("access delay must be non-negative")
        if self.start_time_s < 0:
            raise ValueError("start time must be non-negative")


@dataclass(frozen=True)
class FlowArrival:
    """One materialised schedule entry: when a flow starts and how much it sends.

    Produced by :meth:`FlowSchedule.materialize`; both substrates consume
    exactly these entries, so the fluid model and the packet emulator run
    the identical workload.

    Attributes:
        start_time_s: time at which the flow starts sending.
        size_packets: finite flow size in packets (the flow completes and
            departs once it has delivered this much), or ``None`` for a
            long-lived flow that never completes.
        stop_time_s: optional hard departure time (on/off sources switch
            off here even if their size is unbounded).
    """

    start_time_s: float
    size_packets: float | None = None
    stop_time_s: float | None = None

    def __post_init__(self) -> None:
        if self.start_time_s < 0:
            raise ValueError("start time must be non-negative")
        if self.size_packets is not None and self.size_packets < 1:
            raise ValueError("flow size must be at least one packet")
        if self.stop_time_s is not None and self.stop_time_s <= self.start_time_s:
            raise ValueError("stop time must be after the start time")


@dataclass(frozen=True)
class FlowSchedule:
    """A time-varying workload: flow arrival process and flow-size distribution.

    Attached to a :class:`ScenarioConfig`, a schedule turns the static flow
    population into a churning one: flows join mid-run according to the
    arrival process and depart once they have delivered their (possibly
    heavy-tailed) size.  :meth:`materialize` expands the schedule — via the
    package's blessed :func:`~repro.rng.derive_rng` stream — into one
    explicit :class:`FlowArrival` per configured flow, and both substrates
    consume only that materialised list, so the fluid model and the packet
    emulator see the identical workload.  Schedule start times override the
    per-flow ``FlowConfig.start_time_s``.

    Attributes:
        arrivals: arrival process — ``"staggered"`` (deterministic, evenly
            spaced starts), ``"poisson"`` (exponential inter-arrivals at
            ``arrival_rate_per_s``) or ``"onoff"`` (deterministic on/off
            sources: each source is on for ``on_time_s``, with the sources'
            on-phases spread evenly over one on+off period).
        arrival_spacing_s: inter-start gap of the staggered process.
        arrival_rate_per_s: mean flow arrival rate of the Poisson process.
        on_time_s: on-period length of the on/off process.
        off_time_s: off-period length of the on/off process.
        size_dist: flow-size distribution — ``"infinite"`` (long-lived
            flows), ``"fixed"`` (every flow sends ``mean_size_packets``) or
            ``"pareto"`` (bounded Pareto on ``[min_size_packets,
            max_size_packets]`` with tail index ``pareto_shape``, the
            heavy-tailed mice-and-elephants workload).
        mean_size_packets: flow size of the ``"fixed"`` distribution.
        pareto_shape: tail index ``alpha`` of the bounded Pareto.
        min_size_packets: lower bound of the bounded Pareto.
        max_size_packets: upper bound of the bounded Pareto.
    """

    arrivals: str = "staggered"
    arrival_spacing_s: float = 0.0
    arrival_rate_per_s: float | None = None
    on_time_s: float | None = None
    off_time_s: float | None = None
    size_dist: str = "infinite"
    mean_size_packets: float | None = None
    pareto_shape: float = 1.5
    min_size_packets: float = 10.0
    max_size_packets: float | None = None

    def __post_init__(self) -> None:
        if self.arrivals not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrivals!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )
        if self.arrival_spacing_s < 0:
            raise ValueError("arrival spacing must be non-negative")
        if self.arrivals == "poisson":
            if self.arrival_rate_per_s is None or self.arrival_rate_per_s <= 0:
                raise ValueError("poisson arrivals need a positive arrival_rate_per_s")
        if self.arrivals == "onoff":
            if self.on_time_s is None or self.on_time_s <= 0:
                raise ValueError("on/off sources need a positive on_time_s")
            if self.off_time_s is None or self.off_time_s < 0:
                raise ValueError("on/off sources need a non-negative off_time_s")
        if self.size_dist not in SIZE_DISTRIBUTIONS:
            raise ValueError(
                f"unknown size distribution {self.size_dist!r}; "
                f"expected one of {SIZE_DISTRIBUTIONS}"
            )
        if self.size_dist == "fixed":
            if self.mean_size_packets is None or self.mean_size_packets < 1:
                raise ValueError("fixed sizes need mean_size_packets >= 1")
        if self.size_dist == "pareto":
            if self.pareto_shape <= 0:
                raise ValueError("pareto shape must be positive")
            if self.min_size_packets < 1:
                raise ValueError("minimum flow size must be at least one packet")
            if self.max_size_packets is None or (
                self.max_size_packets <= self.min_size_packets
            ):
                raise ValueError(
                    "bounded pareto needs max_size_packets > min_size_packets"
                )

    @property
    def uses_seed(self) -> bool:
        """Whether materialisation consumes the scenario seed (random draws)."""
        return self.arrivals == "poisson" or self.size_dist == "pareto"

    def mean_flow_size_packets(self) -> float:
        """Mean of the flow-size distribution (for offered-load calculations)."""
        if self.size_dist == "fixed":
            assert self.mean_size_packets is not None
            return self.mean_size_packets
        if self.size_dist == "pareto":
            assert self.max_size_packets is not None
            low, high, shape = (
                self.min_size_packets,
                self.max_size_packets,
                self.pareto_shape,
            )
            if shape == 1.0:
                return high * low / (high - low) * math.log(high / low)
            ratio = (low / high) ** shape
            return (low**shape / (1.0 - ratio)) * (
                shape / (shape - 1.0)
            ) * (low ** (1.0 - shape) - high ** (1.0 - shape))
        raise ValueError("infinite flows have no mean size")

    def materialize(self, num_flows: int, seed: int) -> tuple[FlowArrival, ...]:
        """Expand into one explicit :class:`FlowArrival` per flow.

        Deterministic in ``(schedule, num_flows, seed)``: all random draws
        come from the single ``derive_rng(seed, "schedule")`` stream, with a
        fixed consumption order (all inter-arrival gaps in flow order, then
        all sizes in flow order), so both substrates — and any process or
        platform — materialise the identical workload.
        """
        if num_flows <= 0:
            raise ValueError("num_flows must be positive")
        rng = derive_rng(seed, "schedule") if self.uses_seed else None
        starts: list[float]
        stops: list[float | None]
        if self.arrivals == "staggered":
            starts = [i * self.arrival_spacing_s for i in range(num_flows)]
            stops = [None] * num_flows
        elif self.arrivals == "poisson":
            assert rng is not None and self.arrival_rate_per_s is not None
            starts = [0.0]
            for _ in range(num_flows - 1):
                starts.append(starts[-1] + rng.expovariate(self.arrival_rate_per_s))
            stops = [None] * num_flows
        else:  # onoff
            assert self.on_time_s is not None and self.off_time_s is not None
            period_s = self.on_time_s + self.off_time_s
            starts = [i * period_s / num_flows for i in range(num_flows)]
            stops = [start + self.on_time_s for start in starts]
        sizes: list[float | None]
        if self.size_dist == "infinite":
            sizes = [None] * num_flows
        elif self.size_dist == "fixed":
            sizes = [self.mean_size_packets] * num_flows
        else:  # bounded pareto (inverse-CDF transform)
            assert rng is not None and self.max_size_packets is not None
            low, high, shape = (
                self.min_size_packets,
                self.max_size_packets,
                self.pareto_shape,
            )
            tail = 1.0 - (low / high) ** shape
            sizes = [
                low * (1.0 - rng.random() * tail) ** (-1.0 / shape)
                for _ in range(num_flows)
            ]
        return tuple(
            FlowArrival(start_time_s=start, size_packets=size, stop_time_s=stop)
            for start, size, stop in zip(starts, sizes, stops, strict=True)
        )


@dataclass(frozen=True)
class TopologyConfig:
    """A multi-link topology: named queued links plus one link path per flow.

    Every link is a queued (finite-capacity) link; the per-flow unsaturated
    access links of Fig. 3 are implicit — each flow still owns one, with the
    delay given by its :class:`FlowConfig.access_delay_s`.  A flow's forward
    path is therefore (its access link, then ``paths[i]`` in order), and the
    return (ACK) path is a pure propagation delay of the same total length
    (symmetric routing, as in the dumbbell).

    Attributes:
        links: the queued links.  Every link must carry a unique, non-empty
            ``name``; link buffers are expressed in multiples of the
            *reference* bottleneck BDP (see ``reference``).
        paths: one entry per flow: the ordered tuple of link names the flow
            traverses.  ``len(paths)`` must equal the scenario's flow count.
        reference: name of the reference bottleneck link that defines the
            scenario BDP (reference capacity x mean propagation RTT over all
            flows).  Defaults to the smallest-capacity link.
    """

    links: tuple[LinkConfig, ...]
    paths: tuple[tuple[str, ...], ...]
    reference: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))
        if not self.links:
            raise ValueError("a topology needs at least one link")
        names = [link.name for link in self.links]
        if any(not name for name in names):
            raise ValueError("every topology link needs a non-empty name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate link names in topology: {names}")
        if not self.paths:
            raise ValueError("a topology needs at least one flow path")
        known = set(names)
        for i, path in enumerate(self.paths):
            if not path:
                raise ValueError(f"path of flow {i} is empty")
            unknown = [name for name in path if name not in known]
            if unknown:
                raise ValueError(f"path of flow {i} references unknown links {unknown}")
            if len(set(path)) != len(path):
                raise ValueError(f"path of flow {i} traverses a link twice: {path}")
        if not self.reference:
            smallest = min(self.links, key=lambda link: link.capacity_mbps)
            object.__setattr__(self, "reference", smallest.name)
        if self.reference not in known:
            raise ValueError(f"unknown reference link {self.reference!r}")

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def link_names(self) -> tuple[str, ...]:
        return tuple(link.name for link in self.links)

    def link(self, name: str) -> LinkConfig:
        """The link configuration registered under ``name``."""
        for link in self.links:
            if link.name == name:
                return link
        raise KeyError(f"unknown link {name!r}")

    @property
    def reference_link(self) -> LinkConfig:
        return self.link(self.reference)

    def path_delay_s(self, flow_index: int) -> float:
        """One-way propagation delay of a flow's queued-link path (no access link)."""
        return sum(self.link(name).delay_s for name in self.paths[flow_index])

    def with_buffer(self, buffer_bdp: float) -> TopologyConfig:
        """Copy with every link's buffer set to ``buffer_bdp`` reference BDPs."""
        return dataclasses.replace(
            self,
            links=tuple(
                dataclasses.replace(link, buffer_bdp=buffer_bdp) for link in self.links
            ),
        )

    def with_discipline(self, discipline: str) -> TopologyConfig:
        """Copy with every link's queue discipline replaced."""
        return dataclasses.replace(
            self,
            links=tuple(
                dataclasses.replace(link, discipline=discipline) for link in self.links
            ),
        )


@dataclass(frozen=True)
class FluidParams:
    """Numerical parameters of the fluid model.

    Attributes:
        dt: integration step of the method of steps, in seconds.  The paper
            uses 10 microseconds; 100 microseconds is indistinguishable at
            100 Mbps scale and an order of magnitude cheaper.
        sigmoid_sharpness: the ``K`` of Eq. (5); controls how sharply the
            smooth drop-tail loss switches on at ``y = C``.  Interpreted
            relative to the bottleneck capacity (dimensionless argument).
        droptail_exponent: the ``L`` of Eq. (4).
        loss_epsilon: loss-probability offset used where the paper applies a
            sigmoid directly to the loss probability (Eq. 30), so that zero
            loss yields no reaction.
        loss_sharpness: sharpness of sigmoid gates whose argument is a loss
            probability (values in [0, 1] need a much sharper gate than
            time-valued arguments).
        literal_xmax: if True, track the maximum of the *sending* rate in
            Eq. (18) exactly as printed; if False (default) track the maximum
            *delivery* rate as the surrounding text and BBR itself do.
        whi_init_bdp: initial value of BBRv2's ``inflight_hi`` (``w_hi``) in
            BDP multiples, or ``None`` to start it effectively unbounded.
            The paper uses a buffer-dependent initial condition to surface
            the large-buffer bufferbloat of Insight 5.
        loss_based_init_window_pkts: initial congestion window (packets) of
            the Reno and CUBIC fluid models.  The fluid models have no
            slow-start phase (Insight 9), so short aggregate scenarios use a
            window near the per-flow fair share to mimic the state reached
            after slow start.
    """

    dt: float = 1e-4
    sigmoid_sharpness: float = 200.0
    droptail_exponent: float = 20.0
    loss_epsilon: float = 5e-3
    loss_sharpness: float = 2000.0
    literal_xmax: bool = False
    whi_init_bdp: float | None = None
    loss_based_init_window_pkts: float = 10.0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.sigmoid_sharpness <= 0:
            raise ValueError("sigmoid sharpness must be positive")
        if self.droptail_exponent < 1:
            raise ValueError("drop-tail exponent must be >= 1")
        if not 0 <= self.loss_epsilon < 1:
            raise ValueError("loss epsilon must be in [0, 1)")
        if self.loss_sharpness <= 0:
            raise ValueError("loss sharpness must be positive")
        if self.whi_init_bdp is not None and self.whi_init_bdp <= 0:
            raise ValueError("whi_init_bdp must be positive when set")
        if self.loss_based_init_window_pkts < 1:
            raise ValueError("initial window must be at least one packet")


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete scenario: a dumbbell, or an explicit multi-link topology.

    Attributes:
        bottleneck: configuration of the shared bottleneck link (legacy
            single-bottleneck form).  When ``topology`` is set this field is
            a derived mirror of the topology's reference link, kept so every
            single-bottleneck accessor (``bottleneck_bdp_packets``,
            ``buffer_packets``, ...) stays meaningful; pass ``None`` then.
        flows: per-sender configurations.
        duration_s: simulated time.
        fluid: numerical parameters for the fluid-model substrate.
        seed: seed for any randomness in the packet-level emulator and for
            the materialisation of a stochastic flow schedule.
        topology: optional explicit :class:`TopologyConfig`; its ``paths``
            must list one link path per flow.  ``None`` means the implicit
            one-hop dumbbell over ``bottleneck``.
        schedule: optional :class:`FlowSchedule` turning the static flow
            population into a churning one (arrivals, finite sizes, on/off
            sources).  ``None`` — the default — keeps the legacy behaviour:
            every flow starts at its ``FlowConfig.start_time_s`` and never
            departs.  When set, the materialised schedule's start times
            override the per-flow ``start_time_s``.
    """

    bottleneck: LinkConfig | None
    flows: tuple[FlowConfig, ...]
    duration_s: float = 5.0
    fluid: FluidParams = field(default_factory=FluidParams)
    seed: int = 1
    topology: TopologyConfig | None = None
    schedule: FlowSchedule | None = None

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("a scenario needs at least one flow")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        object.__setattr__(self, "flows", tuple(self.flows))
        if self.topology is None:
            if self.bottleneck is None:
                raise ValueError("a scenario needs a bottleneck or a topology")
        else:
            if len(self.topology.paths) != len(self.flows):
                raise ValueError(
                    f"topology has {len(self.topology.paths)} paths for "
                    f"{len(self.flows)} flows"
                )
            # The mirror keeps the legacy single-bottleneck accessors (and
            # anything reading ``config.bottleneck``) pointed at the
            # reference link; it is always re-derived so there is a single
            # source of truth.
            object.__setattr__(self, "bottleneck", self.topology.reference_link)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    def flow_schedule(self) -> tuple[FlowArrival, ...]:
        """One :class:`FlowArrival` per flow, in flow order.

        A static population (no ``schedule``) gives each flow its
        ``FlowConfig.start_time_s`` and no size or stop time.  Both
        substrates consume only this: identical entries drive the fluid
        model's active-flow masks and the packet emulator's sender
        activation/teardown events.
        """
        if self.schedule is None:
            return tuple(FlowArrival(start_time_s=f.start_time_s) for f in self.flows)
        return self.schedule.materialize(self.num_flows, self.seed)

    def effective_topology(self) -> TopologyConfig:
        """The explicit topology, or the one-hop wrapper over ``bottleneck``.

        Both substrates consume only this: the legacy dumbbell is exactly a
        one-hop topology whose single link every flow traverses.
        """
        if self.topology is not None:
            return self.topology
        link = self.bottleneck
        if not link.name:
            link = dataclasses.replace(link, name="bottleneck")
        return TopologyConfig(
            links=(link,), paths=((link.name,),) * self.num_flows, reference=link.name
        )

    def rtt_s(self, flow_index: int) -> float:
        """Two-way propagation delay of a flow's path (no queueing)."""
        flow = self.flows[flow_index]
        if self.topology is not None:
            return 2.0 * (flow.access_delay_s + self.topology.path_delay_s(flow_index))
        return 2.0 * (flow.access_delay_s + self.bottleneck.delay_s)

    def mean_rtt_s(self) -> float:
        """Mean propagation RTT over all flows."""
        return sum(self.rtt_s(i) for i in range(self.num_flows)) / self.num_flows

    def bottleneck_bdp_packets(self) -> float:
        """Reference-bottleneck BDP in packets using the mean propagation RTT."""
        return units.bdp_packets(self.bottleneck.capacity_pps, self.mean_rtt_s())

    def buffer_packets(self) -> float:
        """Reference-bottleneck buffer size in packets."""
        return self.link_buffer_packets(self.bottleneck)

    def link_buffer_packets(self, link: LinkConfig | str) -> float:
        """Buffer size of a topology link in packets (reference-BDP scaled)."""
        if isinstance(link, str):
            link = self.effective_topology().link(link)
        if math.isinf(link.buffer_bdp):
            return math.inf
        return link.buffer_bdp * self.bottleneck_bdp_packets()

    def with_buffer(self, buffer_bdp: float) -> ScenarioConfig:
        """Return a copy with a different buffer size (every queued link)."""
        if self.topology is not None:
            return dataclasses.replace(
                self, topology=self.topology.with_buffer(buffer_bdp)
            )
        return dataclasses.replace(
            self, bottleneck=dataclasses.replace(self.bottleneck, buffer_bdp=buffer_bdp)
        )

    def with_discipline(self, discipline: str) -> ScenarioConfig:
        """Return a copy with a different queue discipline (every queued link)."""
        if self.topology is not None:
            return dataclasses.replace(
                self, topology=self.topology.with_discipline(discipline)
            )
        return dataclasses.replace(
            self, bottleneck=dataclasses.replace(self.bottleneck, discipline=discipline)
        )

    def with_duration(self, duration_s: float) -> ScenarioConfig:
        """Return a copy of the scenario with a different duration."""
        return dataclasses.replace(self, duration_s=duration_s)


def spread_access_delays(
    num_flows: int,
    rtt_range_s: tuple[float, float],
    bottleneck_delay_s: float,
) -> list[float]:
    """Deterministically spread access-link delays so that flow RTTs cover a range.

    The paper selects total RTTs "randomly between 30 and 40 ms"; the fluid
    model is deterministic, so we spread the RTTs evenly over the requested
    range (which is what a uniform random draw converges to in distribution)
    and let the packet emulator reuse the same values for comparability.
    """
    low, high = rtt_range_s
    if low > high:
        raise ValueError("rtt range must be ordered (low, high)")
    if low < 2 * bottleneck_delay_s:
        raise ValueError(
            "minimum RTT cannot be smaller than the bottleneck round-trip delay"
        )
    if num_flows <= 0:
        raise ValueError("num_flows must be positive")
    delays = []
    for i in range(num_flows):
        if num_flows == 1:
            rtt = (low + high) / 2.0
        else:
            rtt = low + (high - low) * i / (num_flows - 1)
        delays.append((rtt - 2 * bottleneck_delay_s) / 2.0)
    return delays


def dumbbell_scenario(
    ccas: Sequence[str],
    capacity_mbps: float = 100.0,
    bottleneck_delay_s: float = 0.010,
    rtt_range_s: tuple[float, float] = (0.030, 0.040),
    buffer_bdp: float = 1.0,
    discipline: str = "droptail",
    duration_s: float = 5.0,
    fluid: FluidParams | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """Build the canonical dumbbell scenario of the paper's evaluation.

    ``ccas`` lists one CCA name per sender; heterogeneous mixes are expressed
    by listing different names (e.g. 5x ``"bbr1"`` + 5x ``"reno"``).
    """
    access = spread_access_delays(len(ccas), rtt_range_s, bottleneck_delay_s)
    flows = tuple(
        FlowConfig(cca=cca, access_delay_s=delay)
        for cca, delay in zip(ccas, access, strict=True)
    )
    return ScenarioConfig(
        bottleneck=LinkConfig(
            capacity_mbps=capacity_mbps,
            delay_s=bottleneck_delay_s,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
        ),
        flows=flows,
        duration_s=duration_s,
        fluid=fluid or FluidParams(),
        seed=seed,
    )
