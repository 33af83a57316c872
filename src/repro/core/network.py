"""Fluid-model network description (Section 2 of the paper).

The network consists of links with capacity ``C_l``, buffer ``B_l`` and
propagation delay ``d_l``; each flow (agent) follows a path, i.e. an ordered
sequence of links.  The evaluation of the paper exclusively uses the
dumbbell topology of Fig. 3 (private access links into a switch, one shared
bottleneck link to the destination).  :func:`Network.from_scenario` builds
every scenario from its :meth:`~repro.config.ScenarioConfig.effective_topology`:
the dumbbell is the one-hop case, and the multi-bottleneck topologies
(parking lots, multi-dumbbells — listed as future work in the paper) come
from an explicit :class:`~repro.config.TopologyConfig`.  The packet
emulator builds from the same topology, so both substrates name their
links alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import units
from ..config import ScenarioConfig


@dataclass
class Link:
    """A unidirectional link of the fluid model.

    Attributes:
        capacity_pps: transmission capacity in packets/second (``math.inf``
            for links that can never be saturated, e.g. access links).
        delay_s: one-way propagation delay in seconds.
        buffer_pkts: buffer size in packets (ignored for unsaturated links).
        discipline: ``"droptail"`` or ``"red"``.
        name: human-readable identifier.
    """

    capacity_pps: float
    delay_s: float
    buffer_pkts: float = math.inf
    discipline: str = "droptail"
    name: str = ""

    def __post_init__(self) -> None:
        if self.capacity_pps <= 0:
            raise ValueError("capacity must be positive")
        if self.delay_s < 0:
            raise ValueError("delay must be non-negative")
        if self.buffer_pkts <= 0:
            raise ValueError("buffer must be positive")

    @property
    def has_queue(self) -> bool:
        """Whether the link can build a queue (finite capacity)."""
        return math.isfinite(self.capacity_pps)


@dataclass
class Path:
    """The path of one flow: an ordered list of link indices plus delay bookkeeping.

    Attributes:
        link_indices: indices into ``Network.links``, in traversal order.
        return_delay_s: propagation delay of the reverse (ACK) direction.
    """

    link_indices: tuple[int, ...]
    return_delay_s: float = 0.0
    forward_delays_s: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.link_indices:
            raise ValueError("a path needs at least one link")
        self.link_indices = tuple(self.link_indices)


class Network:
    """A set of links plus one path per flow."""

    def __init__(self, links: list[Link], paths: list[Path]) -> None:
        if not links:
            raise ValueError("network needs at least one link")
        if not paths:
            raise ValueError("network needs at least one path")
        for path in paths:
            for idx in path.link_indices:
                if not 0 <= idx < len(links):
                    raise ValueError(f"path references unknown link {idx}")
        self.links = list(links)
        self.paths = list(paths)
        self._compute_delays()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_scenario(cls, config: ScenarioConfig) -> Network:
        """Build the network a scenario describes (its effective topology).

        The queued links come first, then one unsaturated access link (pure
        delay) per flow.  Link buffers are scaled by the reference-bottleneck
        BDP; the return path is a pure propagation delay matching the
        forward path (symmetric routing).
        """
        topo = config.effective_topology()
        links: list[Link] = []
        index: dict[str, int] = {}
        for link_cfg in topo.links:
            links.append(
                Link(
                    capacity_pps=link_cfg.capacity_pps,
                    delay_s=link_cfg.delay_s,
                    buffer_pkts=config.link_buffer_packets(link_cfg),
                    discipline=link_cfg.discipline,
                    name=link_cfg.name,
                )
            )
            index[link_cfg.name] = len(links) - 1
        paths: list[Path] = []
        for i, flow in enumerate(config.flows):
            access = Link(
                capacity_pps=math.inf,
                delay_s=flow.access_delay_s,
                name=f"access-{i}",
            )
            links.append(access)
            access_idx = len(links) - 1
            forward = (access_idx,) + tuple(index[name] for name in topo.paths[i])
            return_delay = flow.access_delay_s + sum(
                topo.link(name).delay_s for name in topo.paths[i]
            )
            paths.append(Path(link_indices=forward, return_delay_s=return_delay))
        return cls(links, paths)

    # ------------------------------------------------------------------ #
    # Delay bookkeeping
    # ------------------------------------------------------------------ #

    def _compute_delays(self) -> None:
        for path in self.paths:
            cumulative = 0.0
            path.forward_delays_s = {}
            for idx in path.link_indices:
                # Forward delay d^f_{i,l}: propagation from the sender to the
                # *entrance* of link l, i.e. the sum of delays of earlier links.
                path.forward_delays_s[idx] = cumulative
                cumulative += self.links[idx].delay_s

    @property
    def num_flows(self) -> int:
        return len(self.paths)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def queued_link_indices(self) -> list[int]:
        """Indices of links whose queue dynamics must be integrated."""
        return [i for i, link in enumerate(self.links) if link.has_queue]

    def users(self, link_index: int) -> list[int]:
        """Flow indices whose path traverses ``link_index`` (the ``U_l`` of Eq. 1)."""
        return [
            i for i, path in enumerate(self.paths) if link_index in path.link_indices
        ]

    def propagation_delay(self, flow_index: int) -> float:
        """One-way forward propagation delay of a flow's path."""
        path = self.paths[flow_index]
        return sum(self.links[idx].delay_s for idx in path.link_indices)

    def propagation_rtt(self, flow_index: int) -> float:
        """Round-trip propagation delay ``d_i`` of a flow (no queueing)."""
        path = self.paths[flow_index]
        return self.propagation_delay(flow_index) + path.return_delay_s

    def forward_delay(self, flow_index: int, link_index: int) -> float:
        """Propagation delay from sender ``i`` to link ``l`` (the ``d^f_{i,l}`` of Eq. 1)."""
        path = self.paths[flow_index]
        if link_index not in path.forward_delays_s:
            raise KeyError(f"flow {flow_index} does not use link {link_index}")
        return path.forward_delays_s[link_index]

    def backward_delay(self, flow_index: int, link_index: int) -> float:
        """Propagation delay from link ``l`` back to sender ``i`` (the ``d^b_{i,l}`` of Eq. 17).

        Information about the link state reaches the sender via packets that
        still have to traverse the rest of the path and the returning ACK, so
        the backward delay is the full propagation RTT minus the forward delay.
        """
        return self.propagation_rtt(flow_index) - self.forward_delay(
            flow_index, link_index
        )

    def upstream_queued_links(self, flow_index: int, link_index: int) -> list[int]:
        """Queued links of a flow's path strictly before ``link_index``, in order."""
        out: list[int] = []
        for idx in self.paths[flow_index].link_indices:
            if idx == link_index:
                return out
            if self.links[idx].has_queue:
                out.append(idx)
        raise KeyError(f"flow {flow_index} does not use link {link_index}")

    def bottleneck_of(
        self, flow_index: int, survival: dict[int, float] | None = None
    ) -> int:
        """Index of the flow's reference bottleneck link.

        Without ``survival`` this is the smallest-*raw*-capacity queued link
        on the path (first on ties, i.e. the most upstream).  With upstream
        loss attenuation, traffic reaching a downstream link has already
        been thinned, so the link that actually caps the flow is the one
        with the smallest *effective* capacity: ``survival`` maps a queued
        link index to the probability that the flow's traffic survives all
        queued links upstream of it (``prod(1 - p_m)``), and saturating link
        ``l`` then requires a sending rate of ``C_l / survival[l]``.  The
        smallest such effective capacity wins; ties again go to the most
        upstream link, where the constraint binds first.  (The fluid
        simulator applies this rule dynamically each step from the delayed
        per-link loss state.)
        """
        path = self.paths[flow_index]
        queued = [idx for idx in path.link_indices if self.links[idx].has_queue]
        if not queued:
            raise ValueError(f"flow {flow_index} has no queued link on its path")
        if survival is None:
            return min(queued, key=lambda idx: self.links[idx].capacity_pps)
        best = queued[0]
        best_eff = math.inf
        for idx in queued:
            s = survival.get(idx, 1.0)
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"survival of link {idx} must be in [0, 1]")
            # Zero survival = the link is unreachable (everything dropped
            # upstream): infinite effective capacity, never the reference.
            eff = self.links[idx].capacity_pps / s if s > 0.0 else math.inf
            if eff < best_eff:
                best, best_eff = idx, eff
        return best

    def path_latency(self, flow_index: int, queue_lengths: dict[int, float]) -> float:
        """Round-trip latency of a flow's path given current queue lengths (Eq. 3).

        ``queue_lengths`` maps queued-link index to queue length in packets.
        """
        latency = self.paths[flow_index].return_delay_s
        for idx in self.paths[flow_index].link_indices:
            link = self.links[idx]
            latency += link.delay_s
            if link.has_queue:
                latency += queue_lengths.get(idx, 0.0) / link.capacity_pps
        return latency

    def bdp_packets(self, flow_index: int) -> float:
        """Bandwidth-delay product of a flow: bottleneck capacity times propagation RTT."""
        bottleneck = self.links[self.bottleneck_of(flow_index)]
        return units.bdp_packets(bottleneck.capacity_pps, self.propagation_rtt(flow_index))
