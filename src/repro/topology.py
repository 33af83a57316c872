"""Multi-bottleneck topology builders (parking lots, multi-dumbbells).

The paper evaluates exclusively on the dumbbell of Fig. 3 and names
multi-bottleneck topologies as future work.  This module opens that axis:
it builds :class:`~repro.config.TopologyConfig` values — named queued links
plus one link-name path per flow — that a
:class:`~repro.config.ScenarioConfig` carries alongside its flows and that
both substrates (the fluid integrator and the packet emulator) execute
natively.  Three canonical shapes are provided:

* :func:`dumbbell` — the paper's topology as a one-hop chain; useful to
  express the legacy scenarios through the topology code path (equivalence
  with the single-``bottleneck`` form is tested bit-for-bit).
* :func:`parking_lot` — a chain of ``hops`` bottleneck links.  ``long``
  flows traverse the whole chain; every hop additionally carries its own
  single-hop cross flows.  The classic multi-bottleneck fairness topology:
  long flows pay the loss/latency of every hop, cross flows only of one.
* :func:`multi_dumbbell` — several disjoint dumbbells simulated as one
  scenario, optionally coupled by ``span`` flows that traverse every
  bottleneck in series (cross-traffic between dumbbells).

Flow ordering is part of the contract (the scenario builder must list its
:class:`~repro.config.FlowConfig` entries in the same order as the returned
``paths``): long/local flows first, then per-hop cross flows / span flows,
exactly as documented on each builder.

Modeling notes shared by both substrates:

* Each flow still owns an implicit unsaturated access link
  (``FlowConfig.access_delay_s``); topology links model only the queued
  segments.  Return (ACK) paths are pure propagation delays of the same
  total length as the forward path (symmetric routing, as in the paper).
* Link buffers are expressed in multiples of the *reference* bottleneck BDP
  (reference capacity x mean propagation RTT over all flows), so a 1-BDP
  parking-lot hop holds the same number of packets at every hop.
* In the fluid substrate, per-flow path latency and loss are composed along
  the path (latency adds per-link queueing delays, loss composes as
  ``1 - prod(1 - p_l)``).  Per-link arrivals are *attenuated* along the
  path: a flow's contribution to a downstream link is its delayed sending
  rate multiplied by the survival product ``prod(1 - p_m)`` over upstream
  links and capped by the smallest upstream delivered capacity, so
  heavy-loss multi-hop regimes no longer overestimate downstream load
  (the packet emulator gets this for free; the two substrates now agree
  there).  The delivery rate (Eq. 17) is taken at the flow's *effective*
  bottleneck — the path link with the smallest survival-scaled capacity.
* Chains may be heterogeneous: ``parking_lot``/``multi_dumbbell`` accept
  per-hop capacity, delay and discipline sequences, exposed on the CLI as
  ``--hop-capacities``/``--hop-delays``/``--hop-disciplines`` comma-lists
  (validated against ``--hops``) on ``repro-bbr topology/campaign/status``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .config import LinkConfig, TopologyConfig

#: Topology presets exposed on the CLI and on the sweep's topology axis.
TOPOLOGY_PRESETS = ("dumbbell", "parking-lot", "multi-dumbbell")


def dumbbell(
    num_flows: int,
    capacity_mbps: float = 100.0,
    delay_s: float = 0.010,
    buffer_bdp: float = 1.0,
    discipline: str = "droptail",
    name: str = "bottleneck",
) -> TopologyConfig:
    """One shared bottleneck traversed by every flow (the paper's Fig. 3)."""
    if num_flows < 1:
        raise ValueError("num_flows must be positive")
    link = LinkConfig(
        capacity_mbps=capacity_mbps,
        delay_s=delay_s,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        name=name,
    )
    return TopologyConfig(
        links=(link,), paths=((name,),) * num_flows, reference=name
    )


def parking_lot(
    hops: int,
    cross_flows: int = 1,
    long_flows: int = 1,
    capacity_mbps: float | Sequence[float] = 100.0,
    hop_delay_s: float | Sequence[float] = 0.010,
    buffer_bdp: float = 1.0,
    discipline: str | Sequence[str] = "droptail",
) -> TopologyConfig:
    """A chain of ``hops`` bottlenecks with per-hop cross traffic.

    Flow order (and therefore path order): first the ``long_flows`` flows
    traversing hops ``hop-1 .. hop-<hops>`` in sequence, then for each hop
    ``h`` its ``cross_flows`` single-hop flows (path ``(hop-h,)``).

    ``capacity_mbps``, ``hop_delay_s`` and ``discipline`` may be scalars
    (homogeneous chain) or per-hop sequences; the reference bottleneck
    defaults to the smallest-capacity hop (first on ties).
    """
    if hops < 1:
        raise ValueError("hops must be positive")
    if cross_flows < 0 or long_flows < 0:
        raise ValueError("flow counts must be non-negative")
    if long_flows == 0 and cross_flows == 0:
        raise ValueError("a parking lot needs at least one flow")
    capacities = _per_hop(capacity_mbps, hops, "capacity_mbps")
    delays = _per_hop(hop_delay_s, hops, "hop_delay_s")
    disciplines = _per_hop_str(discipline, hops, "discipline")
    names = tuple(f"hop-{h + 1}" for h in range(hops))
    links = tuple(
        LinkConfig(
            capacity_mbps=capacities[h],
            delay_s=delays[h],
            buffer_bdp=buffer_bdp,
            discipline=disciplines[h],
            name=names[h],
        )
        for h in range(hops)
    )
    paths: list[tuple[str, ...]] = [names] * long_flows
    for name in names:
        paths.extend([(name,)] * cross_flows)
    return TopologyConfig(links=links, paths=tuple(paths))


def multi_dumbbell(
    dumbbells: int,
    flows_per_dumbbell: int | Sequence[int] = 2,
    span_flows: int = 0,
    capacity_mbps: float | Sequence[float] = 100.0,
    delay_s: float | Sequence[float] = 0.010,
    buffer_bdp: float = 1.0,
    discipline: str | Sequence[str] = "droptail",
) -> TopologyConfig:
    """Several disjoint dumbbells, optionally coupled by spanning flows.

    Flow order: the local flows of dumbbell 1 (``bottleneck-1``), then those
    of dumbbell 2, ..., and finally the ``span_flows`` flows traversing
    every bottleneck in series (the cross-traffic coupling that lets a
    congestion event on one dumbbell spill into the others).
    """
    if dumbbells < 1:
        raise ValueError("dumbbells must be positive")
    if span_flows < 0:
        raise ValueError("span_flows must be non-negative")
    if isinstance(flows_per_dumbbell, int):
        locals_per = [flows_per_dumbbell] * dumbbells
    else:
        locals_per = [int(n) for n in flows_per_dumbbell]
        if len(locals_per) != dumbbells:
            raise ValueError("flows_per_dumbbell must list one count per dumbbell")
    if any(n < 0 for n in locals_per):
        raise ValueError("flow counts must be non-negative")
    if sum(locals_per) + span_flows == 0:
        raise ValueError("a multi-dumbbell needs at least one flow")
    capacities = _per_hop(capacity_mbps, dumbbells, "capacity_mbps")
    delays = _per_hop(delay_s, dumbbells, "delay_s")
    disciplines = _per_hop_str(discipline, dumbbells, "discipline")
    names = tuple(f"bottleneck-{j + 1}" for j in range(dumbbells))
    links = tuple(
        LinkConfig(
            capacity_mbps=capacities[j],
            delay_s=delays[j],
            buffer_bdp=buffer_bdp,
            discipline=disciplines[j],
            name=names[j],
        )
        for j in range(dumbbells)
    )
    paths: list[tuple[str, ...]] = []
    for j in range(dumbbells):
        paths.extend([(names[j],)] * locals_per[j])
    paths.extend([names] * span_flows)
    return TopologyConfig(links=links, paths=tuple(paths))


def _per_hop(value: float | Sequence[float], count: int, what: str) -> list[float]:
    """Broadcast a scalar per-hop parameter, or validate a sequence's length."""
    if isinstance(value, (int, float)):
        return [float(value)] * count
    values = [float(v) for v in value]
    if len(values) != count:
        raise ValueError(
            f"{what} must be a scalar or one value per hop "
            f"(got {len(values)} values for {count} hops)"
        )
    return values


def _per_hop_str(value: str | Sequence[str], count: int, what: str) -> list[str]:
    """Broadcast a scalar per-hop string parameter, or validate a sequence."""
    if isinstance(value, str):
        return [value] * count
    values = [str(v) for v in value]
    if len(values) != count:
        raise ValueError(
            f"{what} must be a scalar or one value per hop "
            f"(got {len(values)} values for {count} hops)"
        )
    return values
