"""Trace containers shared by the fluid model and the packet-level emulator.

Both substrates produce a :class:`Trace`: a common time grid, one
:class:`FlowTrace` per sender (sending rate, delivery rate, congestion
window, inflight, RTT, plus model-specific extras) and one
:class:`LinkTrace` per queued link (queue length, loss probability, arrival
and departure rates).  All aggregate metrics of the paper's evaluation
(Figs. 6-10 and 13-17) are computed from these containers, so the fluid
model and the emulator are compared on exactly the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FlowTrace:
    """Time series describing one flow.

    All arrays are aligned with the parent :class:`Trace.time` grid.
    Rates are packets/second; windows and inflight are packets; RTT seconds.

    ``delivery_rate`` is always recorded.  A fluid run that records only
    some series (``series=`` of :func:`~repro.core.simulate_many`; a
    campaign keeps only what :func:`~repro.metrics.aggregate_metrics`
    reads) leaves every other series ``None`` and keeps only the selected
    ``extras``: ``None`` means "not recorded", never a placeholder, so a
    reader that needs such a series fails instead of computing on it.

    ``start_time_s``/``end_time_s`` record the flow's lifetime under a
    :class:`~repro.config.FlowSchedule`: when it started sending and when
    it departed (finite-size completion or on/off switch-off) — ``None``
    means the flow was still active at the end of the run.  The flow
    completion time is ``end_time_s - start_time_s``.  Long-lived legacy
    flows keep the defaults (started at their configured time, never
    departed).
    """

    cca: str
    rate: np.ndarray | None
    delivery_rate: np.ndarray
    cwnd: np.ndarray | None
    inflight: np.ndarray | None
    rtt: np.ndarray | None
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    start_time_s: float = 0.0
    end_time_s: float | None = None

    def __post_init__(self) -> None:
        lengths = {
            len(series)
            for series in (self.rate, self.delivery_rate, self.cwnd, self.inflight, self.rtt)
            if series is not None
        }
        if len(lengths) != 1:
            raise ValueError("flow trace arrays must have equal length")

    def mean_rate(self) -> float:
        """Time-average sending rate in packets/second."""
        rate = _recorded(self.rate, "rate")
        return float(np.mean(rate)) if len(rate) else 0.0

    def mean_goodput(self) -> float:
        """Time-average delivery rate in packets/second."""
        return float(np.mean(self.delivery_rate)) if len(self.delivery_rate) else 0.0


def _recorded(series: np.ndarray | None, name: str) -> np.ndarray:
    """``series``, or a ``ValueError`` naming it when it was not recorded."""
    if series is None:
        raise ValueError(f"the trace did not record the {name!r} series")
    return series


@dataclass
class LinkTrace:
    """Time series describing one queued link."""

    name: str
    capacity_pps: float
    buffer_pkts: float
    queue: np.ndarray
    loss_prob: np.ndarray
    arrival_rate: np.ndarray
    departure_rate: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            len(self.queue),
            len(self.loss_prob),
            len(self.arrival_rate),
            len(self.departure_rate),
        }
        if len(lengths) != 1:
            raise ValueError("link trace arrays must have equal length")
        if self.capacity_pps <= 0:
            raise ValueError("capacity must be positive")

    def mean_occupancy(self) -> float:
        """Time-average queue occupancy as a fraction of the buffer size."""
        if not len(self.queue) or not np.isfinite(self.buffer_pkts):
            return 0.0
        return float(np.mean(self.queue) / self.buffer_pkts)

    def utilization(self) -> float:
        """Time-average departure rate as a fraction of capacity."""
        if not len(self.departure_rate):
            return 0.0
        return float(np.mean(self.departure_rate) / self.capacity_pps)

    def loss_fraction(self) -> float:
        """Fraction of arriving traffic lost at this link."""
        arrived = float(np.sum(self.arrival_rate))
        if arrived <= 0:
            return 0.0
        lost = float(np.sum(self.arrival_rate * self.loss_prob))
        return lost / arrived


@dataclass
class Trace:
    """A full simulation or emulation run."""

    time: np.ndarray
    flows: list[FlowTrace]
    links: list[LinkTrace]
    substrate: str = "fluid"

    def __post_init__(self) -> None:
        for flow in self.flows:
            if len(flow.delivery_rate) != len(self.time):
                raise ValueError("flow trace length does not match the time grid")
        for link in self.links:
            if len(link.queue) != len(self.time):
                raise ValueError("link trace length does not match the time grid")

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    @property
    def duration(self) -> float:
        return float(self.time[-1] - self.time[0]) if len(self.time) > 1 else 0.0

    @property
    def dt(self) -> float:
        """Sampling interval of the trace grid."""
        if len(self.time) < 2:
            raise ValueError("trace too short to have a sampling interval")
        return float(self.time[1] - self.time[0])

    @property
    def nbytes(self) -> int:
        """Bytes of the recorded series: the time grid and every distinct
        flow and link array (a series that is also an extra counts once)."""
        arrays = {id(self.time): self.time}
        for flow in self.flows:
            for series in (
                flow.rate, flow.delivery_rate, flow.cwnd, flow.inflight, flow.rtt,
                *flow.extras.values(),
            ):
                if series is not None:
                    arrays[id(series)] = series
        for link in self.links:
            for series in (
                link.queue, link.loss_prob, link.arrival_rate, link.departure_rate
            ):
                arrays[id(series)] = series
        return sum(series.nbytes for series in arrays.values())

    def bottleneck(self) -> LinkTrace:
        """The trace of the bottleneck link (smallest capacity)."""
        if not self.links:
            raise ValueError("trace has no link data")
        return min(self.links, key=lambda link: link.capacity_pps)

    def after(self, t_start: float) -> Trace:
        """Restrict the trace to ``time >= t_start`` (e.g. to drop a warm-up)."""
        mask = self.time >= t_start
        if not np.any(mask):
            raise ValueError("t_start is beyond the end of the trace")
        flows = [
            FlowTrace(
                cca=f.cca,
                rate=None if f.rate is None else f.rate[mask],
                delivery_rate=f.delivery_rate[mask],
                cwnd=None if f.cwnd is None else f.cwnd[mask],
                inflight=None if f.inflight is None else f.inflight[mask],
                rtt=None if f.rtt is None else f.rtt[mask],
                extras={k: v[mask] for k, v in f.extras.items()},
                start_time_s=f.start_time_s,
                end_time_s=f.end_time_s,
            )
            for f in self.flows
        ]
        links = [
            LinkTrace(
                name=link.name,
                capacity_pps=link.capacity_pps,
                buffer_pkts=link.buffer_pkts,
                queue=link.queue[mask],
                loss_prob=link.loss_prob[mask],
                arrival_rate=link.arrival_rate[mask],
                departure_rate=link.departure_rate[mask],
            )
            for link in self.links
        ]
        return Trace(time=self.time[mask], flows=flows, links=links, substrate=self.substrate)

    def normalized_rows(self) -> dict[str, np.ndarray]:
        """Paper-style normalised series for trace figures (Figs. 4, 5, 11, 12).

        Returns the bottleneck-normalised aggregate sending rate (% of link
        rate), queue (% of buffer), loss (%), and the relative excess RTT (%)
        of the first flow — the quantities plotted in the validation figures.
        """
        bottleneck = self.bottleneck()
        total_rate = np.sum([_recorded(f.rate, "rate") for f in self.flows], axis=0)
        rate_pct = 100.0 * total_rate / bottleneck.capacity_pps
        if np.isfinite(bottleneck.buffer_pkts) and bottleneck.buffer_pkts > 0:
            queue_pct = 100.0 * bottleneck.queue / bottleneck.buffer_pkts
        else:
            queue_pct = np.zeros_like(bottleneck.queue)
        loss_pct = 100.0 * bottleneck.loss_prob
        rtt = _recorded(self.flows[0].rtt, "rtt")
        base_rtt = float(np.min(rtt)) if len(rtt) else 0.0
        if base_rtt > 0:
            rtt_pct = 100.0 * (rtt - base_rtt) / base_rtt
        else:
            rtt_pct = np.zeros_like(rtt)
        return {
            "time": self.time,
            "rate_pct": rate_pct,
            "queue_pct": queue_pct,
            "loss_pct": loss_pct,
            "rtt_excess_pct": rtt_pct,
        }


def resample(time: np.ndarray, values: np.ndarray, new_time: np.ndarray) -> np.ndarray:
    """Linearly resample a series onto a new time grid (used for jitter sampling)."""
    if len(time) != len(values):
        raise ValueError("time and values must have equal length")
    if len(time) == 0:
        return np.zeros_like(new_time)
    return np.interp(new_time, time, values)
