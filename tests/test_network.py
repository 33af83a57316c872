"""Tests of the fluid-model network description (links, paths, dumbbell)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import dumbbell_scenario
from repro.core import simulate
from repro.core.network import Link, Network, Path


def simple_dumbbell(num_flows: int = 3) -> Network:
    config = dumbbell_scenario(["bbr1"] * num_flows, rtt_range_s=(0.030, 0.040))
    return Network.from_scenario(config)


class TestLink:
    def test_queued_link_detection(self):
        assert Link(capacity_pps=1000.0, delay_s=0.01, buffer_pkts=100).has_queue
        assert not Link(capacity_pps=math.inf, delay_s=0.01).has_queue

    def test_validation(self):
        with pytest.raises(ValueError):
            Link(capacity_pps=0.0, delay_s=0.01)
        with pytest.raises(ValueError):
            Link(capacity_pps=100.0, delay_s=-0.01)
        with pytest.raises(ValueError):
            Link(capacity_pps=100.0, delay_s=0.01, buffer_pkts=0.0)

    def test_unknown_discipline_rejected(self):
        # The integrator knows drop-tail and RED only; any other name would
        # otherwise be integrated as RED.
        with pytest.raises(ValueError, match="codel"):
            Link(capacity_pps=100.0, delay_s=0.01, buffer_pkts=10.0, discipline="codel")


class TestDumbbell:
    def test_structure(self):
        net = simple_dumbbell(4)
        # One bottleneck plus one access link per sender.
        assert len(net.links) == 5
        assert net.num_flows == 4
        assert net.queued_link_indices() == [0]
        assert net.users(0) == [0, 1, 2, 3]

    def test_bottleneck_identification(self):
        net = simple_dumbbell(2)
        for flow in range(2):
            assert net.bottleneck_of(flow) == 0

    def test_propagation_rtt_matches_config(self):
        config = dumbbell_scenario(["reno"] * 5, rtt_range_s=(0.030, 0.040))
        net = Network.from_scenario(config)
        for i in range(5):
            assert net.propagation_rtt(i) == pytest.approx(config.rtt_s(i), abs=1e-12)

    def test_forward_plus_backward_delay_is_rtt(self):
        net = simple_dumbbell(3)
        for flow in range(3):
            bottleneck = net.bottleneck_of(flow)
            total = net.forward_delay(flow, bottleneck) + net.backward_delay(flow, bottleneck)
            assert total == pytest.approx(net.propagation_rtt(flow), abs=1e-12)

    def test_path_latency_includes_queueing(self):
        # Eq. 3: the recorded RTT is the propagation RTT plus the
        # bottleneck's queueing delay at the same instant.
        config = dumbbell_scenario(["bbr1"], rtt_range_s=(0.030, 0.030), duration_s=0.5)
        net = Network.from_scenario(config)
        trace = simulate(config)
        queue = trace.links[0].queue
        assert queue.max() > 0.0
        np.testing.assert_allclose(
            trace.flows[0].rtt,
            net.propagation_rtt(0) + queue / net.links[0].capacity_pps,
            rtol=1e-12,
        )

    def test_unknown_link_in_forward_delay(self):
        net = simple_dumbbell(1)
        with pytest.raises(KeyError):
            net.forward_delay(0, 99)


def asymmetric_parking_lot(capacities_pps=(5000.0, 4000.0, 4000.0)) -> Network:
    """One long flow over a chain of queued hops (no access link needed)."""
    links = [
        Link(capacity_pps=c, delay_s=0.002, buffer_pkts=100.0, name=f"hop-{i + 1}")
        for i, c in enumerate(capacities_pps)
    ]
    path = Path(link_indices=tuple(range(len(links))), return_delay_s=0.006)
    return Network(links, [path])


class TestEffectiveBottleneck:
    """``bottleneck_of``'s raw pick and the upstream-link helper.

    The effective (survival-scaled) bottleneck is picked by the fluid step
    and pinned by the multi-hop fluid goldens and ``test_attenuation.py``.
    """

    def test_raw_pick_is_smallest_capacity(self):
        net = asymmetric_parking_lot((5000.0, 4000.0, 4500.0))
        assert net.bottleneck_of(0) == 1

    def test_raw_tie_picks_most_upstream(self):
        # Ordering on ties: with equal capacities the most
        # upstream link binds first and must be the reference.
        net = asymmetric_parking_lot((4000.0, 4000.0, 4000.0))
        assert net.bottleneck_of(0) == 0

    def test_upstream_queued_links(self):
        net = asymmetric_parking_lot()
        assert net.upstream_queued_links(0, 0) == []
        assert net.upstream_queued_links(0, 2) == [0, 1]
        with pytest.raises(KeyError):
            net.upstream_queued_links(0, 99)


class TestValidation:
    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network([], [])

    def test_dangling_path_rejected(self):
        link = Link(capacity_pps=1000.0, delay_s=0.01, buffer_pkts=10)
        with pytest.raises(ValueError):
            Network([link], [Path(link_indices=(3,))])

    def test_path_needs_links(self):
        with pytest.raises(ValueError):
            Path(link_indices=())

    def test_flow_without_queued_link_has_no_bottleneck(self):
        access = Link(capacity_pps=math.inf, delay_s=0.01)
        net = Network([access], [Path(link_indices=(0,), return_delay_s=0.01)])
        with pytest.raises(ValueError):
            net.bottleneck_of(0)
