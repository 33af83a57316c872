"""Tests of the fluid-model network description (links, paths, dumbbell)."""

from __future__ import annotations

import math

import pytest

from repro.config import dumbbell_scenario
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


class TestDumbbell:
    def test_structure(self):
        net = simple_dumbbell(4)
        # One bottleneck plus one access link per sender.
        assert net.num_links == 5
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
        net = simple_dumbbell(1)
        base = net.path_latency(0, {0: 0.0})
        loaded = net.path_latency(0, {0: 100.0})
        assert loaded == pytest.approx(base + 100.0 / net.links[0].capacity_pps)

    def test_bdp_positive(self):
        net = simple_dumbbell(2)
        for flow in range(2):
            assert net.bdp_packets(flow) > 0

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
    """``bottleneck_of`` under upstream-survival scaling (attenuation fix)."""

    def test_raw_pick_is_smallest_capacity(self):
        net = asymmetric_parking_lot((5000.0, 4000.0, 4500.0))
        assert net.bottleneck_of(0) == 1

    def test_raw_tie_picks_most_upstream(self):
        # Ordering on ties: with equal (effective) capacities the most
        # upstream link binds first and must be the reference.
        net = asymmetric_parking_lot((4000.0, 4000.0, 4000.0))
        assert net.bottleneck_of(0) == 0
        assert net.bottleneck_of(0, survival={}) == 0

    def test_upstream_loss_shields_downstream_link(self):
        # hop-2 has the smallest raw capacity, but heavy loss at hop-1
        # thins the flow's traffic: saturating hop-2 now takes a sending
        # rate of 4000/0.7 > 5000, so hop-1 is the effective bottleneck.
        net = asymmetric_parking_lot((5000.0, 4000.0, 4500.0))
        survival = {0: 1.0, 1: 0.7, 2: 0.7}
        assert net.bottleneck_of(0, survival=survival) == 0

    def test_mild_loss_keeps_raw_bottleneck(self):
        net = asymmetric_parking_lot((5000.0, 4000.0, 4500.0))
        survival = {0: 1.0, 1: 0.99, 2: 0.99}
        assert net.bottleneck_of(0, survival=survival) == 1

    def test_effective_tie_picks_most_upstream(self):
        # 4000 / 0.8 == 5000 exactly: a tie between hop-1 and hop-2 in
        # effective capacity resolves to the upstream hop-1.
        net = asymmetric_parking_lot((5000.0, 4000.0, 4500.0))
        survival = {1: 0.8, 2: 0.8}
        assert net.bottleneck_of(0, survival=survival) == 0

    def test_invalid_survival_rejected(self):
        net = asymmetric_parking_lot()
        with pytest.raises(ValueError, match="survival"):
            net.bottleneck_of(0, survival={1: -0.1})
        with pytest.raises(ValueError, match="survival"):
            net.bottleneck_of(0, survival={1: 1.5})

    def test_zero_survival_makes_link_unreachable(self):
        # Everything dropped upstream of hop-2: it can never be the
        # reference even though its raw capacity is the smallest.
        net = asymmetric_parking_lot((5000.0, 4000.0, 4500.0))
        assert net.bottleneck_of(0, survival={1: 0.0, 2: 0.0}) == 0

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
