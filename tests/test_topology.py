"""Tests of the multi-bottleneck topology subsystem.

Covers the :class:`~repro.config.TopologyConfig` layer and its builders,
the equivalence contract (a one-hop topology dumbbell must be *bit-identical*
to the legacy single-bottleneck form on the fluid substrate and
count-identical on the emulator, under both schedulers), multi-hop behaviour
on both substrates, and the topology axis of the sweep/store layer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import topology
from repro.config import (
    FlowConfig,
    FluidParams,
    LinkConfig,
    ScenarioConfig,
    TopologyConfig,
    dumbbell_scenario,
)
from repro.core import Network, simulate
from repro.core.simulator import simulate_many
from repro.emulation import EmulationRunner
from repro.emulation.runner import UNBOUNDED_BUFFER_BDP, emulate
from repro.experiments import scenarios, sweep
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore, scenario_key
from repro.metrics import link_metrics

FAST = FluidParams(dt=1e-3)


def _wrap_one_hop(config: ScenarioConfig) -> ScenarioConfig:
    """Re-express a legacy dumbbell scenario through an explicit one-hop topology."""
    topo = topology.dumbbell(
        config.num_flows,
        capacity_mbps=config.bottleneck.capacity_mbps,
        delay_s=config.bottleneck.delay_s,
        buffer_bdp=config.bottleneck.buffer_bdp,
        discipline=config.bottleneck.discipline,
    )
    return ScenarioConfig(
        bottleneck=None,
        flows=config.flows,
        duration_s=config.duration_s,
        fluid=config.fluid,
        seed=config.seed,
        topology=topo,
    )


def _parking_lot_config(duration_s: float = 0.5, discipline: str = "droptail"):
    topo = topology.parking_lot(
        3, cross_flows=1, long_flows=2, hop_delay_s=0.010 / 3, discipline=discipline
    )
    flows = tuple(
        FlowConfig(cca=cca, access_delay_s=0.005)
        for cca in ("bbr1", "reno", "cubic", "bbr2", "reno")
    )
    return ScenarioConfig(
        bottleneck=None, flows=flows, duration_s=duration_s, fluid=FAST, topology=topo
    )


class TestTopologyConfig:
    def test_requires_named_links(self):
        with pytest.raises(ValueError, match="non-empty name"):
            TopologyConfig(
                links=(LinkConfig(100.0, 0.01),), paths=(("bottleneck",),)
            )

    def test_rejects_duplicate_names(self):
        link = LinkConfig(100.0, 0.01, name="a")
        with pytest.raises(ValueError, match="duplicate"):
            TopologyConfig(links=(link, link), paths=(("a",),))

    def test_rejects_unknown_path_links(self):
        link = LinkConfig(100.0, 0.01, name="a")
        with pytest.raises(ValueError, match="unknown links"):
            TopologyConfig(links=(link,), paths=(("b",),))

    def test_rejects_loops_in_path(self):
        link = LinkConfig(100.0, 0.01, name="a")
        with pytest.raises(ValueError, match="twice"):
            TopologyConfig(links=(link,), paths=(("a", "a"),))

    def test_reference_defaults_to_smallest_capacity(self):
        links = (
            LinkConfig(100.0, 0.01, name="fat"),
            LinkConfig(50.0, 0.01, name="thin"),
        )
        topo = TopologyConfig(links=links, paths=(("fat", "thin"),))
        assert topo.reference == "thin"
        assert topo.reference_link.capacity_mbps == 50.0

    def test_with_buffer_and_discipline_map_every_link(self):
        topo = topology.parking_lot(3)
        deep = topo.with_buffer(7.0)
        red = topo.with_discipline("red")
        assert all(link.buffer_bdp == 7.0 for link in deep.links)
        assert all(link.discipline == "red" for link in red.links)

    def test_scenario_path_count_must_match_flows(self):
        topo = topology.dumbbell(3)
        with pytest.raises(ValueError, match="paths"):
            ScenarioConfig(
                bottleneck=None, flows=(FlowConfig(cca="reno"),), topology=topo
            )

    def test_scenario_needs_bottleneck_or_topology(self):
        with pytest.raises(ValueError, match="bottleneck or a topology"):
            ScenarioConfig(bottleneck=None, flows=(FlowConfig(cca="reno"),))

    def test_bottleneck_mirrors_reference_link(self):
        config = _parking_lot_config()
        assert config.bottleneck == config.topology.reference_link

    def test_path_aware_rtt(self):
        config = _parking_lot_config()
        # Long flow crosses the whole 10 ms chain; cross flow one hop.
        assert config.rtt_s(0) == pytest.approx(2 * (0.005 + 0.010))
        assert config.rtt_s(2) == pytest.approx(2 * (0.005 + 0.010 / 3))

    def test_per_link_buffers_scale_with_reference_bdp(self):
        config = _parking_lot_config()
        ref_bdp = config.bottleneck_bdp_packets()
        for link in config.topology.links:
            assert config.link_buffer_packets(link.name) == pytest.approx(ref_bdp)

    def test_effective_topology_of_legacy_config(self):
        config = dumbbell_scenario(["reno", "bbr1"])
        topo = config.effective_topology()
        assert topo.num_links == 1
        assert topo.links[0].name == "bottleneck"
        assert topo.paths == (("bottleneck",), ("bottleneck",))


class TestBuilders:
    def test_parking_lot_shape(self):
        topo = topology.parking_lot(3, cross_flows=2, long_flows=1)
        assert topo.link_names == ("hop-1", "hop-2", "hop-3")
        assert topo.paths[0] == ("hop-1", "hop-2", "hop-3")
        assert topo.paths[1:3] == (("hop-1",), ("hop-1",))
        assert topo.paths[5:7] == (("hop-3",), ("hop-3",))
        assert len(topo.paths) == 1 + 3 * 2

    def test_parking_lot_heterogeneous_capacities(self):
        topo = topology.parking_lot(2, capacity_mbps=(100.0, 50.0))
        assert topo.reference == "hop-2"

    def test_multi_dumbbell_shape(self):
        topo = topology.multi_dumbbell(2, flows_per_dumbbell=2, span_flows=1)
        assert topo.link_names == ("bottleneck-1", "bottleneck-2")
        assert topo.paths[:2] == (("bottleneck-1",), ("bottleneck-1",))
        assert topo.paths[2:4] == (("bottleneck-2",), ("bottleneck-2",))
        assert topo.paths[4] == ("bottleneck-1", "bottleneck-2")

    def test_multi_dumbbell_scenario_more_dumbbells_than_mix_flows(self):
        # Regression: 12 dumbbells over a 10-flow mix used to crash in
        # spread_access_delays on the empty local groups; the surplus
        # dumbbells must simply carry only spanning traffic.
        config = scenarios.multi_dumbbell_scenario("BBRv1", dumbbells=12, span_flows=2)
        assert config.num_flows == 12
        assert config.topology.num_links == 12
        span_paths = config.topology.paths[-2:]
        assert all(len(path) == 12 for path in span_paths)

    def test_fair_share_window_tracks_capacity(self):
        # Regression: the fair-share initial window used to hard-code
        # 100 Mbps regardless of the capacity argument.
        slow = scenarios.parking_lot_scenario("BBRv1", capacity_mbps=10.0)
        fast = scenarios.parking_lot_scenario("BBRv1", capacity_mbps=100.0)
        assert slow.fluid.loss_based_init_window_pkts == pytest.approx(
            max(10.0, fast.fluid.loss_based_init_window_pkts / 10.0)
        )

    def test_per_hop_disciplines(self):
        topo = topology.parking_lot(3, discipline=("red", "droptail", "red"))
        assert [link.discipline for link in topo.links] == ["red", "droptail", "red"]
        md = topology.multi_dumbbell(2, discipline=("droptail", "red"))
        assert [link.discipline for link in md.links] == ["droptail", "red"]

    def test_per_hop_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one value per hop"):
            topology.parking_lot(3, capacity_mbps=(100.0, 50.0))
        with pytest.raises(ValueError, match="one value per hop"):
            topology.parking_lot(3, discipline=("red", "droptail"))
        with pytest.raises(ValueError, match="one value per hop"):
            topology.multi_dumbbell(2, delay_s=(0.01, 0.01, 0.01))

    def test_network_from_topology_layout(self):
        config = _parking_lot_config()
        net = Network.from_scenario(config)
        assert net.queued_link_indices() == [0, 1, 2]
        assert net.num_flows == 5
        # Long flow: access link then the whole chain.
        assert net.paths[0].link_indices == (3, 0, 1, 2)
        # Cross flow on hop 2: access link then that hop only.
        assert net.paths[3].link_indices == (6, 1)
        assert net.propagation_rtt(0) == pytest.approx(config.rtt_s(0))


class TestHeterogeneousScenarios:
    def test_parking_lot_reference_follows_smallest_capacity(self):
        config = scenarios.parking_lot_scenario(
            "BBRv1", hops=3, capacity_mbps=(100.0, 25.0, 50.0)
        )
        assert config.topology.reference == "hop-2"
        assert config.bottleneck.capacity_mbps == 25.0
        # Fair-share initial window follows the reference capacity, not the
        # 100 Mbps first hop.
        homogeneous = scenarios.parking_lot_scenario("BBRv1", hops=3, capacity_mbps=25.0)
        assert config.fluid.loss_based_init_window_pkts == pytest.approx(
            homogeneous.fluid.loss_based_init_window_pkts
        )

    def test_parking_lot_per_hop_delays(self):
        config = scenarios.parking_lot_scenario(
            "BBRv1", hops=3, cross_flows=1, hop_delays_s=(0.002, 0.006, 0.002)
        )
        assert [link.delay_s for link in config.topology.links] == [0.002, 0.006, 0.002]
        # Long flows span the 10 ms chain; each hop's cross flow sees that
        # hop's own delay, so the hop-2 cross flow has the same RTT spread
        # but a different access delay than hop-1's.
        long_rtt = config.rtt_s(0)
        assert long_rtt == pytest.approx(2 * (config.flows[0].access_delay_s + 0.010))
        cross_hop1, cross_hop2 = config.flows[10], config.flows[11]
        assert cross_hop1.access_delay_s != cross_hop2.access_delay_s

    def test_parking_lot_scalar_arguments_unchanged(self):
        # The heterogeneous plumbing must not disturb the homogeneous form.
        a = scenarios.parking_lot_scenario("BBRv1", hops=3)
        b = scenarios.parking_lot_scenario("BBRv1", hops=3, capacity_mbps=100.0)
        assert a == b

    def test_multi_dumbbell_heterogeneous(self):
        config = scenarios.multi_dumbbell_scenario(
            "BBRv1",
            dumbbells=2,
            span_flows=1,
            capacity_mbps=(100.0, 50.0),
            bottleneck_delay_s=(0.005, 0.015),
            discipline=("droptail", "red"),
        )
        links = config.topology.links
        assert [link.capacity_mbps for link in links] == [100.0, 50.0]
        assert [link.delay_s for link in links] == [0.005, 0.015]
        assert [link.discipline for link in links] == ["droptail", "red"]
        assert config.topology.reference == "bottleneck-2"
        # The spanning flow crosses both dumbbells: 20 ms one-way floor.
        span_index = config.num_flows - 1
        assert config.rtt_s(span_index) >= 2 * 0.020

    def test_topology_scenario_threads_hop_axis(self):
        config = scenarios.topology_scenario(
            "parking-lot",
            hops=2,
            hop_capacities=(100.0, 50.0),
            hop_delays=(0.004, 0.006),
            hop_disciplines=("red", "droptail"),
        )
        links = config.topology.links
        assert [link.capacity_mbps for link in links] == [100.0, 50.0]
        assert [link.delay_s for link in links] == [0.004, 0.006]
        assert [link.discipline for link in links] == ["red", "droptail"]

    def test_validate_hop_axis_errors(self):
        with pytest.raises(ValueError, match="hop_capacities lists 2"):
            scenarios.validate_hop_axis(3, hop_capacities=(100.0, 50.0))
        with pytest.raises(ValueError, match="must be positive"):
            scenarios.validate_hop_axis(2, hop_capacities=(100.0, 0.0))
        with pytest.raises(ValueError, match="must be positive"):
            scenarios.validate_hop_axis(2, hop_delays=(0.01, -0.01))
        with pytest.raises(ValueError, match="unknown hop_disciplines"):
            scenarios.validate_hop_axis(2, hop_disciplines=("red", "codel"))
        with pytest.raises(ValueError, match="dumbbell"):
            scenarios.validate_hop_axis(
                2, hop_capacities=(100.0, 50.0), preset="dumbbell"
            )
        with pytest.raises(ValueError, match="dumbbell"):
            scenarios.topology_scenario("dumbbell", hops=2, hop_delays=(0.01, 0.01))

    def test_both_substrates_run_heterogeneous_chain(self):
        config = scenarios.topology_scenario(
            "parking-lot",
            hops=2,
            hop_capacities=(100.0, 50.0),
            hop_disciplines=("droptail", "red"),
            duration_s=0.5,
            dt=1e-3,
        )
        fluid = simulate(config)
        emu = emulate(config)
        for trace in (fluid, emu):
            assert [link.name for link in trace.links] == ["hop-1", "hop-2"]
            caps = [link.capacity_pps for link in trace.links]
            assert caps[0] == pytest.approx(2 * caps[1])


class TestOneHopEquivalence:
    """A one-hop topology must reproduce the legacy dumbbell exactly."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_fluid_bit_identical(self, vectorized):
        legacy = dumbbell_scenario(
            ["bbr1", "reno", "cubic", "bbr2"], duration_s=0.5, fluid=FAST
        )
        wrapped = _wrap_one_hop(legacy)
        a = simulate(legacy, vectorized=vectorized)
        b = simulate(wrapped, vectorized=vectorized)
        for fa, fb in zip(a.flows, b.flows, strict=True):
            assert np.array_equal(fa.rate, fb.rate)
            assert np.array_equal(fa.delivery_rate, fb.delivery_rate)
            assert np.array_equal(fa.rtt, fb.rtt)
            assert np.array_equal(fa.cwnd, fb.cwnd)
        assert np.array_equal(a.links[0].queue, b.links[0].queue)
        assert np.array_equal(a.links[0].loss_prob, b.links[0].loss_prob)

    @pytest.mark.parametrize("scheduler", ["delayline", "closure"])
    @pytest.mark.parametrize("discipline", ["droptail", "red"])
    def test_emulator_count_identical(self, scheduler, discipline):
        legacy = dumbbell_scenario(
            ["bbr1", "reno"], duration_s=1.0, discipline=discipline, seed=5
        )
        wrapped = _wrap_one_hop(legacy)
        ra = EmulationRunner(legacy, scheduler=scheduler)
        rb = EmulationRunner(wrapped, scheduler=scheduler)
        ta = ra.run()
        tb = rb.run()
        for i in ra.senders:
            assert ra.senders[i].sent_count == rb.senders[i].sent_count
            assert ra.senders[i].delivered_count == rb.senders[i].delivered_count
            assert ra.senders[i].lost_count == rb.senders[i].lost_count
        assert ra.bottleneck.queue.enqueued == rb.bottleneck.queue.enqueued
        assert ra.bottleneck.queue.dropped == rb.bottleneck.queue.dropped
        assert ra.bottleneck.transmitted == rb.bottleneck.transmitted
        for fa, fb in zip(ta.flows, tb.flows, strict=True):
            assert np.array_equal(fa.rate, fb.rate)
        assert np.array_equal(ta.links[0].queue, tb.links[0].queue)

    def test_link_names_agree_across_substrates(self):
        # Both substrates build from the effective topology, so a named
        # legacy bottleneck reports the same link name on each.
        base = dumbbell_scenario(["bbr1", "reno"], duration_s=0.1, fluid=FAST)
        config = ScenarioConfig(
            bottleneck=LinkConfig(
                base.bottleneck.capacity_mbps, base.bottleneck.delay_s, name="core"
            ),
            flows=base.flows,
            duration_s=base.duration_s,
            fluid=base.fluid,
        )
        fluid = [link.name for link in simulate(config).links]
        emulated = [link.name for link in emulate(config).links]
        assert fluid == emulated == ["core"]


class TestFluidMultiHop:
    def test_vectorized_matches_scalar(self):
        config = _parking_lot_config()
        a = simulate(config)
        b = simulate(config, vectorized=False)
        for fa, fb in zip(a.flows, b.flows, strict=True):
            np.testing.assert_allclose(fa.rate, fb.rate, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(fa.rtt, fb.rtt, rtol=1e-9, atol=1e-9)
        for la, lb in zip(a.links, b.links, strict=True):
            np.testing.assert_allclose(la.queue, lb.queue, rtol=1e-9, atol=1e-9)

    def test_one_link_trace_per_hop(self):
        trace = simulate(_parking_lot_config())
        assert [link.name for link in trace.links] == ["hop-1", "hop-2", "hop-3"]
        for link in trace.links:
            assert np.all(np.isfinite(link.queue))
            assert np.all((link.loss_prob >= 0) & (link.loss_prob <= 1))

    def test_long_flow_rtt_includes_every_hop_queue(self):
        trace = simulate(_parking_lot_config(duration_s=1.0))
        # The long flow's RTT floor is the full-chain propagation RTT and
        # grows with queueing on all three hops; the cross flow only sees
        # one hop's queue, so its RTT stays strictly below the long flow's.
        assert float(np.max(trace.flows[0].rtt)) > float(np.max(trace.flows[2].rtt))

    def test_simulate_many_handles_topology_scenarios(self):
        config = _parking_lot_config()
        deep = config.with_buffer(4.0)
        batched = simulate_many([config, deep])
        alone = [simulate(config), simulate(deep)]
        for t_batch, t_alone in zip(batched, alone, strict=True):
            assert len(t_batch.links) == 3
            for fa, fb in zip(t_batch.flows, t_alone.flows, strict=True):
                np.testing.assert_allclose(fa.rate, fb.rate, rtol=1e-9, atol=1e-9)


class TestEmulatorMultiHop:
    def test_per_link_traces_and_conservation(self):
        config = _parking_lot_config(duration_s=1.5)
        runner = EmulationRunner(config)
        trace = runner.run()
        assert [link.name for link in trace.links] == ["hop-1", "hop-2", "hop-3"]
        sent = sum(s.sent_count for s in runner.senders.values())
        delivered = sum(s.delivered_count for s in runner.senders.values())
        assert 0 < delivered <= sent
        # Conservation per hop: packets transmitted downstream never exceed
        # what the hop admitted.
        for link in runner.links:
            assert link.transmitted <= link.queue.enqueued

    def test_deterministic_given_seed(self):
        config = _parking_lot_config(duration_s=1.0)
        a = emulate(config)
        b = emulate(config)
        for fa, fb in zip(a.flows, b.flows, strict=True):
            assert np.array_equal(fa.rate, fb.rate)
        for la, lb in zip(a.links, b.links, strict=True):
            assert np.array_equal(la.queue, lb.queue)

    def test_per_link_red_rng_streams_differ(self):
        config = _parking_lot_config(duration_s=1.0, discipline="red")
        runner = EmulationRunner(config)
        rngs = [link.queue._rng.random() for link in runner.links]
        assert len(set(rngs)) == len(rngs)

    def test_closure_scheduler_rejected_on_multi_hop(self):
        with pytest.raises(ValueError, match="delayline"):
            EmulationRunner(_parking_lot_config(), scheduler="closure")

    def test_link_names_agree_with_fluid(self):
        config = _parking_lot_config(duration_s=0.1)
        fluid = [link.name for link in simulate(config).links]
        emulated = [link.name for link in emulate(config).links]
        assert fluid == emulated == ["hop-1", "hop-2", "hop-3"]

    def test_link_metrics_per_hop(self):
        trace = emulate(_parking_lot_config(duration_s=1.0))
        metrics = link_metrics(trace)
        assert [m.name for m in metrics] == ["hop-1", "hop-2", "hop-3"]
        for m in metrics:
            assert 0.0 <= m.utilization_percent <= 100.0
            assert 0.0 <= m.loss_percent <= 100.0

    def test_report_link_table(self):
        from repro.experiments import report

        trace = emulate(_parking_lot_config(duration_s=0.5))
        table = report.link_table(link_metrics(trace))
        assert "hop-1" in table and "hop-3" in table
        assert "capacity_mbps" in table and "utilization_percent" in table
        rows = report.link_rows(link_metrics(trace))
        assert rows[0]["capacity_mbps"] == pytest.approx(100.0)


class TestUnboundedBuffer:
    def test_infinite_buffer_never_drops(self):
        config = dumbbell_scenario(
            ["reno", "cubic"], buffer_bdp=math.inf, duration_s=2.0
        )
        runner = EmulationRunner(config)
        runner.run()
        assert runner.bottleneck.queue.dropped == 0

    def test_infinite_buffer_holds_unbounded_buffer_bdp(self):
        unbounded = EmulationRunner(
            dumbbell_scenario(["reno"], buffer_bdp=math.inf, duration_s=0.1)
        )
        finite = EmulationRunner(
            dumbbell_scenario(["reno"], buffer_bdp=UNBOUNDED_BUFFER_BDP, duration_s=0.1)
        )
        assert unbounded.bottleneck.queue.capacity_pkts == finite.bottleneck.queue.capacity_pkts

    def test_every_unbounded_hop_gets_the_same_cap(self):
        config = _parking_lot_config(duration_s=0.1)
        unbounded = EmulationRunner(config.with_buffer(math.inf))
        finite = EmulationRunner(config.with_buffer(UNBOUNDED_BUFFER_BDP))
        caps = [link.queue.capacity_pkts for link in unbounded.links]
        assert caps == [link.queue.capacity_pkts for link in finite.links]
        assert len(set(caps)) == 1

    def test_finite_buffers_scale_with_buffer_bdp(self):
        small, large = (
            EmulationRunner(dumbbell_scenario(["reno"], buffer_bdp=bdp, duration_s=0.1))
            .bottleneck.queue.capacity_pkts
            for bdp in (2.0, 8.0)
        )
        assert large / small == pytest.approx(4.0, rel=1e-2)


class TestTopologySweep:
    @pytest.fixture(autouse=True)
    def _clear_cache(self):
        sweep.clear_cache()
        yield
        sweep.clear_cache()

    def test_scenario_key_is_topology_aware(self):
        dumbbell_cfg = scenarios.aggregate_scenario("BBRv1", 1.0, "droptail")
        lot_cfg = scenarios.parking_lot_scenario("BBRv1", buffer_bdp=1.0)
        assert scenario_key(dumbbell_cfg, "emulation") != scenario_key(
            lot_cfg, "emulation"
        )
        other_hops = scenarios.parking_lot_scenario("BBRv1", hops=4, buffer_bdp=1.0)
        assert scenario_key(lot_cfg, "emulation") != scenario_key(
            other_hops, "emulation"
        )

    @staticmethod
    def _point(store=None, buffers_bdp=(1.0,), disciplines=("droptail",), **axes):
        grid = GridSpec(mixes=["BBRv1"], buffers_bdp=buffers_bdp, disciplines=disciplines, **axes)
        return sweep.run_campaign(grid, store=store).points

    def test_parking_lot_point_round_trips_through_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        kwargs = dict(
            substrate="emulation",
            duration_s=0.5,
            dt=1e-3,
            topology="parking-lot",
            hops=3,
            cross_flows=1,
        )
        (first,) = self._point(store=path, **kwargs)
        sweep.clear_cache()
        store = SweepStore(path)
        assert len(store) == 1
        (second,) = self._point(store=store, **kwargs)
        assert store.hits == 1
        assert first.metrics == second.metrics
        (meta,) = [r["meta"] for r in store.records() if r["meta"].get("topology") == "parking-lot"]
        assert meta["hops"] == 3 and meta["cross_flows"] == 1

    def test_topology_cache_key_distinct_from_dumbbell(self):
        kwargs = dict(substrate="fluid", duration_s=0.5, dt=1e-3)
        (plain,) = self._point(**kwargs)
        (lot,) = self._point(topology="parking-lot", **kwargs)
        assert plain.metrics != lot.metrics
        # "dumbbell" preset aliases onto the legacy grid point.
        (alias,) = self._point(topology="dumbbell", hops=7, **kwargs)
        assert alias is plain

    def test_short_rtt_rejected_with_topology(self):
        with pytest.raises(ValueError, match="short_rtt"):
            self._point(
                substrate="fluid", short_rtt=True, topology="parking-lot",
                duration_s=0.5, dt=1e-3,
            )

    def test_campaign_topology_axis(self):
        points = self._point(
            buffers_bdp=[1.0, 2.0],
            substrate="fluid",
            duration_s=0.5,
            dt=1e-3,
            topology="multi-dumbbell",
            hops=2,
            cross_flows=1,
        )
        assert len(points) == 2
        assert all(np.isfinite(p.metrics.utilization_percent) for p in points)

    def test_hop_axis_distinguishes_cache_and_store_keys(self):
        kwargs = dict(
            substrate="fluid", duration_s=0.5, dt=1e-3,
            topology="parking-lot", hops=2,
        )
        (plain,) = self._point(**kwargs)
        (hetero,) = self._point(hop_capacities=(100.0, 50.0), **kwargs)
        assert plain.metrics != hetero.metrics
        cfg_plain = scenarios.topology_scenario(
            "parking-lot", hops=2, duration_s=0.5, dt=1e-3
        )
        cfg_hetero = scenarios.topology_scenario(
            "parking-lot", hops=2, hop_capacities=(100.0, 50.0),
            duration_s=0.5, dt=1e-3,
        )
        assert scenario_key(cfg_plain, "fluid") != scenario_key(cfg_hetero, "fluid")

    def test_hop_axis_round_trips_through_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        kwargs = dict(
            substrate="fluid",
            duration_s=0.5,
            dt=1e-3,
            topology="parking-lot",
            hops=2,
            cross_flows=1,
            hop_capacities=(100.0, 50.0),
            hop_delays=(0.004, 0.006),
            hop_disciplines=("red", "droptail"),
        )
        (first,) = self._point(store=path, **kwargs)
        sweep.clear_cache()
        store = SweepStore(path)
        (second,) = self._point(store=store, **kwargs)
        assert store.hits == 1
        assert first.metrics == second.metrics
        (meta,) = [r["meta"] for r in store.records() if r["meta"].get("topology") == "parking-lot"]
        assert meta["hop_capacities"] == [100.0, 50.0]
        assert meta["hop_delays"] == [0.004, 0.006]
        assert meta["hop_disciplines"] == ["red", "droptail"]

    def test_campaign_heterogeneous_axis(self):
        points = self._point(
            substrate="fluid",
            duration_s=0.5,
            dt=1e-3,
            topology="parking-lot",
            hops=2,
            cross_flows=1,
            hop_capacities=(100.0, 50.0),
        )
        assert len(points) == 1
        assert np.isfinite(points[0].metrics.utilization_percent)

    def test_hop_disciplines_conflict_with_discipline_axis(self):
        # --hop-disciplines fixes every hop; sweeping droptail AND red on
        # top would produce identical runs under two labels.
        kwargs = dict(
            substrate="fluid", duration_s=0.5, dt=1e-3,
            topology="parking-lot", hops=2, hop_disciplines=("red", "red"),
        )
        with pytest.raises(ValueError, match="single disciplines value"):
            self._point(disciplines=["droptail", "red"], **kwargs)
        points = self._point(**kwargs)
        assert len(points) == 1
        # Rows are labelled by what actually ran, not the grid slot.
        assert points[0].discipline == "red/red"

    def test_hop_disciplines_label_and_alias(self):
        # The same per-hop scenario requested under different grid labels
        # must alias onto one cached point, labelled by the composite.
        kwargs = dict(
            substrate="fluid", duration_s=0.5, dt=1e-3,
            topology="parking-lot", hops=2,
            hop_disciplines=("red", "droptail"),
        )
        (a,) = self._point(disciplines=["droptail"], **kwargs)
        (b,) = self._point(disciplines=["red"], **kwargs)
        assert a.discipline == b.discipline == "red/droptail"
        assert a is b  # cache-aliased, not recomputed

    def test_campaign_rejects_malformed_hop_axis(self):
        with pytest.raises(ValueError, match="one value per hop"):
            self._point(
                substrate="fluid",
                duration_s=0.5,
                dt=1e-3,
                topology="parking-lot",
                hops=3,
                hop_capacities=(100.0, 50.0),
            )
        with pytest.raises(ValueError, match="dumbbell"):
            self._point(
                substrate="fluid", duration_s=0.5, dt=1e-3,
                hop_capacities=(100.0, 50.0, 25.0),
            )
