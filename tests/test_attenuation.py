"""Tests of the fluid model's upstream loss/capacity arrival attenuation.

The paper's Eq. 1 feeds every link the flows' delayed *sending* rates —
correct on a single bottleneck, an overestimate downstream of a lossy hop.
The integrator attenuates the per-link arrivals along each flow's
path (survival product over upstream links, capped by the smallest upstream
delivered capacity) and take Eq. 17 at the *effective* (survival-scaled)
bottleneck.  These tests pin:

* bit-identity where attenuation must be a no-op — one-hop scenarios and
  loss-free multi-hop scenarios whose rates stay below every upstream
  capacity,
* the physical invariants (downstream arrivals thinned by upstream loss,
  capped by upstream capacity), and
* the headline acceptance criterion: on a heavy-loss heterogeneous 3-hop
  parking lot the fluid per-link utilization/loss agree with the packet
  emulator within bounded error, strictly better than the unattenuated
  model did.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import topology
from repro.config import FlowConfig, FluidParams, ScenarioConfig, dumbbell_scenario
from repro.core import simulate
from repro.core.simulator import simulate_many
from repro.emulation.runner import emulate
from repro.experiments.scenarios import parking_lot_scenario
from repro.metrics import link_metrics

FAST = FluidParams(dt=1e-3)


def heavy_loss_lot(duration_s: float = 2.0) -> ScenarioConfig:
    """Heterogeneous 3-hop parking lot in a heavy-loss regime.

    hop-1 is half the capacity of hops 2-3, buffers are small and RED, so
    the 10 BBRv1 long flows overload hop-1 hard (>50 % loss) and the
    downstream hops see strongly thinned traffic — exactly where the
    unattenuated Eq. 1 overestimated load.
    """
    return parking_lot_scenario(
        "BBRv1",
        hops=3,
        cross_flows=1,
        capacity_mbps=(50.0, 100.0, 100.0),
        buffer_bdp=0.5,
        discipline="red",
        duration_s=duration_s,
        seed=1,
    )


def trace_pairs_equal(a, b) -> None:
    """Assert two fluid traces are bit-identical."""
    assert np.array_equal(a.time, b.time)
    for fa, fb in zip(a.flows, b.flows, strict=True):
        assert np.array_equal(fa.rate, fb.rate)
        assert np.array_equal(fa.delivery_rate, fb.delivery_rate)
        assert np.array_equal(fa.cwnd, fb.cwnd)
        assert np.array_equal(fa.rtt, fb.rtt)
    for la, lb in zip(a.links, b.links, strict=True):
        assert np.array_equal(la.queue, lb.queue)
        assert np.array_equal(la.loss_prob, lb.loss_prob)
        assert np.array_equal(la.arrival_rate, lb.arrival_rate)
        assert np.array_equal(la.departure_rate, lb.departure_rate)


class TestBitIdentityRegressions:
    """Attenuation must be a no-op exactly where the model says it is."""

    @pytest.mark.parametrize("discipline", ["droptail", "red"])
    def test_one_hop_unchanged_by_attenuation(self, discipline):
        config = dumbbell_scenario(
            ["bbr1", "reno", "cubic", "bbr2"],
            discipline=discipline,
            duration_s=0.5,
            fluid=FAST,
        )
        a = simulate(config)
        b = simulate(config, attenuate_arrivals=False)
        trace_pairs_equal(a, b)

    @pytest.mark.parametrize("discipline", ["droptail", "red"])
    def test_one_hop_topology_unchanged_by_attenuation(self, discipline):
        topo = topology.dumbbell(3, discipline=discipline)
        config = ScenarioConfig(
            bottleneck=None,
            flows=tuple(FlowConfig(cca=c) for c in ("bbr1", "reno", "cubic")),
            duration_s=0.5,
            fluid=FAST,
            topology=topo,
        )
        a = simulate(config)
        b = simulate(config, attenuate_arrivals=False)
        trace_pairs_equal(a, b)

    def test_lossfree_multihop_unchanged_by_attenuation(self):
        # Loss-based CCAs ramping from small windows over a deep-buffered
        # chain: zero loss everywhere and rates below every upstream
        # capacity, so both the survival product and the capacity cap are
        # inactive and the corrected pipeline must reproduce the
        # unattenuated model bit for bit.
        topo = topology.parking_lot(
            3, cross_flows=1, long_flows=2, hop_delay_s=0.010 / 3, buffer_bdp=7.0
        )
        flows = tuple(
            FlowConfig(cca=cca, access_delay_s=0.005)
            for cca in ("reno", "cubic", "reno", "cubic", "reno")
        )
        config = ScenarioConfig(
            bottleneck=None, flows=flows, duration_s=0.5, fluid=FAST, topology=topo
        )
        a = simulate(config)
        b = simulate(config, attenuate_arrivals=False)
        assert max(float(link.loss_prob.max()) for link in a.links) == 0.0
        trace_pairs_equal(a, b)


class TestAttenuatedPipelines:
    def test_simulate_many_lockstep_with_attenuation(self):
        config = heavy_loss_lot(duration_s=0.5)
        deep = config.with_buffer(2.0)
        batched = simulate_many([config, deep])
        alone = [simulate(config), simulate(deep)]
        for t_batch, t_alone in zip(batched, alone, strict=True):
            for fa, fb in zip(t_batch.flows, t_alone.flows, strict=True):
                np.testing.assert_allclose(fa.rate, fb.rate, rtol=1e-9, atol=1e-9)
            for la, lb in zip(t_batch.links, t_alone.links, strict=True):
                np.testing.assert_allclose(la.queue, lb.queue, rtol=1e-9, atol=1e-9)

    def test_ragged_path_lengths_in_one_batch(self):
        # A lockstep batch mixing 3-link parking-lot paths with 2-link
        # multi-dumbbell spans exercises the padded (ragged) segment
        # matrix; every flow must still match its solo integration.
        from repro.experiments.scenarios import multi_dumbbell_scenario

        lot = parking_lot_scenario(
            "BBRv1", hops=3, buffer_bdp=0.5, discipline="red",
            duration_s=0.5, dt=1e-3,
        )
        md = multi_dumbbell_scenario(
            "BBRv1", dumbbells=2, span_flows=2, buffer_bdp=0.5,
            discipline="red", duration_s=0.5, dt=1e-3,
        )
        batched = simulate_many([lot, md])
        alone = [simulate(lot), simulate(md)]
        for t_batch, t_alone in zip(batched, alone, strict=True):
            for fa, fb in zip(t_batch.flows, t_alone.flows, strict=True):
                np.testing.assert_allclose(fa.rate, fb.rate, rtol=1e-9, atol=1e-9)
                np.testing.assert_allclose(
                    fa.delivery_rate, fb.delivery_rate, rtol=1e-9, atol=1e-9
                )

    def test_upstream_loss_thins_downstream_arrivals(self):
        config = heavy_loss_lot(duration_s=0.75)
        att = simulate(config)
        unatt = simulate(config, attenuate_arrivals=False)
        # hop-1 drops >40 % of its arrivals; the unattenuated model feeds
        # hops 2-3 the raw sending rates regardless.
        assert float(att.links[0].loss_prob.max()) > 0.4
        for hop in (1, 2):
            assert float(att.links[hop].arrival_rate.mean()) < 0.8 * float(
                unatt.links[hop].arrival_rate.mean()
            )

    def test_total_upstream_loss_does_not_crash(self):
        # Regression: a saturated RED queue reaches loss == 1.0, zeroing
        # the downstream survival prefix.  `C / S` used to emit inf with a
        # RuntimeWarning; the unreachable links must count as infinite
        # effective capacity and every rate must stay finite.
        config = parking_lot_scenario(
            "BBRv1/CUBIC",
            hops=3,
            cross_flows=4,
            capacity_mbps=(200.0, 1.0, 0.5),
            discipline="red",
            buffer_bdp=0.05,
            whi_init_bdp=50.0,
            duration_s=0.4,
            dt=1e-3,
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = simulate(config)
        assert max(float(link.loss_prob.max()) for link in trace.links) == 1.0
        for flow in trace.flows:
            assert np.all(np.isfinite(flow.rate))
            assert np.all(np.isfinite(flow.delivery_rate))

    def test_downstream_arrival_capped_by_upstream_capacity(self):
        # No loss anywhere (huge buffers), but BBR probes 25 % above the
        # 50 Mbps hop-1 capacity: traffic entering hop-2 can still never
        # exceed what hop-1 can deliver.
        topo = topology.parking_lot(
            2,
            cross_flows=0,
            long_flows=1,
            capacity_mbps=(50.0, 100.0),
            hop_delay_s=0.005,
            buffer_bdp=20.0,
        )
        config = ScenarioConfig(
            bottleneck=None,
            flows=(FlowConfig(cca="bbr1", access_delay_s=0.005),),
            duration_s=1.0,
            fluid=FluidParams(dt=2.5e-4),
            topology=topo,
        )
        c1_pps = 50.0e6 / (1500 * 8)
        att = simulate(config)
        unatt = simulate(config, attenuate_arrivals=False)
        assert float(unatt.links[1].arrival_rate.max()) > 1.2 * c1_pps
        assert float(att.links[1].arrival_rate.max()) <= c1_pps * (1 + 1e-12)


class TestCrossSubstrateAgreement:
    """Acceptance criterion: fluid vs emulator on the heavy-loss lot."""

    @pytest.fixture(scope="class")
    def traces(self):
        config = heavy_loss_lot(duration_s=2.0)
        return {
            "att": link_metrics(simulate(config)),
            "unatt": link_metrics(simulate(config, attenuate_arrivals=False)),
            "emu": link_metrics(emulate(config)),
        }

    def test_downstream_utilization_error_bounded_and_reduced(self, traces):
        for hop in (1, 2):
            emu = traces["emu"][hop].utilization_percent
            att_err = abs(traces["att"][hop].utilization_percent - emu)
            unatt_err = abs(traces["unatt"][hop].utilization_percent - emu)
            assert att_err / emu < 0.25, (
                f"hop-{hop + 1} utilization off by {att_err:.1f} points "
                f"(emulator {emu:.1f})"
            )
            assert att_err < unatt_err, (
                f"attenuation did not improve hop-{hop + 1} utilization: "
                f"{att_err:.1f} vs {unatt_err:.1f} points"
            )

    def test_downstream_loss_error_bounded_and_reduced(self, traces):
        for hop in (1, 2):
            emu = traces["emu"][hop].loss_percent
            att_err = abs(traces["att"][hop].loss_percent - emu)
            unatt_err = abs(traces["unatt"][hop].loss_percent - emu)
            assert att_err < 5.0, (
                f"hop-{hop + 1} loss off by {att_err:.1f} points "
                f"(emulator {emu:.1f} %)"
            )
            assert att_err < unatt_err

    def test_bottleneck_hop_agreement_unharmed(self, traces):
        # The shared hop-1 was already modelled correctly; attenuation must
        # not disturb it (its arrivals have no upstream terms).
        emu = traces["emu"][0].utilization_percent
        att = traces["att"][0].utilization_percent
        assert abs(att - emu) / emu < 0.05
