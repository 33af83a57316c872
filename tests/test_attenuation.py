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

The unattenuated model (Eq. 1 fed the raw delayed sending rates) is no
longer part of the integrator.  What these tests compare against was
frozen from it into ``tests/golden/unattenuated_baseline.json``: in
``cases`` the digest and per-series sums of each no-op scenario's
unattenuated trace (checked like the fluid goldens: sums at ``RTOL``
anywhere, digests where the stored environment matches), and in
``baselines`` the unattenuated arrival means of the thinning check, the
arrival peak of the capping check and the per-link utilization and loss of
the cross-substrate check.  It cannot be regenerated.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import topology
from repro.config import FlowConfig, FluidParams, ScenarioConfig, dumbbell_scenario
from repro.core import simulate
from repro.core.simulator import simulate_many
from repro.emulation.runner import emulate
from repro.experiments.scenarios import parking_lot_scenario
from repro.metrics import link_metrics
from test_fluid_golden import check, summary

FAST = FluidParams(dt=1e-3)
BASELINE_PATH = Path(__file__).resolve().parent / "golden" / "unattenuated_baseline.json"


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


def one_hop(discipline: str) -> ScenarioConfig:
    return dumbbell_scenario(
        ["bbr1", "reno", "cubic", "bbr2"],
        discipline=discipline,
        duration_s=0.5,
        fluid=FAST,
    )


def one_hop_topology(discipline: str) -> ScenarioConfig:
    topo = topology.dumbbell(3, discipline=discipline)
    return ScenarioConfig(
        bottleneck=None,
        flows=tuple(FlowConfig(cca=c) for c in ("bbr1", "reno", "cubic")),
        duration_s=0.5,
        fluid=FAST,
        topology=topo,
    )


def lossfree_multihop() -> ScenarioConfig:
    """Loss-based CCAs ramping from small windows over a deep-buffered chain."""
    topo = topology.parking_lot(
        3, cross_flows=1, long_flows=2, hop_delay_s=0.010 / 3, buffer_bdp=7.0
    )
    flows = tuple(
        FlowConfig(cca=cca, access_delay_s=0.005)
        for cca in ("reno", "cubic", "reno", "cubic", "reno")
    )
    return ScenarioConfig(
        bottleneck=None, flows=flows, duration_s=0.5, fluid=FAST, topology=topo
    )


def capped_lot() -> ScenarioConfig:
    """One BBRv1 flow probing 25 % above a 50 Mbps first hop, no loss."""
    topo = topology.parking_lot(
        2,
        cross_flows=0,
        long_flows=1,
        capacity_mbps=(50.0, 100.0),
        hop_delay_s=0.005,
        buffer_bdp=20.0,
    )
    return ScenarioConfig(
        bottleneck=None,
        flows=(FlowConfig(cca="bbr1", access_delay_s=0.005),),
        duration_s=1.0,
        fluid=FluidParams(dt=2.5e-4),
        topology=topo,
    )


#: The baseline's cases: the scenarios on which attenuation is a no-op.
NO_OP_CASES = (
    "one-hop|droptail",
    "one-hop|red",
    "one-hop-topology|droptail",
    "one-hop-topology|red",
    "lossfree-multihop",
)


@pytest.fixture(scope="module")
def baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


class TestBitIdentityRegressions:
    """Attenuation must be a no-op exactly where the model says it is: the
    trace equals the frozen unattenuated one."""

    def test_baseline_holds_every_case(self, baseline):
        assert sorted(baseline["cases"]) == sorted(NO_OP_CASES)

    @pytest.mark.parametrize("discipline", ["droptail", "red"])
    def test_one_hop_unchanged_by_attenuation(self, discipline, baseline):
        name = f"one-hop|{discipline}"
        check(name, summary(simulate(one_hop(discipline))), baseline)

    @pytest.mark.parametrize("discipline", ["droptail", "red"])
    def test_one_hop_topology_unchanged_by_attenuation(self, discipline, baseline):
        name = f"one-hop-topology|{discipline}"
        check(name, summary(simulate(one_hop_topology(discipline))), baseline)

    def test_lossfree_multihop_unchanged_by_attenuation(self, baseline):
        # Zero loss everywhere and rates below every upstream capacity, so
        # both the survival product and the capacity cap are inactive and
        # the attenuated pipeline must reproduce the unattenuated model bit
        # for bit.
        trace = simulate(lossfree_multihop())
        assert max(float(link.loss_prob.max()) for link in trace.links) == 0.0
        check("lossfree-multihop", summary(trace), baseline)


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

    def test_upstream_loss_thins_downstream_arrivals(self, baseline):
        att = simulate(heavy_loss_lot(duration_s=0.75))
        unatt_mean = baseline["baselines"]["thinning_arrival_mean"]
        # hop-1 drops >40 % of its arrivals; the unattenuated model fed
        # hops 2-3 the raw sending rates regardless.
        assert float(att.links[0].loss_prob.max()) > 0.4
        for hop in (1, 2):
            assert float(att.links[hop].arrival_rate.mean()) < 0.8 * unatt_mean[hop]

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

    def test_downstream_arrival_capped_by_upstream_capacity(self, baseline):
        # No loss anywhere (huge buffers), but BBR probes 25 % above the
        # 50 Mbps hop-1 capacity: traffic entering hop-2 can still never
        # exceed what hop-1 can deliver.
        c1_pps = 50.0e6 / (1500 * 8)
        att = simulate(capped_lot())
        assert baseline["baselines"]["capping_arrival_max"] > 1.2 * c1_pps
        assert float(att.links[1].arrival_rate.max()) <= c1_pps * (1 + 1e-12)


class TestCrossSubstrateAgreement:
    """Acceptance criterion: fluid vs emulator on the heavy-loss lot."""

    @pytest.fixture(scope="class")
    def traces(self, baseline):
        config = heavy_loss_lot(duration_s=2.0)
        return {
            "att": link_metrics(simulate(config)),
            "unatt": baseline["baselines"]["cross_substrate"],
            "emu": link_metrics(emulate(config)),
        }

    def test_downstream_utilization_error_bounded_and_reduced(self, traces):
        for hop in (1, 2):
            emu = traces["emu"][hop].utilization_percent
            att_err = abs(traces["att"][hop].utilization_percent - emu)
            unatt_err = abs(traces["unatt"]["utilization_percent"][hop] - emu)
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
            unatt_err = abs(traces["unatt"]["loss_percent"][hop] - emu)
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
