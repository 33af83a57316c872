"""Unit tests of the per-CCA fluid models (Reno, CUBIC, BBRv1, BBRv2).

Each model is driven the way the simulator drives it: one flow packed by
``make_batch`` and advanced by ``step_all`` on one-element input arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import FluidParams, dumbbell_scenario
from repro.core import bbr1 as bbr1_mod
from repro.core import simulate
from repro.core.bbr1 import Bbr1Fluid, Bbr1Params
from repro.core.bbr2 import Bbr2Fluid, Bbr2Params
from repro.core.cubic import CubicFluid, cubic_window
from repro.core.flow import FlowInputsBatch, FlowStateBatch
from repro.core.network import Network
from repro.core.registry import available_ccas, create_model
from repro.core.reno import RenoFluid

CAPACITY_PPS = 8333.3
RTT = 0.0312


def make_network(num_flows: int = 1) -> Network:
    config = dumbbell_scenario(
        ["bbr1"] * num_flows, rtt_range_s=(RTT, RTT), buffer_bdp=1.0
    )
    return Network.from_scenario(config)


def make_inputs(
    tau: float = RTT,
    loss: float = 0.0,
    delivery: float = CAPACITY_PPS,
    rate_delayed: float = CAPACITY_PPS,
    dt: float = 1e-4,
    tau_delayed: float | None = None,
) -> FlowInputsBatch:
    return FlowInputsBatch(
        dt=dt,
        tau=np.array([tau]),
        tau_delayed=np.array([tau if tau_delayed is None else tau_delayed]),
        path_loss=np.array([loss]),
        delivery_rate=np.array([delivery]),
        rate_delayed=np.array([rate_delayed]),
    )


class OneFlow:
    """One flow's state block, read and written by field name."""

    def __init__(self, model, num_flows: int = 1) -> None:
        self.model = model
        state = model.initial_state(0, num_flows, make_network(num_flows), None)
        self.batch = model.make_batch([state])
        fields = ("inflight", *model.traced, *model.untraced)
        self.rows = {key: row for row, key in enumerate(fields)}

    def __getitem__(self, key: str) -> float:
        return float(self.batch.block[self.rows[key], 0])

    def __setitem__(self, key: str, value: float) -> None:
        self.batch.block[self.rows[key], 0] = value

    @property
    def rate(self) -> float:
        return float(self.batch.rate[0])

    @rate.setter
    def rate(self, value: float) -> None:
        self.batch.rate[0] = value

    def step(self, inputs: FlowInputsBatch, steps: int = 1) -> None:
        for _ in range(steps):
            self.batch = FlowStateBatch(*self.model.step_all(self.batch, inputs))


class TestRegistry:
    def test_all_ccas_available(self):
        assert set(available_ccas()) == {"reno", "cubic", "bbr1", "bbr2"}

    @pytest.mark.parametrize("name", ["reno", "cubic", "bbr1", "bbr2"])
    def test_create_model(self, name):
        model = create_model(name, FluidParams())
        assert model.name == name

    def test_unknown_cca(self):
        with pytest.raises(ValueError):
            create_model("vegas")

    def test_loss_based_initial_window_forwarded(self):
        model = create_model("reno", FluidParams(loss_based_init_window_pkts=42.0))
        state = model.initial_state(0, 1, make_network(), FluidParams())
        assert state.extra["cwnd"] == pytest.approx(42.0)


class TestReno:
    def test_grows_without_loss(self):
        flow = OneFlow(RenoFluid(initial_window_pkts=10.0))
        flow.rate = 10.0 / RTT
        flow.step(make_inputs(loss=0.0, rate_delayed=flow.rate), 1000)
        assert flow["cwnd"] > 10.0

    def test_shrinks_under_loss(self):
        flow = OneFlow(RenoFluid(initial_window_pkts=100.0))
        flow.rate = 100.0 / RTT
        flow.step(make_inputs(loss=0.1, rate_delayed=flow.rate), 1000)
        assert flow["cwnd"] < 100.0

    def test_window_never_below_one_packet(self):
        flow = OneFlow(RenoFluid(initial_window_pkts=1.0))
        flow.rate = 1000.0
        flow.step(make_inputs(loss=1.0, rate_delayed=5000.0), 2000)
        assert flow["cwnd"] >= 1.0

    def test_rate_is_window_over_rtt(self):
        flow = OneFlow(RenoFluid(initial_window_pkts=50.0))
        flow.step(make_inputs(tau=0.05, rate_delayed=0.0))
        assert flow.rate == pytest.approx(flow["cwnd"] / 0.05, rel=1e-6)

    def test_invalid_initial_window(self):
        with pytest.raises(ValueError):
            RenoFluid(initial_window_pkts=0.5)


class TestCubic:
    def test_window_function_at_inflection(self):
        # At s = K the window equals w_max again.
        w_max = 100.0
        k = (w_max * 0.7 / 0.4) ** (1.0 / 3.0)
        assert cubic_window(k, w_max) == pytest.approx(w_max)

    def test_window_function_monotone_after_inflection(self):
        w_max = 100.0
        k = (w_max * 0.7 / 0.4) ** (1.0 / 3.0)
        assert cubic_window(k + 2.0, w_max) > cubic_window(k + 1.0, w_max)

    def test_concave_growth_before_inflection(self):
        w_max = 100.0
        assert cubic_window(0.0, w_max) < w_max

    def test_grows_without_loss(self):
        flow = OneFlow(CubicFluid(initial_window_pkts=10.0))
        flow.rate = 10.0 / RTT
        for _ in range(2000):
            flow.step(make_inputs(loss=0.0, rate_delayed=flow.rate, dt=5e-3))
        assert flow["cwnd"] > 10.0
        assert flow["s"] > 1.0

    def test_loss_resets_elapsed_time(self):
        flow = OneFlow(CubicFluid(initial_window_pkts=50.0))
        flow["s"] = 5.0
        flow.rate = 50.0 / RTT
        flow.step(make_inputs(loss=0.5, rate_delayed=5000.0, dt=1e-3), 500)
        assert flow["s"] < 5.0

    def test_negative_wmax_rejected(self):
        with pytest.raises(ValueError):
            cubic_window(1.0, -1.0)


class TestBbr1:
    def make_flow(self, **params):
        return OneFlow(Bbr1Fluid(Bbr1Params(**params)))

    def test_initial_estimate_is_capacity(self):
        flow = self.make_flow()
        assert flow["x_btl"] == pytest.approx(CAPACITY_PPS, rel=1e-3)

    def test_initial_share_override(self):
        model = Bbr1Fluid(Bbr1Params(initial_btl_share=0.25))
        state = model.initial_state(0, 4, make_network(4), None)
        assert state.extra["x_btl"] == pytest.approx(0.25 * CAPACITY_PPS, rel=1e-2)

    def test_invalid_share_rejected(self):
        model = Bbr1Fluid(Bbr1Params(initial_btl_share=3.0))
        with pytest.raises(ValueError):
            model.initial_state(0, 1, make_network(), None)

    def test_phase_desynchronisation(self):
        model = Bbr1Fluid()
        network = make_network(3)
        phases = [
            model.initial_state(i, 3, network, None).extra["phase"] for i in range(3)
        ]
        assert phases == [0.0, 1.0, 2.0]

    def test_rate_tracks_estimate_without_queue(self):
        flow = self.make_flow()
        inputs = make_inputs(delivery=CAPACITY_PPS)
        flow.step(inputs, 500)
        assert flow.rate == pytest.approx(CAPACITY_PPS, rel=0.3)

    def test_btlbw_adopts_max_delivery_at_period_end(self):
        flow = self.make_flow()
        flow["x_btl"] = 0.5 * CAPACITY_PPS
        # One full ProbeBW period is 8 RTTs; a higher delivery rate must be
        # adopted after the rollover.
        steps = int(8 * RTT / 1e-4) + 10
        flow.step(make_inputs(delivery=0.9 * CAPACITY_PPS), steps)
        assert flow["x_btl"] == pytest.approx(0.9 * CAPACITY_PPS, rel=1e-2)

    def test_gain_cycle_pulses(self):
        # Phase 0 paces at 5/4 of the estimate, phase 1 at 3/4, the other
        # six phases at the estimate (Eq. 21-22); each phase lasts tau_min.
        gains = {0: bbr1_mod.PROBE_GAIN, 1: bbr1_mod.DRAIN_GAIN}
        for phase in range(bbr1_mod.GAIN_CYCLE_PHASES):
            flow = self.make_flow()
            flow["t_pbw"] = (phase + 0.5) * flow["tau_min"] - 1e-4
            flow.step(make_inputs())
            assert flow.rate / flow["x_btl"] == pytest.approx(
                gains.get(phase, 1.0), abs=1e-3
            ), phase

    def test_loss_is_ignored(self):
        flow = self.make_flow()
        lossless = make_inputs(loss=0.0)
        lossy = make_inputs(loss=0.2)
        flow.step(lossless, 200)
        estimate_before = flow["x_btl"]
        flow.step(lossy, 200)
        assert flow["x_btl"] == pytest.approx(estimate_before, rel=1e-6)

    def test_probe_rtt_entered_after_10s_without_new_minimum(self):
        flow = self.make_flow()
        inputs = make_inputs(dt=0.01)
        seen_probe_rtt = False
        for _ in range(1100):  # 11 simulated seconds
            flow.step(inputs)
            if flow["m_prt"] >= 0.5:
                seen_probe_rtt = True
                break
        assert seen_probe_rtt
        assert flow["cwnd"] == pytest.approx(bbr1_mod.PROBE_RTT_CWND_PKTS)

    def test_probe_rtt_left_after_200ms(self):
        flow = self.make_flow()
        inputs = make_inputs(dt=0.01)
        flow.step(inputs, 1005)  # enter ProbeRTT
        flow.step(inputs, 30)  # 300 ms later it must be over
        assert flow["m_prt"] < 0.5

    def test_cwnd_is_twice_estimated_bdp(self):
        flow = self.make_flow()
        flow.step(make_inputs())
        expected = 2.0 * flow["x_btl"] * flow["tau_min"]
        assert flow["cwnd"] == pytest.approx(expected, rel=1e-6)

    def test_rtprop_only_decreases(self):
        flow = self.make_flow()
        flow.step(make_inputs(tau=0.05))
        assert flow["tau_min"] == pytest.approx(RTT)
        flow.step(make_inputs(tau=0.02, tau_delayed=0.02))
        assert flow["tau_min"] == pytest.approx(0.02)


class TestBbr2:
    def make_flow(self, **params):
        return OneFlow(Bbr2Fluid(Bbr2Params(**params)))

    def test_period_is_wall_clock_limited(self):
        flow = self.make_flow()
        assert flow["period_wall_s"] == pytest.approx(2.0)

    def test_period_desynchronisation(self):
        model = Bbr2Fluid()
        network = make_network(4)
        walls = [
            model.initial_state(i, 4, network, None).extra["period_wall_s"]
            for i in range(4)
        ]
        assert walls == pytest.approx([2.0, 2.25, 2.5, 2.75])

    def test_whi_initial_condition(self):
        flow = self.make_flow(whi_init_bdp=3.0)
        bdp = flow["x_btl"] * flow["tau_min"]
        assert flow["w_hi"] == pytest.approx(3.0 * bdp, rel=1e-6)

    def test_cruise_entered_after_probe(self):
        flow = self.make_flow()
        inputs = make_inputs(dt=1e-3)
        for _ in range(3000):
            flow.step(inputs)
            if flow["m_crs"] >= 0.5:
                break
        assert flow["m_crs"] >= 0.5

    def test_heavy_loss_triggers_probe_down(self):
        flow = self.make_flow()
        # Advance past the first RTT of the period, then apply >2% loss.
        flow.step(make_inputs(dt=1e-3), 100)
        flow.step(make_inputs(loss=0.1, dt=1e-3), 5)
        assert flow["m_dwn"] >= 0.5 or flow["m_crs"] >= 0.5

    def test_loss_shrinks_w_hi(self):
        flow = self.make_flow()
        flow.step(make_inputs(dt=1e-3), 100)
        before = flow["w_hi"]
        flow.step(make_inputs(loss=0.1, dt=1e-3), 200)
        assert flow["w_hi"] < before

    def test_zero_loss_does_not_shrink_w_lo_in_cruise(self):
        flow = self.make_flow()
        inputs = make_inputs(dt=1e-3)
        for _ in range(3000):
            flow.step(inputs)
            if flow["m_crs"] >= 0.5:
                break
        before = flow["w_lo"]
        flow.step(inputs, 500)
        assert flow["w_lo"] == pytest.approx(before, rel=0.05)

    def test_probe_rtt_cwnd_is_half_bdp(self):
        flow = self.make_flow()
        inputs = make_inputs(dt=0.01)
        for _ in range(1100):
            flow.step(inputs)
            if flow["m_prt"] >= 0.5:
                break
        assert flow["m_prt"] >= 0.5
        expected = flow["x_btl"] * flow["tau_min"] / 2.0
        assert flow["cwnd"] == pytest.approx(expected, rel=0.05)

    def test_cwnd_never_exceeds_two_bdp(self):
        flow = self.make_flow(whi_init_bdp=10.0)
        flow.step(make_inputs(dt=1e-3), 500)
        bdp = flow["x_btl"] * flow["tau_min"]
        assert flow["cwnd"] <= 2.0 * bdp * (1.0 + 1e-6)


class TestLateStart:
    """Before its start a flow sends nothing and keeps its initial state."""

    @pytest.mark.parametrize("name", available_ccas())
    def test_late_flow_sends_nothing_before_its_start(self, name):
        base = dumbbell_scenario(["reno", name], duration_s=0.4, fluid=FluidParams(dt=2.5e-4))
        late = dataclasses.replace(base.flows[1], start_time_s=0.2)
        trace = simulate(dataclasses.replace(base, flows=(base.flows[0], late)))
        flow = trace.flows[1]
        before = trace.time < 0.2
        assert np.all(flow.rate[before] == 0.0)
        assert np.all(flow.inflight[before] == 0.0)
        for key, series in flow.extras.items():
            assert np.all(series[before] == series[0]), key
        assert flow.rate[~before].max() > 0.0
