"""Unit tests of the per-CCA fluid models (Reno, CUBIC, BBRv1, BBRv2)."""

from __future__ import annotations

import pytest

from repro.config import FluidParams, dumbbell_scenario
from repro.core import bbr1 as bbr1_mod
from repro.core.bbr1 import Bbr1Fluid, Bbr1Params
from repro.core.bbr2 import Bbr2Fluid, Bbr2Params
from repro.core.cubic import CubicFluid, cubic_window
from repro.core.flow import FlowInputs
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
    t: float = 0.1,
    active: bool = True,
) -> FlowInputs:
    return FlowInputs(
        t=t,
        dt=dt,
        tau=tau,
        tau_delayed=tau,
        path_loss=loss,
        delivery_rate=delivery,
        rate_delayed=rate_delayed,
        propagation_rtt=RTT,
        active=active,
    )


def run_steps(model, state, inputs: FlowInputs, steps: int) -> None:
    for _ in range(steps):
        model.step(state, inputs)


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
        model = RenoFluid(initial_window_pkts=10.0)
        state = model.initial_state(0, 1, make_network(), None)
        state.rate = 10.0 / RTT
        run_steps(model, state, make_inputs(loss=0.0, rate_delayed=state.rate), 1000)
        assert state.extra["cwnd"] > 10.0

    def test_shrinks_under_loss(self):
        model = RenoFluid(initial_window_pkts=100.0)
        state = model.initial_state(0, 1, make_network(), None)
        state.rate = 100.0 / RTT
        run_steps(model, state, make_inputs(loss=0.1, rate_delayed=state.rate), 1000)
        assert state.extra["cwnd"] < 100.0

    def test_window_never_below_one_packet(self):
        model = RenoFluid(initial_window_pkts=1.0)
        state = model.initial_state(0, 1, make_network(), None)
        state.rate = 1000.0
        run_steps(model, state, make_inputs(loss=1.0, rate_delayed=5000.0), 2000)
        assert state.extra["cwnd"] >= 1.0

    def test_rate_is_window_over_rtt(self):
        model = RenoFluid(initial_window_pkts=50.0)
        state = model.initial_state(0, 1, make_network(), None)
        model.step(state, make_inputs(tau=0.05, rate_delayed=0.0))
        assert state.rate == pytest.approx(state.extra["cwnd"] / 0.05, rel=1e-6)

    def test_inactive_flow_sends_nothing(self):
        model = RenoFluid()
        state = model.initial_state(0, 1, make_network(), None)
        model.step(state, make_inputs(active=False))
        assert state.rate == 0.0

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
        model = CubicFluid(initial_window_pkts=10.0)
        state = model.initial_state(0, 1, make_network(), None)
        state.rate = 10.0 / RTT
        for _ in range(2000):
            model.step(state, make_inputs(loss=0.0, rate_delayed=state.rate, dt=5e-3))
        assert state.extra["cwnd"] > 10.0
        assert state.extra["s"] > 1.0

    def test_loss_resets_elapsed_time(self):
        model = CubicFluid(initial_window_pkts=50.0)
        state = model.initial_state(0, 1, make_network(), None)
        state.extra["s"] = 5.0
        state.rate = 50.0 / RTT
        run_steps(model, state, make_inputs(loss=0.5, rate_delayed=5000.0, dt=1e-3), 500)
        assert state.extra["s"] < 5.0

    def test_negative_wmax_rejected(self):
        with pytest.raises(ValueError):
            cubic_window(1.0, -1.0)


class TestBbr1:
    def make_state(self, **params):
        model = Bbr1Fluid(Bbr1Params(**params))
        network = make_network()
        state = model.initial_state(0, 1, network, None)
        return model, state

    def test_initial_estimate_is_capacity(self):
        _, state = self.make_state()
        assert state.extra["x_btl"] == pytest.approx(CAPACITY_PPS, rel=1e-3)

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
        model, state = self.make_state()
        inputs = make_inputs(delivery=CAPACITY_PPS)
        run_steps(model, state, inputs, 500)
        assert state.rate == pytest.approx(CAPACITY_PPS, rel=0.3)

    def test_btlbw_adopts_max_delivery_at_period_end(self):
        model, state = self.make_state()
        state.extra["x_btl"] = 0.5 * CAPACITY_PPS
        # One full ProbeBW period is 8 RTTs; a higher delivery rate must be
        # adopted after the rollover.
        steps = int(8 * RTT / 1e-4) + 10
        run_steps(model, state, make_inputs(delivery=0.9 * CAPACITY_PPS), steps)
        assert state.extra["x_btl"] == pytest.approx(0.9 * CAPACITY_PPS, rel=1e-2)

    def test_loss_is_ignored(self):
        model, state = self.make_state()
        lossless = make_inputs(loss=0.0)
        lossy = make_inputs(loss=0.2)
        run_steps(model, state, lossless, 200)
        estimate_before = state.extra["x_btl"]
        run_steps(model, state, lossy, 200)
        assert state.extra["x_btl"] == pytest.approx(estimate_before, rel=1e-6)

    def test_probe_rtt_entered_after_10s_without_new_minimum(self):
        model, state = self.make_state()
        inputs = make_inputs(dt=0.01)
        seen_probe_rtt = False
        for _ in range(1100):  # 11 simulated seconds
            model.step(state, inputs)
            if state.extra["m_prt"] >= 0.5:
                seen_probe_rtt = True
                break
        assert seen_probe_rtt
        assert state.extra["cwnd"] == pytest.approx(bbr1_mod.PROBE_RTT_CWND_PKTS)

    def test_probe_rtt_left_after_200ms(self):
        model, state = self.make_state()
        inputs = make_inputs(dt=0.01)
        run_steps(model, state, inputs, 1005)  # enter ProbeRTT
        run_steps(model, state, inputs, 30)  # 300 ms later it must be over
        assert state.extra["m_prt"] < 0.5

    def test_cwnd_is_twice_estimated_bdp(self):
        model, state = self.make_state()
        model.step(state, make_inputs())
        expected = 2.0 * state.extra["x_btl"] * state.extra["tau_min"]
        assert state.extra["cwnd"] == pytest.approx(expected, rel=1e-6)

    def test_rtprop_only_decreases(self):
        model, state = self.make_state()
        model.step(state, make_inputs(tau=0.05))
        assert state.extra["tau_min"] == pytest.approx(RTT)
        inputs = make_inputs(tau=0.02)
        inputs = FlowInputs(**{**inputs.__dict__, "tau_delayed": 0.02})
        model.step(state, inputs)
        assert state.extra["tau_min"] == pytest.approx(0.02)


class TestBbr2:
    def make_state(self, num_flows: int = 1, **params):
        model = Bbr2Fluid(Bbr2Params(**params))
        network = make_network(num_flows)
        state = model.initial_state(0, num_flows, network, None)
        return model, state

    def test_period_is_wall_clock_limited(self):
        _, state = self.make_state()
        assert state.extra["period_wall_s"] == pytest.approx(2.0)

    def test_period_desynchronisation(self):
        model = Bbr2Fluid()
        network = make_network(4)
        walls = [
            model.initial_state(i, 4, network, None).extra["period_wall_s"]
            for i in range(4)
        ]
        assert walls == pytest.approx([2.0, 2.25, 2.5, 2.75])

    def test_whi_initial_condition(self):
        _, state = self.make_state(whi_init_bdp=3.0)
        bdp = state.extra["x_btl"] * state.extra["tau_min"]
        assert state.extra["w_hi"] == pytest.approx(3.0 * bdp, rel=1e-6)

    def test_cruise_entered_after_probe(self):
        model, state = self.make_state()
        inputs = make_inputs(dt=1e-3)
        for _ in range(3000):
            model.step(state, inputs)
            if state.extra["m_crs"] >= 0.5:
                break
        assert state.extra["m_crs"] >= 0.5

    def test_heavy_loss_triggers_probe_down(self):
        model, state = self.make_state()
        # Advance past the first RTT of the period, then apply >2% loss.
        run_steps(model, state, make_inputs(dt=1e-3), 100)
        run_steps(model, state, make_inputs(loss=0.1, dt=1e-3), 5)
        assert state.extra["m_dwn"] >= 0.5 or state.extra["m_crs"] >= 0.5

    def test_loss_shrinks_w_hi(self):
        model, state = self.make_state()
        run_steps(model, state, make_inputs(dt=1e-3), 100)
        before = state.extra["w_hi"]
        run_steps(model, state, make_inputs(loss=0.1, dt=1e-3), 200)
        assert state.extra["w_hi"] < before

    def test_zero_loss_does_not_shrink_w_lo_in_cruise(self):
        model, state = self.make_state()
        inputs = make_inputs(dt=1e-3)
        for _ in range(3000):
            model.step(state, inputs)
            if state.extra["m_crs"] >= 0.5:
                break
        before = state.extra["w_lo"]
        run_steps(model, state, inputs, 500)
        assert state.extra["w_lo"] == pytest.approx(before, rel=0.05)

    def test_probe_rtt_cwnd_is_half_bdp(self):
        model, state = self.make_state()
        inputs = make_inputs(dt=0.01)
        for _ in range(1100):
            model.step(state, inputs)
            if state.extra["m_prt"] >= 0.5:
                break
        assert state.extra["m_prt"] >= 0.5
        expected = state.extra["x_btl"] * state.extra["tau_min"] / 2.0
        assert state.extra["cwnd"] == pytest.approx(expected, rel=0.05)

    def test_cwnd_never_exceeds_two_bdp(self):
        model, state = self.make_state(whi_init_bdp=10.0)
        run_steps(model, state, make_inputs(dt=1e-3), 500)
        bdp = state.extra["x_btl"] * state.extra["tau_min"]
        assert state.extra["cwnd"] <= 2.0 * bdp * (1.0 + 1e-6)

    def test_inactive_flow_sends_nothing(self):
        model, state = self.make_state()
        model.step(state, make_inputs(active=False))
        assert state.rate == 0.0
