"""Tests of the batched CCA groups and the lockstep batches of the integrator.

Every model steps its flows as one group through ``step_all`` on one state
block.  A scenario in a :func:`simulate_many` lockstep batch must reproduce
its run alone exactly, bit for bit.  The numbers themselves are pinned by
``tests/golden/fluid_traces.json`` (``tests/test_fluid_golden.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import (
    FlowConfig,
    FlowSchedule,
    FluidParams,
    ScenarioConfig,
    dumbbell_scenario,
)
from repro.core import (
    FluidSimulator,
    RenoFluid,
    available_ccas,
    create_model,
    simulate,
    simulate_many,
)
from repro.core.flow import FluidCCA
from repro.core.network import Network
from repro.experiments import scenarios

FAST = FluidParams(dt=2.5e-4)

FLOW_SERIES = ("rate", "delivery_rate", "cwnd", "inflight", "rtt")
LINK_SERIES = ("queue", "loss_prob", "arrival_rate", "departure_rate")


def assert_traces_equal(a, b):
    """Bit-for-bit equality of every recorded series of two traces."""
    np.testing.assert_array_equal(a.time, b.time)
    assert len(a.flows) == len(b.flows)
    for fa, fb in zip(a.flows, b.flows, strict=True):
        assert (fa.cca, fa.start_time_s, fa.end_time_s) == (
            fb.cca,
            fb.start_time_s,
            fb.end_time_s,
        )
        for name in FLOW_SERIES:
            np.testing.assert_array_equal(
                getattr(fa, name), getattr(fb, name), err_msg=f"flow series {name!r}"
            )
        assert list(fa.extras) == list(fb.extras)
        for key in fa.extras:
            np.testing.assert_array_equal(
                fa.extras[key], fb.extras[key], err_msg=f"extras {key!r}"
            )
    assert [link.name for link in a.links] == [link.name for link in b.links]
    for la, lb in zip(a.links, b.links, strict=True):
        for name in LINK_SERIES:
            np.testing.assert_array_equal(
                getattr(la, name), getattr(lb, name), err_msg=f"link series {name!r}"
            )


def assert_lockstep_equals_alone(configs):
    batched = simulate_many(configs)
    assert len(batched) == len(configs)
    for config, trace in zip(configs, batched, strict=True):
        assert_traces_equal(simulate(config), trace)


def staggered_starts():
    """Two of three flows start late, without a flow schedule."""
    base = dumbbell_scenario(["reno", "bbr1", "cubic"], duration_s=1.5, fluid=FAST)
    flows = (
        base.flows[0],
        FlowConfig(cca="bbr1", access_delay_s=0.006, start_time_s=0.5),
        FlowConfig(cca="cubic", access_delay_s=0.007, start_time_s=0.9),
    )
    return ScenarioConfig(
        bottleneck=base.bottleneck, flows=flows, duration_s=1.5, fluid=FAST
    )


#: Scenarios whose traces must keep the physical invariants of the model.
INVARIANT_SCENARIOS = {
    "reno_homogeneous": lambda: dumbbell_scenario(["reno"] * 4, duration_s=1.0, fluid=FAST),
    "cubic_homogeneous": lambda: dumbbell_scenario(["cubic"] * 4, duration_s=1.0, fluid=FAST),
    "bbr1_homogeneous": lambda: dumbbell_scenario(["bbr1"] * 4, duration_s=1.0, fluid=FAST),
    "bbr2_homogeneous": lambda: dumbbell_scenario(["bbr2"] * 4, duration_s=1.0, fluid=FAST),
    "mixed_all_ccas": lambda: dumbbell_scenario(
        ["bbr1", "bbr2", "reno", "cubic", "reno"], duration_s=1.0, fluid=FAST
    ),
    "mixed_bbr_red": lambda: dumbbell_scenario(
        ["bbr1", "bbr1", "reno", "bbr2"], duration_s=1.0, fluid=FAST, discipline="red"
    ),
    "single_flow": lambda: dumbbell_scenario(["bbr1"], duration_s=1.0, fluid=FAST),
    "staggered_start_times": staggered_starts,
    "parking_lot_red": lambda: scenarios.parking_lot_scenario(
        "BBRv1/CUBIC", hops=3, discipline="red", duration_s=0.5
    ),
    "parking_lot_4_hops": lambda: scenarios.parking_lot_scenario(
        "BBRv2/RENO", hops=4, cross_flows=2, buffer_bdp=4.0, duration_s=0.5
    ),
    "literal_xmax_mix": lambda: dumbbell_scenario(
        ["bbr1", "bbr2", "bbr1", "bbr2"],
        duration_s=1.0,
        fluid=dataclasses.replace(FAST, literal_xmax=True),
    ),
    "parking_lot_heavy_loss": lambda: scenarios.parking_lot_scenario(
        "BBRv1",
        hops=3,
        cross_flows=1,
        capacity_mbps=(50.0, 100.0, 100.0),
        buffer_bdp=0.5,
        discipline="red",
        duration_s=0.5,
        seed=1,
    ),
}


class TestTraceInvariants:
    """Every recorded series stays inside the model's physical bounds."""

    @pytest.mark.parametrize("name", sorted(INVARIANT_SCENARIOS))
    def test_trace_keeps_physical_bounds(self, name):
        config = INVARIANT_SCENARIOS[name]()
        network = Network.from_scenario(config)
        trace = simulate(config)
        for index, flow in enumerate(trace.flows):
            recorded = [getattr(flow, key) for key in FLOW_SERIES]
            assert all(np.all(np.isfinite(s)) for s in [*recorded, *flow.extras.values()])
            for series in (flow.rate, flow.delivery_rate, flow.cwnd, flow.inflight):
                assert np.all(series >= 0.0), index
            # Eq. 3: the RTT is the propagation RTT plus non-negative queueing.
            assert np.all(flow.rtt >= network.propagation_rtt(index) * (1.0 - 1e-12))
            # A flow is silent before its start time.
            assert np.all(flow.rate[trace.time < flow.start_time_s] == 0.0), index
            assert flow.rate.max() > 0.0, index
        for link in trace.links:
            assert all(np.all(np.isfinite(getattr(link, key))) for key in LINK_SERIES)
            assert np.all(link.queue >= 0.0)
            assert np.all(link.queue <= link.buffer_pkts * (1.0 + 1e-12))
            assert np.all((link.loss_prob >= 0.0) & (link.loss_prob <= 1.0))
            assert np.all(link.arrival_rate >= 0.0)
            assert np.all(link.departure_rate <= link.capacity_pps * (1.0 + 1e-12))

    def test_late_flows_start_on_time(self):
        config = staggered_starts()
        trace = simulate(config)
        assert [flow.start_time_s for flow in trace.flows] == [0.0, 0.5, 0.9]
        for flow in trace.flows:
            started = trace.time >= flow.start_time_s + 0.05
            assert np.all(flow.rate[started] > 0.0)


class _TunedReno(RenoFluid):
    """A user-defined model: inherits Reno's batched path unchanged."""


class TestBatchedModels:
    """Every model runs batched: a run has no per-flow fallback."""

    @pytest.mark.parametrize("name", available_ccas())
    def test_registered_model_batches(self, name):
        first, second = create_model(name), create_model(name)
        assert first.batch_key() == second.batch_key()
        assert hash(first.batch_key()) == hash(second.batch_key())
        assert type(first).step_all is not FluidCCA.step_all

    @pytest.mark.parametrize("name", available_ccas())
    def test_state_block_follows_the_declaration(self, name):
        # make_batch packs each state's fields in declared row order.
        model = create_model(name)
        config = dumbbell_scenario([name] * 3, fluid=FAST)
        network = Network.from_scenario(config)
        states = [model.initial_state(i, 3, network, config.fluid) for i in range(3)]
        for k, state in enumerate(states):
            state.inflight = 10.0 * k
        batch = model.make_batch(states)
        assert batch.block.shape == (1 + len(model.traced) + len(model.untraced), 3)
        np.testing.assert_array_equal(batch.block[0], [0.0, 10.0, 20.0])
        assert "cwnd" in model.traced
        for row, key in enumerate((*model.traced, *model.untraced), start=1):
            np.testing.assert_array_equal(batch.block[row], [s.extra[key] for s in states])

    @pytest.mark.parametrize("name", available_ccas())
    def test_undeclared_state_field_is_refused(self, name):
        model = create_model(name)
        config = dumbbell_scenario([name], fluid=FAST)
        state = model.initial_state(0, 1, Network.from_scenario(config), config.fluid)
        state.extra["stray"] = 0.0
        with pytest.raises(ValueError, match="stray"):
            model.make_batch([state])

    def test_batch_keys_separate_models(self):
        keys = {create_model(name).batch_key() for name in available_ccas()}
        assert len(keys) == len(available_ccas())
        soft = create_model("bbr1", FluidParams(sigmoid_sharpness=50.0))
        assert soft.batch_key() != create_model("bbr1").batch_key()

    def test_model_without_batched_path_is_abstract(self):
        class NoDynamics(FluidCCA):
            def initial_state(self, flow_index, num_flows, network, params):
                raise NotImplementedError

        with pytest.raises(TypeError, match="batch_key"):
            NoDynamics()

    def test_custom_model_in_vectorized_run(self):
        # The subclass shares Reno's batch key, so it joins the Reno group
        # and the run is the plain-Reno run, bit for bit.
        config = dumbbell_scenario(["reno", "reno", "bbr1"], duration_s=1.0, fluid=FAST)
        [tuned] = FluidSimulator([config], models={0: _TunedReno()}).run()
        assert_traces_equal(tuned, simulate(config))


def _churn_onoff_static():
    """A Poisson-churn, an on/off and a schedule-free scenario (one batch)."""
    churn = scenarios.churn_scenario("BBRv1/RENO", num_flows=12, load=0.8, duration_s=0.5)
    onoff = dataclasses.replace(
        dumbbell_scenario(["cubic", "bbr2", "bbr1"], duration_s=0.5, fluid=FAST),
        schedule=FlowSchedule(arrivals="onoff", on_time_s=0.2, off_time_s=0.1),
    )
    static = dumbbell_scenario(["bbr1", "cubic"], duration_s=0.5, fluid=FAST)
    return churn, onoff, static


class TestSimulateMany:
    def test_matches_individual_runs(self):
        configs = [
            dumbbell_scenario(["bbr1"] * 3, duration_s=1.0, fluid=FAST, buffer_bdp=1.0),
            dumbbell_scenario(["reno", "bbr2"], duration_s=1.0, fluid=FAST, buffer_bdp=4.0),
            dumbbell_scenario(["cubic"] * 2, duration_s=1.0, fluid=FAST, discipline="red"),
        ]
        assert_lockstep_equals_alone(configs)

    def test_groups_reverse_a_scenarios_flow_order(self):
        # The reno group comes first, so the second scenario's flows sit in
        # reversed order in the group-major slots; its link must still sum
        # its flows in their own order.
        configs = [
            dumbbell_scenario(ccas, duration_s=0.5, fluid=FAST)
            for ccas in (["reno", "bbr2"], ["bbr2", "reno"], ["cubic", "bbr1"])
        ]
        assert_lockstep_equals_alone(configs)

    def test_parking_lot_batch(self):
        configs = [
            scenarios.parking_lot_scenario(
                "BBRv1/CUBIC", hops=3, discipline="red", duration_s=0.5
            ),
            dumbbell_scenario(["bbr2", "reno"], duration_s=0.5, fluid=FAST),
            scenarios.parking_lot_scenario(
                "BBRv2/RENO", hops=2, cross_flows=2, buffer_bdp=4.0, duration_s=0.5
            ),
        ]
        assert_lockstep_equals_alone(configs)

    def test_churn_batch(self):
        churn, onoff, static = _churn_onoff_static()
        [churn_trace, *_] = batched = simulate_many([churn, onoff, static])
        assert any(flow.end_time_s is not None for flow in churn_trace.flows)
        for config, trace in zip([churn, onoff, static], batched, strict=True):
            assert_traces_equal(simulate(config), trace)

    def test_empty_and_single(self):
        assert simulate_many([]) == []
        config = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FAST)
        [trace] = simulate_many([config])
        assert trace.num_flows == 1

    def test_mismatched_dt_rejected(self):
        a = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FluidParams(dt=2.5e-4))
        b = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FluidParams(dt=1e-4))
        with pytest.raises(ValueError):
            simulate_many([a, b])

    def test_mismatched_duration_rejected(self):
        a = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FAST)
        b = dumbbell_scenario(["reno"], duration_s=1.0, fluid=FAST)
        with pytest.raises(ValueError):
            simulate_many([a, b])

    @pytest.mark.parametrize(
        ("field_name", "value"),
        [("sigmoid_sharpness", 50.0), ("droptail_exponent", 5.0), ("literal_xmax", True)],
    )
    def test_mismatched_numerics_rejected(self, field_name, value):
        a = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FAST)
        b = dumbbell_scenario(
            ["reno"], duration_s=0.5, fluid=dataclasses.replace(FAST, **{field_name: value})
        )
        with pytest.raises(ValueError, match=field_name):
            simulate_many([a, b])

    def test_each_schedule_materialised_once(self, monkeypatch):
        churn, onoff, static = _churn_onoff_static()
        real = FlowSchedule.materialize
        calls: list[int] = []

        def counting(schedule, num_flows, seed):
            calls.append(num_flows)
            return real(schedule, num_flows, seed)

        monkeypatch.setattr(FlowSchedule, "materialize", counting)
        simulate_many([churn, onoff, static])
        # One call per scheduled scenario; the static one has no schedule.
        assert calls == [churn.num_flows, onoff.num_flows]
