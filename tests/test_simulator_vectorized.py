"""Equivalence tests: vectorized vs. scalar method-of-steps integration.

The vectorized pipeline (batched history gathers, incidence-matrix link
updates, ``step_all`` CCA groups) must reproduce the scalar reference loop
to within 1e-9 on every recorded series — in practice the two paths execute
the same floating-point operations and agree to the last bit on most
scenarios.  A scenario in a :func:`simulate_many` lockstep batch must
reproduce its run alone exactly, bit for bit.
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


def assert_traces_match(a, b, rtol=1e-9, atol=1e-9):
    np.testing.assert_allclose(a.time, b.time, rtol=rtol, atol=atol)
    assert len(a.flows) == len(b.flows)
    for fa, fb in zip(a.flows, b.flows, strict=True):
        assert fa.cca == fb.cca
        for name in FLOW_SERIES:
            np.testing.assert_allclose(
                getattr(fa, name), getattr(fb, name), rtol=rtol, atol=atol,
                err_msg=f"flow series {name!r} diverged",
            )
        assert set(fa.extras) == set(fb.extras)
        for key in fa.extras:
            np.testing.assert_allclose(
                fa.extras[key], fb.extras[key], rtol=rtol, atol=atol,
                err_msg=f"extras {key!r} diverged",
            )
    assert len(a.links) == len(b.links)
    for la, lb in zip(a.links, b.links, strict=True):
        for name in LINK_SERIES:
            np.testing.assert_allclose(
                getattr(la, name), getattr(lb, name), rtol=rtol, atol=atol,
                err_msg=f"link series {name!r} diverged",
            )


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


def run_both(ccas, duration_s=1.0, **kwargs):
    config = dumbbell_scenario(ccas, duration_s=duration_s, fluid=FAST, **kwargs)
    scalar = simulate(config, vectorized=False)
    vectorized = simulate(config, vectorized=True)
    return scalar, vectorized


class TestScalarVectorizedEquivalence:
    def test_reno_homogeneous(self):
        assert_traces_match(*run_both(["reno"] * 4))

    def test_cubic_homogeneous(self):
        assert_traces_match(*run_both(["cubic"] * 4))

    def test_bbr1_homogeneous(self):
        assert_traces_match(*run_both(["bbr1"] * 4))

    def test_bbr2_homogeneous(self):
        assert_traces_match(*run_both(["bbr2"] * 4))

    def test_mixed_all_ccas(self):
        assert_traces_match(*run_both(["bbr1", "bbr2", "reno", "cubic", "reno"]))

    def test_mixed_bbr_scenario_red(self):
        assert_traces_match(*run_both(["bbr1", "bbr1", "reno", "bbr2"], discipline="red"))

    def test_single_flow(self):
        assert_traces_match(*run_both(["bbr1"]))

    def test_staggered_start_times(self):
        base = dumbbell_scenario(["reno", "bbr1", "cubic"], duration_s=1.5, fluid=FAST)
        flows = (
            base.flows[0],
            FlowConfig(cca="bbr1", access_delay_s=0.006, start_time_s=0.5),
            FlowConfig(cca="cubic", access_delay_s=0.007, start_time_s=0.9),
        )
        config = ScenarioConfig(
            bottleneck=base.bottleneck, flows=flows, duration_s=1.5, fluid=FAST
        )
        scalar = simulate(config, vectorized=False)
        vectorized = simulate(config, vectorized=True)
        assert_traces_match(scalar, vectorized)
        # Late flows must be silent before their start time on both paths.
        early = vectorized.time < 0.45
        assert np.all(vectorized.flows[1].rate[early] == 0.0)


class _TunedReno(RenoFluid):
    """A user-defined model: inherits Reno's batched path unchanged."""


class TestBatchedModels:
    """Every model runs batched: the vectorized run has no per-flow fallback."""

    @pytest.mark.parametrize("name", available_ccas())
    def test_registered_model_batches(self, name):
        first, second = create_model(name), create_model(name)
        assert first.batch_key() == second.batch_key()
        assert hash(first.batch_key()) == hash(second.batch_key())
        assert type(first).step_all is not FluidCCA.step_all

    @pytest.mark.parametrize("name", available_ccas())
    def test_state_block_follows_the_declaration(self, name):
        # make_batch packs each state's fields in declared row order, and
        # the batched trace hooks read back what the scalar ones return.
        model = create_model(name)
        config = dumbbell_scenario([name] * 3, fluid=FAST)
        network = Network.from_scenario(config)
        states = [model.initial_state(i, 3, network, config.fluid) for i in range(3)]
        for k, state in enumerate(states):
            state.inflight = 10.0 * k
        batch = model.make_batch(states)
        assert batch.block.shape == (1 + len(model.traced) + len(model.untraced), 3)
        np.testing.assert_array_equal(batch.block[0], [0.0, 10.0, 20.0])
        np.testing.assert_array_equal(
            model.congestion_window_all(batch),
            [model.congestion_window(state) for state in states],
        )
        fields = model.trace_fields_all(batch)
        assert list(fields) == list(model.trace_fields(states[0])) == list(model.traced)
        for key, row in fields.items():
            np.testing.assert_array_equal(row, [s.extra[key] for s in states])

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
        class ScalarOnly(FluidCCA):
            def initial_state(self, flow_index, num_flows, network, params):
                raise NotImplementedError

            def step(self, state, inputs):
                raise NotImplementedError

        with pytest.raises(TypeError, match="batch_key"):
            ScalarOnly()

    def test_custom_model_in_vectorized_run(self):
        config = dumbbell_scenario(["reno", "reno", "bbr1"], duration_s=1.0, fluid=FAST)
        scalar = FluidSimulator(config, models={0: _TunedReno()}, vectorized=False).run()
        vectorized = FluidSimulator(config, models={0: _TunedReno()}, vectorized=True).run()
        assert_traces_match(scalar, vectorized)


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
        churn = scenarios.churn_scenario(
            "BBRv1/RENO", num_flows=12, load=0.8, duration_s=0.5
        )
        onoff = dataclasses.replace(
            dumbbell_scenario(["cubic", "bbr2", "bbr1"], duration_s=0.5, fluid=FAST),
            schedule=FlowSchedule(arrivals="onoff", on_time_s=0.2, off_time_s=0.1),
        )
        static = dumbbell_scenario(["bbr1", "cubic"], duration_s=0.5, fluid=FAST)
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
