"""Equivalence tests: vectorized vs. scalar method-of-steps integration.

The vectorized pipeline (batched history gathers, incidence-matrix link
updates, ``step_all`` CCA groups) must reproduce the scalar reference loop
to within 1e-9 on every recorded series — in practice the two paths execute
the same floating-point operations and agree to the last bit on most
scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FlowConfig, FluidParams, ScenarioConfig, dumbbell_scenario
from repro.core import (
    FluidSimulator,
    RenoFluid,
    available_ccas,
    create_model,
    simulate,
    simulate_many,
)
from repro.core.flow import FluidCCA

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
        batched = simulate_many(configs)
        assert len(batched) == len(configs)
        for config, trace in zip(configs, batched, strict=True):
            assert_traces_match(simulate(config), trace)

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
