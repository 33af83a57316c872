"""Time-varying flow populations: FlowSchedule across both substrates.

Three concerns:

* **backward identity** — attaching no schedule must leave both substrates
  exactly on their historical trajectories: bit-identical fluid traces
  through both integrator pipelines, count-identical emulator runs through
  both schedulers;
* **churn semantics** — finite flows complete and record their FCT, on/off
  sources stop on time, both substrates agree on the materialised workload;
* **emulator hygiene** — departed senders stop occupying the event heap,
  so the live-event peak stays O(active flows + links) under churn.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import FlowSchedule, FluidParams, dumbbell_scenario
from repro.core.simulator import simulate, simulate_many
from repro.emulation.runner import EmulationRunner, emulate
from repro.experiments import scenarios
from repro.metrics import (
    active_flow_counts,
    active_jain_fairness,
    fct_percentile_s,
    flow_completion_times,
    mean_active_flows,
)

FLUID = FluidParams(dt=5e-4)


def _trace_digest(trace) -> str:
    """A bitwise digest of every numeric series of a trace."""
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(trace.time).tobytes())
    for flow in trace.flows:
        for series in (flow.rate, flow.delivery_rate, flow.cwnd, flow.inflight, flow.rtt):
            sha.update(np.ascontiguousarray(series).tobytes())
    for link in trace.links:
        for series in (link.queue, link.loss_prob, link.departure_rate):
            sha.update(np.ascontiguousarray(series).tobytes())
    return sha.hexdigest()


class TestBackwardIdentity:
    """Schedule-free configs stay on their historical trajectories."""

    def test_fluid_pipelines_bit_identical_without_schedule(self):
        # Homogeneous mix: scalar and vectorized pipelines are bitwise
        # comparable there (mixed-CCA bit equality is a separate, pre-
        # existing non-goal of the vectorized pipeline).
        config = dumbbell_scenario(
            ["bbr1", "bbr1"], buffer_bdp=1.0, duration_s=1.5, fluid=FLUID
        )
        assert config.schedule is None
        scalar = simulate(config)
        vectorized = simulate(config, vectorized=True)
        assert _trace_digest(scalar) == _trace_digest(vectorized)

    def test_noop_staggered_schedule_matches_scheduleless_fluid(self):
        # An all-flows-at-t0, infinite-size schedule is the schedule-free
        # workload; the masked integrator must reproduce it bit-for-bit.
        base = dumbbell_scenario(
            ["bbr1", "reno"], buffer_bdp=1.0, duration_s=1.5, fluid=FLUID
        )
        noop = dataclasses.replace(
            base,
            schedule=FlowSchedule(arrivals="staggered", arrival_spacing_s=0.0),
        )
        for vectorized in (False, True):
            assert _trace_digest(
                simulate(base, vectorized=vectorized)
            ) == _trace_digest(simulate(noop, vectorized=vectorized))

    def test_emulator_schedulers_count_identical_without_schedule(self):
        config = dumbbell_scenario(["bbr1", "reno"], buffer_bdp=1.0, duration_s=1.5)
        counts = {}
        for scheduler in ("delayline", "closure"):
            runner = EmulationRunner(config, scheduler=scheduler)
            runner.run()
            counts[scheduler] = sorted(
                (fid, s.sent_count, s.delivered_count)
                for fid, s in runner.senders.items()
            )
        assert counts["delayline"] == counts["closure"]

    def test_scheduleless_metrics_have_nan_fct(self):
        trace = simulate(
            dumbbell_scenario(["bbr1"], buffer_bdp=1.0, duration_s=1.0, fluid=FLUID)
        )
        assert flow_completion_times(trace).size == 0
        assert np.isnan(fct_percentile_s(trace, 50))
        # The active-set fields degenerate to whole-population values.
        assert mean_active_flows(trace) == pytest.approx(1.0)
        assert 0.0 < active_jain_fairness(trace) <= 1.0


class TestChurnSemantics:
    def test_finite_flows_complete_and_record_fct(self):
        config = dataclasses.replace(
            dumbbell_scenario(
                ["bbr1", "reno", "cubic", "bbr2"],
                buffer_bdp=1.0,
                duration_s=5.0,
            ),
            schedule=FlowSchedule(
                arrivals="staggered",
                arrival_spacing_s=0.25,
                size_dist="fixed",
                mean_size_packets=200.0,
            ),
        )
        runner = EmulationRunner(config)
        trace = runner.run()
        for i, sender in runner.senders.items():
            assert sender.sent_count >= 200
            assert sender.completed_time_s is not None
        fcts = flow_completion_times(trace)
        assert fcts.size == 4
        assert np.all(fcts > 0)
        starts = [flow.start_time_s for flow in trace.flows]
        assert starts == pytest.approx([0.0, 0.25, 0.5, 0.75])

    def test_onoff_sources_stop_on_time(self):
        config = dataclasses.replace(
            dumbbell_scenario(["bbr1", "bbr1"], buffer_bdp=1.0, duration_s=4.0),
            schedule=FlowSchedule(arrivals="onoff", on_time_s=1.0, off_time_s=1.0),
        )
        trace = emulate(config)
        for flow in trace.flows:
            assert flow.end_time_s == pytest.approx(flow.start_time_s + 1.0)

    def test_substrates_materialise_identical_workload(self):
        config = scenarios.churn_scenario(
            "BBRv1", num_flows=6, arrivals="poisson", load=0.4, duration_s=3.0, seed=7
        )
        fluid = simulate(config)
        emu = emulate(config)
        for f_flow, e_flow in zip(fluid.flows, emu.flows, strict=True):
            assert f_flow.start_time_s == pytest.approx(e_flow.start_time_s)

    def test_fluid_completion_tracks_delivered_volume(self):
        config = dataclasses.replace(
            dumbbell_scenario(["bbr1", "bbr1"], buffer_bdp=1.0, duration_s=5.0, fluid=FLUID),
            schedule=FlowSchedule(
                arrivals="staggered",
                arrival_spacing_s=0.5,
                size_dist="fixed",
                mean_size_packets=300.0,
            ),
        )
        trace = simulate(config)
        assert flow_completion_times(trace).size == 2
        counts = active_flow_counts(trace)
        assert counts.max() <= 2
        assert counts[-1] == 0  # both flows departed before the end

    def test_simulate_many_mixes_churn_and_scheduleless(self):
        churn = scenarios.churn_scenario(
            "BBRv1", num_flows=4, arrivals="poisson", load=0.4, duration_s=2.0, seed=3
        )
        plain = dumbbell_scenario(
            ["bbr1"], buffer_bdp=1.0, duration_s=2.0, fluid=churn.fluid
        )
        batch = simulate_many([churn, plain, churn])
        solo = [simulate(churn), simulate(plain), simulate(churn)]
        for batched, single in zip(batch, solo, strict=True):
            assert _trace_digest(batched) == _trace_digest(single)

    def test_fluid_random_schedule_is_seeded(self):
        def starts(seed: int, duration_s: float = 30.0) -> list[float]:
            config = scenarios.churn_scenario(
                "BBRv1", num_flows=4, arrivals="poisson", seed=seed, duration_s=duration_s
            )
            assert config.schedule is not None
            arrivals = config.schedule.materialize(config.num_flows, config.seed)
            return [arrival.start_time_s for arrival in arrivals]

        assert starts(1) != starts(2)
        # Same seed reproduces the identical workload.
        assert starts(1) == starts(1)
        # The fluid trace starts its flows exactly at the materialised times.
        for seed in (1, 2):
            config = scenarios.churn_scenario(
                "BBRv1", num_flows=4, arrivals="poisson", seed=seed, duration_s=0.5
            )
            traced = [f.start_time_s for f in simulate(config).flows]
            assert traced == starts(seed, duration_s=0.5)


class TestEmulatorHeapHygiene:
    def test_heap_peak_bounded_by_active_flows(self):
        # 30 short flows churning through a 4-second run: the live-event
        # count must track the *active* population (each live sender holds
        # at most a pacing timer, a watchdog, a stop timer and its two
        # delay lines' timers), not the total flow count, and the heap must
        # drain once every flow has departed.
        num_flows = 30
        config = scenarios.churn_scenario(
            "BBRv1",
            num_flows=num_flows,
            arrivals="poisson",
            load=0.3,
            size_dist="fixed",
            mean_size_packets=150.0,
            duration_s=4.0,
            seed=5,
        )
        runner = EmulationRunner(config)
        for sender in runner.senders.values():
            sender.start()
        peak_live = 0
        peak_active = 0
        for i in range(1, 41):
            runner.events.run(i * 0.1)
            active = sum(
                1
                for s in runner.senders.values()
                if s.start_time_s <= runner.events.now and s.completed_time_s is None
            )
            peak_live = max(peak_live, len(runner.events))
            peak_active = max(peak_active, active)
        # Generous per-flow constant (timers + per-entity delay lines), but
        # strict enough that leaked timers of departed flows would fail.
        links = 2 * len(runner.senders) + 1  # access + return lines + bottleneck
        assert peak_active < num_flows  # churn actually overlapped partially
        assert peak_live <= 6 * peak_active + links
        # After the configured horizon every flow has either completed or
        # been cut off; completed senders must occupy zero heap slots.
        runner.events.run(60.0)
        done = [s for s in runner.senders.values() if s.completed_time_s is not None]
        assert len(done) == num_flows
        assert len(runner.events) == 0
