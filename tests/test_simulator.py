"""Integration tests of the fluid-model simulator (method of steps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FluidParams, dumbbell_scenario
from repro.core import FluidSimulator, simulate

FAST = FluidParams(dt=2.5e-4)


def run(ccas, **kwargs):
    defaults = dict(buffer_bdp=1.0, duration_s=2.0, fluid=FAST)
    defaults.update(kwargs)
    return simulate(dumbbell_scenario(ccas, **defaults))


class TestTraceStructure:
    def test_time_grid_and_lengths(self, single_bbr1_trace):
        trace = single_bbr1_trace
        assert trace.num_flows == 1
        assert len(trace.links) == 1
        assert len(trace.time) == len(trace.flows[0].rate)
        assert trace.dt == pytest.approx(1e-3, rel=1e-6)
        assert trace.duration == pytest.approx(2.0, abs=2e-3)

    def test_all_series_finite_and_non_negative(self, single_bbr1_trace):
        trace = single_bbr1_trace
        flow = trace.flows[0]
        link = trace.bottleneck()
        for series in (flow.rate, flow.delivery_rate, flow.cwnd, flow.inflight, flow.rtt):
            assert np.all(np.isfinite(series))
            assert np.all(series >= 0)
        assert np.all(link.queue >= 0)
        assert np.all(link.queue <= link.buffer_pkts + 1e-9)
        assert np.all((link.loss_prob >= 0) & (link.loss_prob <= 1))

    def test_extras_recorded_for_bbr(self, single_bbr1_trace, single_bbr2_trace):
        assert "x_btl" in single_bbr1_trace.flows[0].extras
        assert "w_hi" in single_bbr2_trace.flows[0].extras

    def test_substrate_tag(self, single_bbr1_trace):
        assert single_bbr1_trace.substrate == "fluid"

    def test_record_interval_validation(self):
        # A step longer than the fixed trace sampling interval is rejected.
        config = dumbbell_scenario(["bbr1"], fluid=FluidParams(dt=2e-3))
        with pytest.raises(ValueError):
            FluidSimulator(config)


class TestSingleFlowBehaviour:
    def test_bbr1_utilizes_link(self, single_bbr1_trace):
        assert single_bbr1_trace.bottleneck().utilization() > 0.9

    def test_bbr2_utilizes_link_with_small_queue(self, single_bbr2_trace):
        link = single_bbr2_trace.bottleneck()
        assert link.utilization() > 0.9
        assert link.mean_occupancy() < 0.3

    def test_bbr2_causes_less_loss_than_bbr1(self, single_bbr1_trace, single_bbr2_trace):
        assert (
            single_bbr2_trace.bottleneck().loss_fraction()
            <= single_bbr1_trace.bottleneck().loss_fraction() + 1e-9
        )

    def test_reno_window_grows_in_congestion_avoidance(self):
        trace = run(["reno"], duration_s=3.0)
        cwnd = trace.flows[0].cwnd
        assert cwnd[-1] > cwnd[10]

    def test_rtt_includes_queueing_delay(self, single_bbr1_trace):
        trace = single_bbr1_trace
        link = trace.bottleneck()
        rtt = trace.flows[0].rtt
        base = np.min(rtt)
        # Whenever the queue is large, the recorded RTT must exceed the base RTT.
        queued = link.queue > 0.5 * np.max(link.queue) + 1e-9
        if np.any(queued) and np.max(link.queue) > 1.0:
            assert np.all(rtt[queued] > base)

    def test_delivery_never_exceeds_capacity(self, single_bbr1_trace):
        link = single_bbr1_trace.bottleneck()
        assert np.all(single_bbr1_trace.flows[0].delivery_rate <= link.capacity_pps * (1 + 1e-9))


class TestMultiFlowBehaviour:
    def test_flow_start_times_respected(self):
        config = dumbbell_scenario(["bbr1", "bbr1"], duration_s=2.0, fluid=FAST)
        late = config.flows[1].__class__(cca="bbr1", access_delay_s=0.005, start_time_s=1.0)
        config = config.__class__(
            bottleneck=config.bottleneck,
            flows=(config.flows[0], late),
            duration_s=2.0,
            fluid=FAST,
        )
        trace = simulate(config)
        before = trace.time < 0.9
        assert np.all(trace.flows[1].rate[before] == 0.0)
        assert np.any(trace.flows[1].rate[~before] > 0.0)

    def test_red_keeps_queue_smaller_than_droptail_for_bbr1(self):
        droptail = run(["bbr1"] * 4, discipline="droptail", buffer_bdp=2.0, duration_s=3.0)
        red = run(["bbr1"] * 4, discipline="red", buffer_bdp=2.0, duration_s=3.0)
        assert red.bottleneck().mean_occupancy() < droptail.bottleneck().mean_occupancy()

    def test_bbr1_starves_reno_in_shallow_droptail_buffer(self):
        trace = run(["bbr1"] * 3 + ["reno"] * 3, buffer_bdp=1.0, duration_s=4.0)
        bbr_goodput = sum(f.mean_goodput() for f in trace.flows if f.cca == "bbr1")
        reno_goodput = sum(f.mean_goodput() for f in trace.flows if f.cca == "reno")
        assert bbr_goodput > 2.0 * reno_goodput

    def test_aggregate_arrival_matches_flow_rates(self):
        trace = run(["bbr1", "reno"], duration_s=2.0)
        # After the first RTT, the bottleneck arrival rate must track the sum
        # of (delayed) flow sending rates to within a coarse tolerance.
        total = np.sum([f.rate for f in trace.flows], axis=0)
        window = trace.time > 0.5
        ratio = np.mean(trace.bottleneck().arrival_rate[window]) / np.mean(total[window])
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_bbr1_homogeneous_full_utilization(self):
        trace = run(["bbr1"] * 4, duration_s=3.0, buffer_bdp=2.0)
        assert trace.bottleneck().utilization() > 0.95


class TestTraceOperations:
    def test_after_drops_warmup(self, single_bbr1_trace):
        trimmed = single_bbr1_trace.after(1.0)
        assert trimmed.time[0] >= 1.0
        assert trimmed.num_flows == single_bbr1_trace.num_flows

    def test_after_beyond_end_rejected(self, single_bbr1_trace):
        with pytest.raises(ValueError):
            single_bbr1_trace.after(100.0)

    def test_normalized_rows_keys(self, single_bbr1_trace):
        rows = single_bbr1_trace.normalized_rows()
        assert set(rows) == {"time", "rate_pct", "queue_pct", "loss_pct", "rtt_excess_pct"}
        assert np.all(rows["queue_pct"] <= 100.0 + 1e-6)
