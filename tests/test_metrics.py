"""Tests of trace containers, fairness, and aggregate metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    FlowTrace,
    LinkTrace,
    Trace,
    aggregate_metrics,
    buffer_occupancy_percent,
    jain_index,
    jitter_ms,
    loss_percent,
    per_cca_share,
    resample,
    trace_fairness,
    utilization_percent,
)


def make_trace(
    rates: list[float], capacity: float = 1000.0, queue_level: float = 50.0
) -> Trace:
    """Build a small synthetic trace with constant per-flow rates."""
    n_samples = 20
    time = np.linspace(0.0, 1.0, n_samples)
    flows = []
    for i, rate in enumerate(rates):
        flows.append(
            FlowTrace(
                cca="reno" if i % 2 == 0 else "bbr1",
                rate=np.full(n_samples, rate),
                delivery_rate=np.full(n_samples, rate),
                cwnd=np.full(n_samples, 10.0),
                inflight=np.full(n_samples, 5.0),
                rtt=np.full(n_samples, 0.03),
            )
        )
    total = sum(rates)
    links = [
        LinkTrace(
            name="bottleneck",
            capacity_pps=capacity,
            buffer_pkts=100.0,
            queue=np.full(n_samples, queue_level),
            loss_prob=np.full(n_samples, 0.1),
            arrival_rate=np.full(n_samples, total),
            departure_rate=np.full(n_samples, min(total, capacity)),
        )
    ]
    return Trace(time=time, flows=flows, links=links)


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_user_monopoly(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([-1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
    def test_bounds(self, allocations):
        value = jain_index(allocations)
        assert 1.0 / len(allocations) - 1e-9 <= value <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=20),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_scale_invariance(self, allocations, scale):
        assert jain_index(allocations) == pytest.approx(
            jain_index([scale * a for a in allocations]), rel=1e-6
        )

    def test_denormal_allocation_regression(self):
        # Regression: values**2 underflows to 0 while the sum does not,
        # which used to raise ZeroDivisionError.
        assert jain_index([1.47e-282]) == pytest.approx(1.0)
        assert jain_index([5e-324, 5e-324]) == pytest.approx(1.0)

    def test_huge_allocations_do_not_overflow(self):
        # values**2 == inf for anything above ~1.3e154.
        assert jain_index([1e300, 1e300]) == pytest.approx(1.0)
        assert jain_index([1e308, 0.0]) == pytest.approx(0.5)

    def test_mixed_magnitudes(self):
        # A denormal flow next to a huge one: the tiny flow is starved.
        assert jain_index([1e-320, 1e300]) == pytest.approx(0.5)

    def test_infinite_allocations_take_the_limit(self):
        assert jain_index([np.inf, 1.0]) == pytest.approx(0.5)
        assert jain_index([np.inf, np.inf]) == pytest.approx(1.0)
        assert jain_index([np.inf, np.inf, 0.0, 5.0]) == pytest.approx(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            jain_index([np.nan, 1.0])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e308, allow_subnormal=True),
            min_size=1,
            max_size=30,
        )
    )
    def test_bounds_extreme_magnitudes(self, allocations):
        value = jain_index(allocations)
        assert np.isfinite(value)
        assert 1.0 / len(allocations) - 1e-9 <= value <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(min_value=1e-320, max_value=1e-280), min_size=2, max_size=10),
    )
    def test_denormal_lists_match_rescaled(self, allocations):
        # Scaling a denormal allocation into a normal range must not change
        # the index (up to the precision lost by the denormals themselves).
        scaled = [a * 1e290 for a in allocations]
        assert jain_index(allocations) == pytest.approx(jain_index(scaled), rel=1e-3)


class TestTraceMetrics:
    def test_fairness_from_trace(self):
        trace = make_trace([100.0, 100.0, 100.0, 100.0])
        assert trace_fairness(trace) == pytest.approx(1.0)

    def test_unfair_trace(self):
        trace = make_trace([900.0, 10.0])
        assert trace_fairness(trace) < 0.6

    def test_per_cca_share_sums_to_one(self):
        trace = make_trace([300.0, 100.0, 300.0, 100.0])
        shares = per_cca_share(trace)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["reno"] == pytest.approx(0.75)

    def test_tiny_goodput_trace_fairness(self):
        # Denormal goodputs must neither crash nor produce NaN.
        trace = make_trace([1.47e-282, 1.47e-282])
        assert trace_fairness(trace) == pytest.approx(1.0)
        trace = make_trace([1e-320, 2e-320, 4e-320])
        value = trace_fairness(trace)
        assert np.isfinite(value)
        assert 1.0 / 3.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_huge_goodput_trace_fairness(self):
        trace = make_trace([1e300, 1e300, 1e300, 1e300])
        assert trace_fairness(trace) == pytest.approx(1.0)

    def test_per_cca_share_denormal_goodputs(self):
        shares = per_cca_share(make_trace([1e-320, 1e-320]))
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["reno"] == pytest.approx(0.5)

    def test_per_cca_share_huge_goodputs(self):
        # Totals overflow to inf on purpose: the inf limit must still yield
        # a normalised share vector.
        with np.errstate(over="ignore"):
            shares = per_cca_share(make_trace([1e308, 1e308, 1e308, 1e308]))
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_per_cca_share_all_zero(self):
        shares = per_cca_share(make_trace([0.0, 0.0]))
        assert shares == {"reno": 0.0, "bbr1": 0.0}

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e308, allow_subnormal=True),
            min_size=1,
            max_size=8,
        )
    )
    def test_trace_fairness_extreme_magnitudes(self, rates):
        with np.errstate(over="ignore"):
            value = trace_fairness(make_trace(rates))
        assert np.isfinite(value)
        assert 1.0 / len(rates) - 1e-9 <= value <= 1.0 + 1e-9

    def test_loss_percent(self):
        trace = make_trace([500.0, 500.0])
        assert loss_percent(trace) == pytest.approx(10.0)

    def test_occupancy_percent(self):
        trace = make_trace([500.0], queue_level=25.0)
        assert buffer_occupancy_percent(trace) == pytest.approx(25.0)

    def test_utilization_percent_capped(self):
        trace = make_trace([900.0, 900.0], capacity=1000.0)
        assert utilization_percent(trace) == pytest.approx(100.0)

    def test_constant_rtt_has_zero_jitter(self):
        trace = make_trace([500.0])
        assert jitter_ms(trace) == pytest.approx(0.0, abs=1e-9)

    def test_jitter_positive_for_varying_rtt(self):
        trace = make_trace([500.0])
        trace.flows[0].rtt = 0.03 + 0.005 * np.sin(np.linspace(0, 20, len(trace.time)))
        assert jitter_ms(trace) > 0.0

    def test_aggregate_metrics_bundle(self):
        metrics = aggregate_metrics(make_trace([500.0, 500.0]))
        as_dict = metrics.as_dict()
        assert set(as_dict) == {
            "jain_fairness",
            "loss_percent",
            "buffer_occupancy_percent",
            "utilization_percent",
            "jitter_ms",
            "fct_p50_s",
            "fct_p95_s",
            "fct_p99_s",
            "active_jain_fairness",
            "mean_active_flows",
        }
        assert as_dict["jain_fairness"] == pytest.approx(1.0)
        # Long-lived flows: no completions, so the FCT columns are NaN and
        # the active-set fields degenerate to whole-population values.
        assert np.isnan(as_dict["fct_p50_s"])
        assert as_dict["mean_active_flows"] == pytest.approx(2.0)


class TestTraceContainers:
    def test_mismatched_lengths_rejected(self):
        time = np.linspace(0, 1, 10)
        flow = FlowTrace(
            cca="reno",
            rate=np.zeros(5),
            delivery_rate=np.zeros(5),
            cwnd=np.zeros(5),
            inflight=np.zeros(5),
            rtt=np.zeros(5),
        )
        with pytest.raises(ValueError):
            Trace(time=time, flows=[flow], links=[])

    def test_flowtrace_requires_equal_series(self):
        with pytest.raises(ValueError):
            FlowTrace(
                cca="reno",
                rate=np.zeros(5),
                delivery_rate=np.zeros(4),
                cwnd=np.zeros(5),
                inflight=np.zeros(5),
                rtt=np.zeros(5),
            )

    def test_bottleneck_selection_picks_smallest_capacity(self):
        trace = make_trace([100.0])
        extra_link = LinkTrace(
            name="fast",
            capacity_pps=10_000.0,
            buffer_pkts=100.0,
            queue=np.zeros(len(trace.time)),
            loss_prob=np.zeros(len(trace.time)),
            arrival_rate=np.zeros(len(trace.time)),
            departure_rate=np.zeros(len(trace.time)),
        )
        trace.links.append(extra_link)
        assert trace.bottleneck().name == "bottleneck"

    def test_resample_interpolates(self):
        time = np.array([0.0, 1.0])
        values = np.array([0.0, 10.0])
        out = resample(time, values, np.array([0.5]))
        assert out[0] == pytest.approx(5.0)

    def test_resample_length_mismatch(self):
        with pytest.raises(ValueError):
            resample(np.zeros(3), np.zeros(2), np.zeros(1))


def lean_trace() -> Trace:
    """``make_trace`` as a lean fluid record keeps it: no rate/cwnd/inflight."""
    full = make_trace([100.0, 300.0])
    flows = [
        FlowTrace(
            cca=flow.cca,
            rate=None,
            delivery_rate=flow.delivery_rate,
            cwnd=None,
            inflight=None,
            rtt=flow.rtt,
        )
        for flow in full.flows
    ]
    return Trace(time=full.time, flows=flows, links=full.links)


class TestAbsentSeries:
    """A series a fluid run did not record is ``None``, and readers say so."""

    def test_lengths_checked_across_present_series_only(self):
        FlowTrace(cca="reno", rate=None, delivery_rate=np.zeros(5), cwnd=None,
                  inflight=None, rtt=np.zeros(5))
        with pytest.raises(ValueError, match="equal length"):
            FlowTrace(cca="reno", rate=None, delivery_rate=np.zeros(5), cwnd=None,
                      inflight=None, rtt=np.zeros(4))

    def test_trace_checks_delivery_rate_against_time(self):
        flow = FlowTrace(cca="reno", rate=None, delivery_rate=np.zeros(5), cwnd=None,
                         inflight=None, rtt=None)
        Trace(time=np.linspace(0, 1, 5), flows=[flow], links=[])
        with pytest.raises(ValueError, match="time grid"):
            Trace(time=np.linspace(0, 1, 6), flows=[flow], links=[])

    def test_after_passes_absent_series_through(self):
        trace = lean_trace()
        late = trace.after(0.5)
        for flow, source in zip(late.flows, trace.flows, strict=True):
            assert flow.rate is flow.cwnd is flow.inflight is None
            assert flow.extras == {}
            assert len(flow.delivery_rate) == len(flow.rtt) == len(late.time)
            assert np.array_equal(flow.rtt, source.rtt[trace.time >= 0.5])

    def test_metrics_compute_on_the_series_they_read(self):
        lean, full = lean_trace(), make_trace([100.0, 300.0])
        assert aggregate_metrics(lean) == aggregate_metrics(full)

    def test_mean_rate_names_the_missing_series(self):
        flow = lean_trace().flows[0]
        assert flow.mean_goodput() == pytest.approx(100.0)
        with pytest.raises(ValueError, match="'rate'"):
            flow.mean_rate()
        with pytest.raises(ValueError, match="'rate'"):
            trace_fairness(lean_trace(), use_goodput=False)

    def test_normalized_rows_names_the_missing_series(self):
        with pytest.raises(ValueError, match="'rate'"):
            lean_trace().normalized_rows()
        trace = make_trace([100.0, 300.0])
        trace.flows[0].rtt = None
        with pytest.raises(ValueError, match="'rtt'"):
            trace.normalized_rows()

    def test_nbytes_counts_each_recorded_array_once(self):
        full, lean = make_trace([100.0, 300.0]), lean_trace()
        row = full.time.nbytes
        # time + 5 series per flow + 4 per link; the lean trace keeps 2 per flow.
        assert full.nbytes == row * (1 + 2 * 5 + 4)
        assert lean.nbytes == row * (1 + 2 * 2 + 4)
        full.flows[0].extras["cwnd"] = full.flows[0].cwnd
        assert full.nbytes == row * (1 + 2 * 5 + 4)
