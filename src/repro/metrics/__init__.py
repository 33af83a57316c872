"""Trace containers and aggregate performance metrics."""

from .aggregate import (
    METRIC_SERIES,
    AggregateMetrics,
    LinkMetrics,
    MetricsSummary,
    aggregate_metrics,
    buffer_occupancy_percent,
    jitter_ms,
    link_metrics,
    loss_percent,
    summarize_metrics,
    utilization_percent,
)
from .churn import (
    active_flow_counts,
    active_flow_mask,
    active_jain_fairness,
    fct_percentile_s,
    flow_completion_times,
    mean_active_flows,
)
from .fairness import jain_index, per_cca_share, trace_fairness
from .traces import FlowTrace, LinkTrace, Trace, resample

__all__ = [
    "METRIC_SERIES",
    "AggregateMetrics",
    "LinkMetrics",
    "MetricsSummary",
    "aggregate_metrics",
    "link_metrics",
    "summarize_metrics",
    "buffer_occupancy_percent",
    "jitter_ms",
    "loss_percent",
    "utilization_percent",
    "active_flow_counts",
    "active_flow_mask",
    "active_jain_fairness",
    "fct_percentile_s",
    "flow_completion_times",
    "mean_active_flows",
    "jain_index",
    "per_cca_share",
    "trace_fairness",
    "FlowTrace",
    "LinkTrace",
    "Trace",
    "resample",
]
