"""Insights 1-6: the qualitative findings of Section 6, checked on the sweep."""

from __future__ import annotations

from conftest import BENCH_BUFFERS, run_once
from _aggregate_common import run_aggregate, series_value


def test_insights(benchmark, sweep_store):
    data = run_once(
        benchmark,
        lambda: {
            "fairness": run_aggregate("jain_fairness", sweep_store),
            "loss": run_aggregate("loss_percent", sweep_store),
            "occupancy": run_aggregate("buffer_occupancy_percent", sweep_store),
            "utilization": run_aggregate("utilization_percent", sweep_store),
        },
    )
    small, large = BENCH_BUFFERS[0], BENCH_BUFFERS[-1]
    loss, fairness = data["loss"], data["fairness"]
    occupancy, utilization = data["occupancy"], data["utilization"]

    # Insight 1 — BBRv1 causes considerable loss; loss-sensitive CCAs ~1%.
    insight1 = (
        series_value(loss, "droptail", "BBRv1", small) > 5.0
        and series_value(loss, "droptail", "BBRv2", large) < 1.0
    )
    # Insight 2 — BBRv1 unfair towards loss-based CCAs in shallow drop-tail
    # buffers; fairness improves with buffer size.
    insight2 = series_value(fairness, "droptail", "BBRv1/RENO", small) < series_value(
        fairness, "droptail", "BBRv1/RENO", large
    )
    # Insight 3 — BBRv1 fully utilises the link but bloats the buffer.
    insight3 = (
        series_value(utilization, "droptail", "BBRv1", small) > 95.0
        and series_value(occupancy, "droptail", "BBRv1", small) > 40.0
    )
    # Insight 4 — BBRv2 reduces buffer usage and loss vs. BBRv1 and is fair.
    insight4 = (
        series_value(occupancy, "droptail", "BBRv2", small)
        < series_value(occupancy, "droptail", "BBRv1", small)
        and series_value(loss, "droptail", "BBRv2", small)
        < series_value(loss, "droptail", "BBRv1", small)
        and series_value(fairness, "droptail", "BBRv2", small) > 0.8
    )
    # Insight 6 — under RED, BBRv2 mixes with loss-based CCAs stay less fair
    # than homogeneous BBRv2.
    insight6 = series_value(fairness, "red", "BBRv2/RENO", large) <= series_value(
        fairness, "red", "BBRv2", large
    ) + 0.05

    print("\nInsights 1-6 (True = reproduced):")
    for name, value in [
        ("Insight 1 (loss bands)", insight1),
        ("Insight 2 (BBRv1 unfairness vs loss-based)", insight2),
        ("Insight 3 (BBRv1 utilization + bufferbloat)", insight3),
        ("Insight 4 (BBRv2 achieves redesign goals)", insight4),
        ("Insight 6 (BBRv2 vs loss-based under RED)", insight6),
    ]:
        print(f"  {name}: {value}")
    assert insight1 and insight2 and insight3 and insight4 and insight6
