"""Figure 9: bottleneck utilization vs. buffer size."""

from __future__ import annotations

from conftest import BENCH_BUFFERS, run_once
from _aggregate_common import print_aggregate, run_aggregate, series_value


def test_fig09_utilization(benchmark, sweep_store):
    data = run_once(benchmark, run_aggregate, "utilization_percent", sweep_store)
    print_aggregate("Figure 9 — utilization [%]", data)
    small, large = BENCH_BUFFERS[0], BENCH_BUFFERS[-1]
    # Paper shape 1: BBRv1 (and mixes containing it) fully utilise the link.
    assert series_value(data, "droptail", "BBRv1", small) > 95.0
    assert series_value(data, "droptail", "BBRv1/RENO", large) > 95.0
    # Paper shape 2: every mix keeps utilization high (>90%) in deep buffers.
    for mix in ("BBRv2", "BBRv2/RENO", "BBRv1/CUBIC"):
        assert series_value(data, "droptail", mix, large) > 85.0
