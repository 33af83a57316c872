"""Figure 6: Jain fairness vs. buffer size for the seven CCA mixes."""

from __future__ import annotations

from conftest import BENCH_BUFFERS, run_once
from _aggregate_common import print_aggregate, run_aggregate, series_value


def test_fig06_fairness(benchmark, sweep_store):
    data = run_once(benchmark, run_aggregate, "jain_fairness", sweep_store)
    print_aggregate("Figure 6 — Jain fairness", data)
    small, large = BENCH_BUFFERS[0], BENCH_BUFFERS[-1]
    # Paper shape 1: BBRv1 vs. loss-based CCAs is the least fair setting in
    # shallow drop-tail buffers and improves with buffer size.
    assert series_value(data, "droptail", "BBRv1/RENO", small) < 0.75
    assert series_value(data, "droptail", "BBRv1/RENO", large) > series_value(
        data, "droptail", "BBRv1/RENO", small
    )
    # Paper shape 2: homogeneous BBRv2 is close to fair everywhere.
    assert series_value(data, "droptail", "BBRv2", small) > 0.8
    # Paper shape 3: under RED, BBRv1 stays unfair to Reno across buffer sizes.
    assert series_value(data, "red", "BBRv1/RENO", large) < 0.8
