"""Figure 8: buffer occupancy vs. buffer size, plus the Insight 5 ablation."""

from __future__ import annotations

from repro.experiments import figures

from conftest import BENCH_BUFFERS, BENCH_DURATION, run_once
from _aggregate_common import print_aggregate, run_aggregate, series_value


def test_fig08_queuing(benchmark, sweep_store):
    data = run_once(benchmark, run_aggregate, "buffer_occupancy_percent", sweep_store)
    print_aggregate("Figure 8 — buffer occupancy [%]", data)
    small = BENCH_BUFFERS[0]
    # Paper shape 1: BBRv1 keeps the buffer heavily used in shallow buffers.
    assert series_value(data, "droptail", "BBRv1", small) > 40.0
    # Paper shape 2: homogeneous BBRv2 uses far less buffer than BBRv1.
    assert series_value(data, "droptail", "BBRv2", small) < series_value(
        data, "droptail", "BBRv1", small
    )
    # Paper shape 3: RED keeps queues much shorter than drop-tail for BBRv1.
    assert series_value(data, "red", "BBRv1", small) < series_value(
        data, "droptail", "BBRv1", small
    )


def test_fig08_insight5_bbr2_large_buffers(benchmark, sweep_store):
    result = run_once(
        benchmark,
        figures.figure_8_insight5,
        buffers_bdp=(1.0, 5.0, 7.0),
        duration_s=BENCH_DURATION,
        store=sweep_store,
    )
    print("\nInsight 5 — BBRv2 buffer occupancy with start-up-distorted inflight_hi")
    for row in result["rows"]:
        print(
            f"  buffer={row['buffer_bdp']:.0f} BDP  default w_hi: "
            f"{row['occupancy_default_pct']:5.1f}%  distorted w_hi: "
            f"{row['occupancy_startup_distorted_pct']:5.1f}%"
        )
    rows = {row["buffer_bdp"]: row for row in result["rows"]}
    # The start-up-distorted initial condition must increase buffer usage in
    # large buffers relative to the well-initialised model.
    assert (
        rows[7.0]["occupancy_startup_distorted_pct"]
        >= rows[7.0]["occupancy_default_pct"]
    )
