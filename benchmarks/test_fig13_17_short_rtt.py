"""Figures 13-17: aggregate validation for the short-RTT setting (Appendix C)."""

from __future__ import annotations

from repro.experiments import scenarios

from conftest import FULL, run_once
from _aggregate_common import print_aggregate, run_aggregate


SHORT_MIXES = tuple(scenarios.CCA_MIXES) if FULL else ("BBRv1", "BBRv2", "BBRv1/RENO", "BBRv2/RENO")
SHORT_BUFFERS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0) if FULL else (1.0, 7.0)


def test_fig13_17_short_rtt(benchmark, sweep_store):
    def run_short(metric: str):
        return run_aggregate(
            metric, sweep_store, mixes=SHORT_MIXES, buffers_bdp=SHORT_BUFFERS, short_rtt=True
        )

    results = run_once(
        benchmark,
        lambda: {
            "fig13_fairness": run_short("jain_fairness"),
            "fig14_loss": run_short("loss_percent"),
            "fig15_queuing": run_short("buffer_occupancy_percent"),
            "fig16_utilization": run_short("utilization_percent"),
            "fig17_jitter": run_short("jitter_ms"),
        },
    )
    for name, data in results.items():
        print_aggregate(f"{name} (short RTT)", data)
    fairness = results["fig13_fairness"]["droptail"]
    loss = results["fig14_loss"]["droptail"]
    # The short-RTT setting confirms the main-body shapes: BBRv1 unfair to
    # Reno in shallow buffers, BBRv1 loss far above BBRv2 loss.
    assert fairness["BBRv1/RENO"][0][1] < fairness["BBRv2"][0][1]
    assert loss["BBRv1"][0][1] > loss["BBRv2"][0][1]
