"""Figure 7: loss rate vs. buffer size for the seven CCA mixes."""

from __future__ import annotations

from conftest import BENCH_BUFFERS, run_once
from _aggregate_common import print_aggregate, run_aggregate, series_value


def test_fig07_loss(benchmark, sweep_store):
    data = run_once(benchmark, run_aggregate, "loss_percent", sweep_store)
    print_aggregate("Figure 7 — loss [%]", data)
    small, large = BENCH_BUFFERS[0], BENCH_BUFFERS[-1]
    # Paper shape 1: BBRv1 causes considerable loss in shallow drop-tail
    # buffers, decreasing with buffer size.  (The fluid model is started from
    # post-start-up estimates, which exaggerates the absolute shallow-buffer
    # loss relative to the paper; the shape, not the level, is checked.)
    bbr1_small = series_value(data, "droptail", "BBRv1", small)
    bbr1_large = series_value(data, "droptail", "BBRv1", large)
    assert bbr1_small > 5.0
    assert bbr1_large < bbr1_small
    # Paper shape 2: the loss of loss-sensitive CCAs goes to (near) zero for
    # increasing buffer sizes and stays far below BBRv1's.
    assert series_value(data, "droptail", "BBRv2", large) < 1.0
    assert series_value(data, "droptail", "BBRv2", small) < bbr1_small
