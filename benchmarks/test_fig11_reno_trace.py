"""Figure 11: reno single-flow trace validation (fluid model vs. emulator)."""

from __future__ import annotations

from repro.experiments import figures

from conftest import BENCH_DT, TRACE_DURATION, run_once
from _trace_common import print_trace_figure


def test_fig11_reno_trace(benchmark):
    result = run_once(
        benchmark,
        figures.trace_validation_figure,
        "reno",
        duration_s=TRACE_DURATION,
        dt=BENCH_DT,
    )
    print_trace_figure("Figure 11", result)
    for discipline in ("droptail", "red"):
        for substrate in ("fluid", "emulation"):
            data = result[discipline][substrate]
            assert 0.0 <= data["loss_pct"] <= 100.0
            if substrate == "fluid":
                # The fluid model (the paper's contribution) must keep the
                # link busy; the emulator's RED queue has no minimum drop
                # threshold and can collapse loss-sensitive single flows,
                # which is a substrate artifact, not a model prediction.
                assert data["utilization_pct"] > 20.0
