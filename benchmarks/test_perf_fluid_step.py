"""Micro-benchmark of the fluid integrator: steps/second, scalar vs. vectorized.

Records the integrator throughput in the untracked
``benchmarks/BENCH_perf_fluid_step.json``, with the speedups of the
vectorization work against the scalar loop (kept in-tree, bit-for-bit, as
the ``vectorized=False`` reference):

* the production-scale population (60 mixed-CCA senders),
* the multi-scenario lockstep path (``simulate_many``, which the aggregate
  sweeps of Figs. 6-10/13-17 run on), and
* the paper-shaped 20-sender scenario, where per-step numpy dispatch
  overhead bites hardest.

The speedups are recorded, not asserted: a wall-clock ratio is too noisy
to gate tier-1.

A second benchmark records the **churn scaling curve**: vectorized
integrator throughput at 100/500/1000/2000 flows under a Poisson /
bounded-Pareto flow schedule (active-flow masking on), so the cost of
large time-varying populations is tracked release over release.

All comparisons are apples-to-apples and all paths produce numerically
identical traces (see ``tests/test_simulator_vectorized.py``); rate-trace
equivalence is re-asserted here on the benchmarked runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import FluidParams, dumbbell_scenario
from repro.core import FluidSimulator, simulate_many
from repro.experiments import scenarios

from conftest import BENCH_DT, record_bench, run_once

BENCH_SECONDS = 0.5

#: Flow populations of the churn scaling curve and its (short) horizon.
SCALING_FLOWS = (100, 500, 1000, 2000)
SCALING_SECONDS = 0.1


def _mixed_ccas(num_flows: int) -> list[str]:
    per_cca = num_flows // 4
    return (
        ["reno"] * per_cca + ["cubic"] * per_cca + ["bbr1"] * per_cca + ["bbr2"] * per_cca
    )


def _config(num_flows: int):
    return dumbbell_scenario(
        _mixed_ccas(num_flows), duration_s=BENCH_SECONDS, fluid=FluidParams(dt=BENCH_DT)
    )


def _steps(config) -> int:
    return int(round(config.duration_s / config.fluid.dt)) + 1


def _measure(config, vectorized: bool):
    simulator = FluidSimulator(config, vectorized=vectorized)
    start = time.perf_counter()
    trace = simulator.run()
    elapsed = time.perf_counter() - start
    return _steps(config) / elapsed, trace


def test_perf_fluid_step(benchmark):
    paper_config = _config(20)
    scale_config = _config(60)

    scalar_paper_sps, scalar_trace = _measure(paper_config, vectorized=False)
    vector_paper_sps, vector_trace = run_once(
        benchmark, lambda: _measure(paper_config, vectorized=True)
    )
    scalar_scale_sps, _ = _measure(scale_config, vectorized=False)
    vector_scale_sps, _ = _measure(scale_config, vectorized=True)

    # The speedup claim is only meaningful if the traces agree.
    for fa, fb in zip(scalar_trace.flows, vector_trace.flows, strict=True):
        np.testing.assert_allclose(fa.rate, fb.rate, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        scalar_trace.bottleneck().queue,
        vector_trace.bottleneck().queue,
        rtol=1e-9,
        atol=1e-9,
    )

    # The sweep path: many independent scenarios integrated in lockstep.
    batch_configs = [
        dumbbell_scenario(
            _mixed_ccas(20),
            duration_s=BENCH_SECONDS,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            fluid=FluidParams(dt=BENCH_DT),
        )
        for discipline in ("droptail", "red")
        for buffer_bdp in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    ]
    start = time.perf_counter()
    simulate_many(batch_configs)
    batch_elapsed = time.perf_counter() - start
    batch_sps = _steps(paper_config) * len(batch_configs) / batch_elapsed

    record_bench("perf_fluid_step", {
        "dt": BENCH_DT,
        "duration_s": BENCH_SECONDS,
        "paper_population_20": {
            "scalar_steps_per_s": round(scalar_paper_sps),
            "vectorized_steps_per_s": round(vector_paper_sps),
            "speedup": round(vector_paper_sps / scalar_paper_sps, 2),
        },
        "scale_population_60": {
            "scalar_steps_per_s": round(scalar_scale_sps),
            "vectorized_steps_per_s": round(vector_scale_sps),
            "speedup": round(vector_scale_sps / scalar_scale_sps, 2),
        },
        "sweep_path_simulate_many": {
            "scenarios": len(batch_configs),
            "scenario_steps_per_s": round(batch_sps),
            "speedup_vs_scalar": round(batch_sps / scalar_paper_sps, 2),
            "speedup_vs_vectorized": round(batch_sps / vector_paper_sps, 2),
        },
    })

    print("\nFluid-integrator throughput (flow-population steps/second):")
    print(
        f"  20 senders  scalar {scalar_paper_sps:8.0f}  "
        f"vectorized {vector_paper_sps:8.0f}  ({vector_paper_sps / scalar_paper_sps:.1f}x)"
    )
    print(
        f"  60 senders  scalar {scalar_scale_sps:8.0f}  "
        f"vectorized {vector_scale_sps:8.0f}  ({vector_scale_sps / scalar_scale_sps:.1f}x)"
    )
    print(
        f"  sweep path  {batch_sps:8.0f} scenario-steps/s "
        f"({batch_sps / scalar_paper_sps:.1f}x scalar, {len(batch_configs)} scenarios)"
    )


def test_perf_fluid_churn_scaling(benchmark):
    """Vectorized integrator throughput vs. population size under churn."""

    def _churn_config(num_flows: int):
        return scenarios.churn_scenario(
            "BBRv1/RENO",
            num_flows=num_flows,
            arrivals="poisson",
            load=0.5,
            size_dist="pareto",
            duration_s=SCALING_SECONDS,
            dt=BENCH_DT,
            seed=1,
        )

    def _measure_population(num_flows: int) -> float:
        config = _churn_config(num_flows)
        simulator = FluidSimulator(config, vectorized=True)
        start = time.perf_counter()
        simulator.run()
        elapsed = time.perf_counter() - start
        return _steps(config) / elapsed

    def _curve() -> dict[str, float]:
        return {str(n): round(_measure_population(n)) for n in SCALING_FLOWS}

    curve = run_once(benchmark, _curve)
    # How much throughput falls from the smallest to the largest population
    # (vectorized work is O(N) per step, so 20x the flows should cost about
    # 20x; far more indicates per-flow Python work in the masked pipeline).
    # Recorded, not asserted: a wall-clock ratio is too noisy for tier-1.
    ratio = curve[str(SCALING_FLOWS[0])] / max(1.0, curve[str(SCALING_FLOWS[-1])])
    record_bench("perf_fluid_step", {
        "churn_scaling": {
            "dt": BENCH_DT,
            "duration_s": SCALING_SECONDS,
            "arrivals": "poisson",
            "size_dist": "pareto",
            "vectorized_steps_per_s_by_flows": curve,
            "throughput_ratio_smallest_to_largest": round(ratio, 1),
        },
    })

    print("\nFluid integrator churn scaling (vectorized steps/second):")
    for n in SCALING_FLOWS:
        print(f"  {n:5d} flows  {curve[str(n)]:8.0f} steps/s")

    # Sanity floor, not a race: even the 2000-flow population must step.
    assert all(sps > 0 for sps in curve.values())
