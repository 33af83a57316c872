"""Micro-benchmark of the fluid integrator: steps/second.

Records the integrator throughput in the untracked
``benchmarks/BENCH_perf_fluid_step.json``:

* the paper-shaped 20-sender scenario, where per-step numpy dispatch
  overhead bites hardest,
* the production-scale population (60 mixed-CCA senders), and
* the multi-scenario lockstep path (``simulate_many``, which the aggregate
  sweeps of Figs. 6-10/13-17 run on), with its speedup over the
  20-sender scenario run alone.

The speedup is recorded, not asserted: a wall-clock ratio is too noisy
to gate tier-1.

A second benchmark records the **paper-grid step sections**: the 28-point
grid of the aggregate figures as one lockstep batch, in microseconds per
step, the part of each step spent in each CCA's ``step_all``, and the
delay ring's one read and one row write.  It also records the trace bytes
each point holds, for the full record and for the lean record a campaign
keeps (``series=METRIC_SERIES``).

A third benchmark records the **churn scaling curve**: vectorized
integrator throughput at 100/500/1000/2000 flows under a Poisson /
bounded-Pareto flow schedule (active-flow masking on), so the cost of
large time-varying populations is tracked release over release.

A lockstep batch is bit-identical to its scenarios run alone (see
``tests/test_simulator_vectorized.py`` and ``tests/test_fluid_golden.py``),
and the lockstep step's Python-level call count does not grow with batch
width (``tests/test_fluid_step_calls.py``).
"""

from __future__ import annotations

import time

from repro.config import FluidParams, dumbbell_scenario
from repro.core import FluidSimulator, simulate_many
from repro.core.bbr1 import Bbr1Fluid
from repro.core.bbr2 import Bbr2Fluid
from repro.core.cubic import CubicFluid
from repro.core.history import DelayRing
from repro.core.reno import RenoFluid
from repro.experiments import scenarios
from repro.experiments.grid import GridSpec
from repro.metrics import METRIC_SERIES

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


def _measure(config) -> float:
    simulator = FluidSimulator([config])
    start = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - start
    return _steps(config) / elapsed


def test_perf_fluid_step(benchmark):
    paper_config = _config(20)
    scale_config = _config(60)

    vector_paper_sps = run_once(benchmark, lambda: _measure(paper_config))
    vector_scale_sps = _measure(scale_config)

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
            "vectorized_steps_per_s": round(vector_paper_sps),
        },
        "scale_population_60": {
            "vectorized_steps_per_s": round(vector_scale_sps),
        },
        "sweep_path_simulate_many": {
            "scenarios": len(batch_configs),
            "scenario_steps_per_s": round(batch_sps),
            "speedup_vs_vectorized": round(batch_sps / vector_paper_sps, 2),
        },
    })

    print("\nFluid-integrator throughput (flow-population steps/second):")
    print(f"  20 senders  {vector_paper_sps:8.0f}")
    print(f"  60 senders  {vector_scale_sps:8.0f}")
    print(
        f"  sweep path  {batch_sps:8.0f} scenario-steps/s "
        f"({batch_sps / vector_paper_sps:.1f}x alone, {len(batch_configs)} scenarios)"
    )


def test_perf_paper_grid_sections(benchmark, monkeypatch):
    """Lockstep cost per step of the paper grid, each CCA's and the ring's share."""
    grid = GridSpec(
        mixes=tuple(scenarios.CCA_MIXES),
        buffers_bdp=(1.0, 4.0),
        disciplines=("droptail", "red"),
    )
    configs = [point.config().with_duration(BENCH_SECONDS) for point in grid.points()]
    steps = _steps(configs[0])
    simulate_many([config.with_duration(0.01) for config in configs])  # warm-up

    def _us_per_step() -> float:
        start = time.perf_counter()
        simulate_many(configs)
        return (time.perf_counter() - start) / steps * 1e6

    us_per_step = run_once(benchmark, _us_per_step)

    # Recorded trace bytes per point, full record against a campaign's.
    record_mb = {
        name: round(
            sum(trace.nbytes for trace in simulate_many(configs, series=series))
            / len(configs) / 1e6,
            3,
        )
        for name, series in (("full", None), ("lean", METRIC_SERIES))
    }

    # The same batch again with every group's ``step_all`` and the delay
    # ring's read and row write timed around the call (a few hundred ns of
    # wrapper per call, no profiler).
    spent: dict[str, float] = {}

    def timed(owner, method: str, name: str) -> None:
        spent[name] = 0.0
        call = getattr(owner, method)

        def wrapper(*args):
            start = time.perf_counter()
            try:
                return call(*args)
            finally:
                spent[name] += time.perf_counter() - start

        monkeypatch.setattr(owner, method, wrapper)

    for model in (RenoFluid, CubicFluid, Bbr1Fluid, Bbr2Fluid):
        timed(model, "step_all", model.name)
    timed(DelayRing, "read", "read")
    timed(DelayRing, "push", "write")
    _us_per_step()
    us = {name: round(s / steps * 1e6, 1) for name, s in spent.items()}
    history_us = {name: us.pop(name) for name in ("read", "write")}
    step_all_us = us

    record_bench("perf_fluid_step", {
        "paper_grid_lockstep": {
            "points": len(configs),
            "dt": configs[0].fluid.dt,
            "duration_s": BENCH_SECONDS,
            "us_per_step": round(us_per_step, 1),
            "step_all_us_per_step": step_all_us,
            "history_us_per_step": history_us,
            "record_mb_per_point": record_mb,
        },
    })

    print(f"\nPaper grid, {len(configs)} points in lockstep: {us_per_step:.0f} us/step")
    for name, us_step in step_all_us.items():
        print(f"  {name:5s} step_all {us_step:6.1f} us/step")
    for name, us_step in history_us.items():
        print(f"  ring  {name:8s} {us_step:6.1f} us/step")
    for name, mb in record_mb.items():
        print(f"  {name:4s} record {mb:6.3f} MB/point")


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
        simulator = FluidSimulator([config])
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
