"""Benchmarks of the analysis layer: grid pruning and the numerical fallback.

**Pruning.** ``--prune-analytic`` grid pruning, cold vs pruned wall time.

The grid deliberately stacks several buffer sizes above the pruner's
provable never-binds threshold (about 52 BDP for the standard 10-flow
BBRv1 mix: ``PRUNE_HEADROOM * C * (2 * sum(d_i) + (2N - 1) * max(d_i))``
packets): with droptail FIFO and a buffer the queue provably never
reaches, those points share one trajectory, so the pruner simulates only
the smallest such buffer and materialises the rest as store aliases with
rescaled occupancy.

The cold run simulates every grid point; the pruned run must simulate
exactly ``n_distinct`` points, alias the rest, and produce identical
metrics (up to the occupancy renormalisation).  The cold/pruned wall-time
ratio is recorded, not asserted: a wall-clock ratio is too noisy to gate
tier-1.  Both runs take the fastest path, the serial default, where
each grid is one lockstep chunk; the lockstep batcher amortises per-point
cost so aggressively that pruning saves less wall time than the count of
simulated points suggests.

**Numerical fallback.** The six points of the ``analytic-resume``
benchmark grid that its timed campaign computes (BBRv1, BBRv2 and
BBRv1/BBRv2 at 2 and 7 BDP, droptail, heterogeneous RTTs) have no closed
form and integrate the reduced model together, as the campaign's one
chunk does: one :func:`repro.analysis.analyze_scenarios` call, whose
batched Dormand-Prince loop evaluates all six points per RHS call.  The
case records their wall time, the number of (batched) reduced-model RHS
calls and the mean time per call (the same counter perfbench's
``analysis.rhs_evals`` / ``analysis.us_per_rhs_eval`` put on
``adapter.mixed_reduced_rhs``).

Both tests record their numbers in the untracked
``benchmarks/BENCH_analysis.json`` (each owns its own keys); none of the
timings is asserted.
"""

from __future__ import annotations

import time

import pytest

from repro import analysis
from repro.analysis import adapter
from repro.experiments import sweep
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore

from conftest import record_bench

#: 1.0 binds; everything from 55 up is provably slack (threshold ~52.14 BDP),
#: so the pruned run simulates {1.0, 55.0} and aliases the remaining six.
BUFFERS_BDP = [1.0, 55.0, 70.0, 85.0, 100.0, 115.0, 130.0, 145.0]
GRID = dict(
    mixes=["BBRv1"],
    disciplines=["droptail"],
    substrate="fluid",
    duration_s=5.0,
    dt=1e-3,
)
N_DISTINCT = 2

#: The ``analytic-resume`` points its timed campaign computes (the store
#: already holds the 1 and 4 BDP halves of the grid).
NUMERICAL_GRID = dict(
    mixes=["BBRv1", "BBRv2", "BBRv1/BBRv2"],
    buffers_bdp=[2.0, 7.0],
    disciplines=["droptail"],
    substrate="analytic",
    duration_s=5.0,
)


def _run_grid(**kwargs):
    grid = GridSpec(buffers_bdp=BUFFERS_BDP, **GRID)
    return sweep.run_campaign(grid, **kwargs).points


def test_perf_prune_analytic(benchmark, tmp_path):
    cold_store = SweepStore(tmp_path / "cold.jsonl")
    start = time.perf_counter()
    cold_points = _run_grid(store=cold_store)
    cold_s = time.perf_counter() - start
    assert len(cold_store) == len(BUFFERS_BDP)
    assert all("pruned" not in r["meta"] for r in cold_store.records())

    pruned_store = SweepStore(tmp_path / "pruned.jsonl")
    start = time.perf_counter()
    pruned_points = benchmark.pedantic(
        lambda: _run_grid(store=pruned_store, prune_analytic=True),
        rounds=1,
        iterations=1,
    )
    pruned_s = time.perf_counter() - start

    # Every grid point is answered; only N_DISTINCT were simulated.
    assert len(pruned_store) == len(BUFFERS_BDP)
    aliases = [r for r in pruned_store.records() if "pruned" in r["meta"]]
    assert len(aliases) == len(BUFFERS_BDP) - N_DISTINCT
    assert {a["meta"]["pruned"]["primary_buffer_bdp"] for a in aliases} == {55.0}

    # Aliased points carry the primary's metrics, occupancy renormalised.
    cold_by_buffer = {p.buffer_bdp: p.metrics for p in cold_points}
    for point in pruned_points:
        cold_metrics = cold_by_buffer[point.buffer_bdp]
        assert point.metrics.utilization_percent == pytest.approx(
            cold_metrics.utilization_percent, abs=1e-6
        )
        assert point.metrics.loss_percent == pytest.approx(
            cold_metrics.loss_percent, abs=1e-9
        )

    speedup = cold_s / pruned_s if pruned_s > 0 else float("inf")
    record_bench(
        "analysis",
        {
            "grid": {
                "mixes": GRID["mixes"],
                "buffers_bdp": BUFFERS_BDP,
                "disciplines": GRID["disciplines"],
                "substrate": GRID["substrate"],
                "duration_s": GRID["duration_s"],
                "dt": GRID["dt"],
                "path": "serial default (one lockstep chunk)",
            },
            "points_total": len(BUFFERS_BDP),
            "points_pruned": len(aliases),
            "points_simulated": N_DISTINCT,
            "cold_wall_s": round(cold_s, 4),
            "pruned_wall_s": round(pruned_s, 4),
            "speedup": round(speedup, 2),
        }
    )

    print(f"\nAnalytic grid pruning ({len(BUFFERS_BDP)} fluid points, serial):")
    print(f"  cold (simulate all)        {cold_s:8.3f} s")
    print(f"  pruned (simulate {N_DISTINCT}, alias {len(aliases)})  {pruned_s:8.3f} s")
    print(f"  speedup                    {speedup:8.2f}x")


def test_perf_numerical_fallback(benchmark, monkeypatch):
    configs = [point.config() for point in GridSpec(**NUMERICAL_GRID).points()]
    rhs = adapter.mixed_reduced_rhs
    calls = 0
    rhs_s = 0.0

    def counted_rhs(*args):
        nonlocal calls, rhs_s
        start = time.perf_counter()
        try:
            return rhs(*args)
        finally:
            rhs_s += time.perf_counter() - start
            calls += 1

    monkeypatch.setattr(adapter, "mixed_reduced_rhs", counted_rhs)
    start = time.perf_counter()
    predictions = benchmark.pedantic(
        lambda: analysis.analyze_scenarios(configs),
        rounds=1,
        iterations=1,
    )
    wall_s = time.perf_counter() - start

    assert len(predictions) == 6
    assert all(p.method == "numerical" for p in predictions)
    assert calls > 0
    us_per_call = 1e6 * rhs_s / calls
    record_bench(
        "analysis",
        {
            "numerical_fallback": {
                "grid": NUMERICAL_GRID,
                "points": len(predictions),
                "wall_s": round(wall_s, 4),
                "rhs_calls": calls,
                "us_per_rhs_call": round(us_per_call, 2),
            }
        }
    )

    print(f"\nNumerical fallback ({len(predictions)} analytic-resume points):")
    print(f"  wall                       {wall_s:8.3f} s")
    print(f"  RHS calls                  {calls:8d}")
    print(f"  per RHS call               {us_per_call:8.2f} us")
