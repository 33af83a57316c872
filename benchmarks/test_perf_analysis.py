"""Benchmark of ``--prune-analytic`` grid pruning: cold vs pruned wall time.

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
tier-1.  Both runs use the
process-pool executor (``workers=4``), whose workers integrate lockstep
chunks; the lockstep batcher amortises per-point cost so aggressively that
pruning saves less wall time than the count of simulated points suggests.

Results land in ``benchmarks/BENCH_analysis.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.experiments import sweep
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore

RESULTS_PATH = Path(__file__).parent / "BENCH_analysis.json"

#: 1.0 binds; everything from 55 up is provably slack (threshold ~52.14 BDP),
#: so the pruned run simulates {1.0, 55.0} and aliases the remaining six.
BUFFERS_BDP = [1.0, 55.0, 70.0, 85.0, 100.0, 115.0, 130.0, 145.0]
GRID = dict(
    mixes=["BBRv1"],
    disciplines=["droptail"],
    substrate="fluid",
    duration_s=5.0,
    dt=1e-3,
    workers=4,
)
N_DISTINCT = 2


def _run_grid(**kwargs):
    axes = {k: v for k, v in GRID.items() if k != "workers"}
    grid = GridSpec(buffers_bdp=BUFFERS_BDP, **axes)
    return sweep.run_campaign(grid, workers=GRID["workers"], **kwargs).points


def _update_results(payload: dict) -> None:
    """Merge this test's keys into the shared BENCH json (read-modify-write)."""
    existing: dict = {}
    if RESULTS_PATH.exists():
        try:
            existing = json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing.update(payload)
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_perf_prune_analytic(benchmark, tmp_path):
    sweep.clear_cache()
    cold_store = SweepStore(tmp_path / "cold.jsonl")
    start = time.perf_counter()
    cold_points = _run_grid(store=cold_store)
    cold_s = time.perf_counter() - start
    assert len(cold_store) == len(BUFFERS_BDP)
    assert all("pruned" not in r["meta"] for r in cold_store.select())

    sweep.clear_cache()
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
    aliases = [r for r in pruned_store.select() if "pruned" in r["meta"]]
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
    _update_results(
        {
            "grid": {
                "mixes": GRID["mixes"],
                "buffers_bdp": BUFFERS_BDP,
                "disciplines": GRID["disciplines"],
                "substrate": GRID["substrate"],
                "duration_s": GRID["duration_s"],
                "dt": GRID["dt"],
                "workers": GRID["workers"],
            },
            "points_total": len(BUFFERS_BDP),
            "points_pruned": len(aliases),
            "points_simulated": N_DISTINCT,
            "cold_wall_s": round(cold_s, 4),
            "pruned_wall_s": round(pruned_s, 4),
            "speedup": round(speedup, 2),
        }
    )

    print(f"\nAnalytic grid pruning ({len(BUFFERS_BDP)} fluid points, workers=4):")
    print(f"  cold (simulate all)        {cold_s:8.3f} s")
    print(f"  pruned (simulate {N_DISTINCT}, alias {len(aliases)})  {pruned_s:8.3f} s")
    print(f"  speedup                    {speedup:8.2f}x")
