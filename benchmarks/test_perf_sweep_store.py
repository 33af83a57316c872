"""Benchmarks of the persistent sweep store: warm-resume speedup + backends.

``test_perf_sweep_store`` runs a small seed-replicated emulation sweep
twice against the same JSON-lines store (in a pytest tmp dir, so CI stays
hermetic): the cold run computes and persists every (point, seed) replica;
the warm run — with the in-process cache cleared, as after a process
restart — must serve every replica from the store without recomputing
anything.  The cold/warm wall-time ratio is recorded, not asserted: a
wall-clock ratio is too noisy to gate tier-1.

``test_perf_store_backends`` compares the jsonl and sqlite backends
head-to-head on ~2000 synthetic records: cold write wall time,
warm (re)load wall time, and axis-query (``select``) latency.  Results are
correctness-asserted (identical query answers on every backend) but only
the roundtrip is hard-asserted — relative backend speeds are recorded, not
gated, because they are hardware- and filesystem-dependent.

Both tests read-modify-write ``benchmarks/BENCH_sweep_store.json`` (each
owns its own keys), so running either alone never clobbers the other's
numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.experiments import sweep
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore
from repro.metrics.aggregate import AggregateMetrics

RESULTS_PATH = Path(__file__).parent / "BENCH_sweep_store.json"


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

GRID = dict(
    mixes=["BBRv1"],
    buffers_bdp=[1.0, 2.0],
    disciplines=["droptail"],
    substrate="emulation",
    duration_s=1.0,
)
SEEDS = 3


def test_perf_sweep_store(benchmark, tmp_path):
    store_path = tmp_path / "sweep_store.jsonl"
    n_replicas = len(GRID["buffers_bdp"]) * SEEDS

    sweep.clear_cache()
    cold_store = SweepStore(store_path)
    start = time.perf_counter()
    cold_points = sweep.run_campaign(GridSpec(seeds=SEEDS, **GRID), store=cold_store).points
    cold_s = time.perf_counter() - start
    assert len(cold_store) == n_replicas

    # Clear the in-process cache to model a fresh process; only the store
    # may serve the warm run.
    sweep.clear_cache()
    warm_store = SweepStore(store_path)
    start = time.perf_counter()
    warm_points = benchmark.pedantic(
        lambda: sweep.run_campaign(GridSpec(seeds=SEEDS, **GRID), store=warm_store).points,
        rounds=1,
        iterations=1,
    )
    warm_s = time.perf_counter() - start

    assert warm_store.hits == n_replicas, "warm run must hit the store for all points"
    assert warm_store.misses == 0, "warm run recomputed at least one point"
    assert [p.summary for p in warm_points] == [p.summary for p in cold_points]

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    results = {
        "grid": {
            "mixes": GRID["mixes"],
            "buffers_bdp": GRID["buffers_bdp"],
            "disciplines": GRID["disciplines"],
            "substrate": GRID["substrate"],
            "duration_s": GRID["duration_s"],
            "seeds": SEEDS,
            "replicas": n_replicas,
        },
        "cold_wall_s": round(cold_s, 4),
        "warm_wall_s": round(warm_s, 4),
        "speedup": round(speedup, 1),
        "warm_store_hits": warm_store.hits,
        "warm_store_misses": warm_store.misses,
    }
    _update_results(results)

    print(f"\nSweep store cold vs warm ({n_replicas} emulation replicas):")
    print(f"  cold (compute + persist)  {cold_s:8.3f} s")
    print(f"  warm (store only)         {warm_s:8.3f} s")
    print(f"  speedup                   {speedup:8.1f}x")


# --- Backend comparison: jsonl vs sqlite ------------------------------------

N_ROWS = 2000
BACKEND_KINDS = ("jsonl", "sqlite")
QUERY_REPEATS = 20


def _synthetic_rows() -> list[tuple[str, AggregateMetrics, dict]]:
    mixes = ["BBRv1", "BBRv2", "BBRv1/CUBIC", "BBRv2/CUBIC"]
    buffers = [0.25, 0.5, 1.0, 4.0, 16.0]
    rows = []
    for i in range(N_ROWS):
        meta = {
            "mix": mixes[i % len(mixes)],
            "buffer_bdp": buffers[i % len(buffers)],
            "discipline": "droptail" if i % 2 else "red",
            "substrate": "fluid",
            "seed": i % 100,
        }
        metrics = AggregateMetrics(
            jain_fairness=(i % 97) / 97,
            loss_percent=(i % 13) / 13,
            buffer_occupancy_percent=float(i % 50),
            utilization_percent=50.0 + (i % 50),
            jitter_ms=float(i % 7),
        )
        rows.append((f"bench-key-{i:05d}", metrics, meta))
    return rows


def test_perf_store_backends(benchmark, tmp_path):
    rows = _synthetic_rows()
    paths = {
        "jsonl": tmp_path / "bench.jsonl",
        "sqlite": tmp_path / "bench.sqlite",
    }
    per_backend: dict[str, dict] = {}
    query_answers: dict[str, int] = {}

    for kind in BACKEND_KINDS:
        # Cold write: N_ROWS puts to an empty store (fsync off so the
        # numbers compare append strategies, not tmpfs flush behaviour).
        store = SweepStore(paths[kind], backend=kind, fsync=False)
        start = time.perf_counter()
        for key, metrics, meta in rows:
            store.put(key, metrics, meta=meta)
        write_s = time.perf_counter() - start
        store.close()

        # Warm load: reopen replays/queries the persisted records.
        start = time.perf_counter()
        warm = SweepStore(paths[kind], backend=kind, fsync=False)
        n_loaded = len(warm)
        load_s = time.perf_counter() - start
        assert n_loaded == N_ROWS

        # Axis query latency: one indexed axis + one equality filter.
        start = time.perf_counter()
        for _ in range(QUERY_REPEATS):
            hits = warm.select(mix="BBRv1", discipline="red")
        query_s = (time.perf_counter() - start) / QUERY_REPEATS
        query_answers[kind] = len(hits)
        warm.close()

        per_backend[kind] = {
            "cold_write_s": round(write_s, 4),
            "warm_load_s": round(load_s, 4),
            "axis_query_ms": round(query_s * 1e3, 3),
        }

    # Every backend must answer the axis query identically.
    assert len(set(query_answers.values())) == 1, query_answers

    benchmark.pedantic(
        lambda: SweepStore(paths["sqlite"], backend="sqlite").select(mix="BBRv1"),
        rounds=3,
        iterations=1,
    )

    _update_results(
        {
            "backends": {
                "rows": N_ROWS,
                "query": {"mix": "BBRv1", "discipline": "red", "hits": query_answers["jsonl"]},
                **per_backend,
            }
        }
    )

    print(f"\nStore backends ({N_ROWS} synthetic records):")
    for kind in BACKEND_KINDS:
        stats = per_backend[kind]
        print(
            f"  {kind:8s} write {stats['cold_write_s']:7.3f} s   "
            f"load {stats['warm_load_s']:7.3f} s   "
            f"query {stats['axis_query_ms']:7.3f} ms"
        )
