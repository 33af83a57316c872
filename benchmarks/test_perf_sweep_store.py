"""Benchmarks of the persistent sweep store: warm-resume speedup + backends.

``test_perf_sweep_store`` runs a small seed-replicated emulation sweep
twice against the same JSON-lines store (in a pytest tmp dir, so CI stays
hermetic): the cold run computes and persists every (point, seed) replica;
the warm run — with the in-process cache cleared, as after a process
restart — must serve every replica from the store without recomputing
anything.  The cold/warm wall-time ratio is recorded, not asserted: a
wall-clock ratio is too noisy to gate tier-1.

``test_perf_store_backends`` compares the jsonl and sqlite backends
head-to-head on 2000 synthetic records: cold write wall time, warm
(re)load wall time, and the latency of a full ``records()`` read (the
store's one read of all results).  Results are correctness-asserted (every
backend returns the same ``key -> metrics`` mapping of all records) —
relative backend speeds are recorded, not gated, because they are
hardware- and filesystem-dependent.

Both tests record their numbers in the untracked
``benchmarks/BENCH_sweep_store.json`` (each owns its own keys), so running
either alone never clobbers the other's numbers.
"""

from __future__ import annotations

import time

from repro.experiments import sweep
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore
from repro.metrics.aggregate import AggregateMetrics

from conftest import record_bench

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

    cold_store = SweepStore(store_path)
    start = time.perf_counter()
    cold_points = sweep.run_campaign(GridSpec(seeds=SEEDS, **GRID), store=cold_store).points
    cold_s = time.perf_counter() - start
    assert len(cold_store) == n_replicas

    # A fresh handle on the same file models a fresh process; only the
    # store serves the warm run.
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
    record_bench("sweep_store", results)

    print(f"\nSweep store cold vs warm ({n_replicas} emulation replicas):")
    print(f"  cold (compute + persist)  {cold_s:8.3f} s")
    print(f"  warm (store only)         {warm_s:8.3f} s")
    print(f"  speedup                   {speedup:8.1f}x")


# --- Backend comparison: jsonl vs sqlite ------------------------------------

N_ROWS = 2000
BACKEND_KINDS = ("jsonl", "sqlite")
READ_REPEATS = 20


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
    answers: dict[str, dict[str, AggregateMetrics]] = {}

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

        # Full read latency: every result record, decoded.
        start = time.perf_counter()
        for _ in range(READ_REPEATS):
            records = warm.records()
        read_s = (time.perf_counter() - start) / READ_REPEATS
        answers[kind] = {r["key"]: AggregateMetrics(**r["metrics"]) for r in records}
        warm.close()

        per_backend[kind] = {
            "cold_write_s": round(write_s, 4),
            "warm_load_s": round(load_s, 4),
            "read_all_ms": round(read_s * 1e3, 3),
        }

    # Every backend returns every record with the metrics it was given.
    expected = {key: metrics for key, metrics, _ in rows}
    assert len(expected) == N_ROWS
    for kind in BACKEND_KINDS:
        assert answers[kind] == expected, kind

    benchmark.pedantic(
        lambda: SweepStore(paths["sqlite"], backend="sqlite").records(),
        rounds=3,
        iterations=1,
    )

    record_bench("sweep_store", {"backends": {"rows": N_ROWS, **per_backend}})

    print(f"\nStore backends ({N_ROWS} synthetic records):")
    for kind in BACKEND_KINDS:
        stats = per_backend[kind]
        print(
            f"  {kind:8s} write {stats['cold_write_s']:7.3f} s   "
            f"load {stats['warm_load_s']:7.3f} s   "
            f"read all {stats['read_all_ms']:7.3f} ms"
        )
