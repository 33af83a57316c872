"""Micro-benchmark of the emulator event layer: closure scheduler vs delay lines.

Measures packets/second of the 10 s multi-flow BBRv1 emulation under the
pre-change per-packet-closure scheduler (kept verbatim in
``repro.emulation.closure_ref``) and under the typed delay-line/timer
scheduler, records the results in the untracked
``benchmarks/BENCH_perf_emulation.json``, and asserts:

* the droptail equivalence contract — same seed, identical per-flow
  ``sent/delivered/lost`` counts and identical link drop/transmit counters
  across the two event layers (the speedup claim is only meaningful if the
  schedulers simulate the same network);
* the structural O(flows + links) heap invariant — the delay-line run
  keeps a handful of live events regardless of the thousands of packets in
  flight, while the closure reference holds one heap entry per in-flight
  packet hop;
* a disabled-telemetry overhead ceiling — the instrumented delay-line hot
  path (``repro.obs`` spans/counters reduced to no-op stubs when
  telemetry is off) must cost <= 3% of throughput.  Cross-run pkts/s on a
  shared machine swings far more than 3% (observed +-20% here even after
  closure-reference normalisation), so the guard measures the disabled
  costs *within the run* instead: microbenchmarks of the three stub
  shapes the instrumentation uses (the loop-local integer add the event
  loop pays per pop, the ``TELEMETRY.enabled`` attribute check, the
  null-span context), charged at the run's measured instrumentation
  density (events popped per second of wall time), must imply <= 3%
  overhead — with absolute per-call ceilings so the stubs cannot quietly
  grow a lock, an allocation, or an env read.

The delay-line/closure speedup is recorded in the JSON, not asserted: a
wall-clock ratio is too noisy to gate tier-1.  The measured median on an
otherwise idle machine is ~2x; the gap to the 5x goal is CCA/bookkeeping
work shared by both schedulers, not event scheduling.
"""

from __future__ import annotations

import statistics
import time

from repro.config import dumbbell_scenario
from repro.emulation.runner import EmulationRunner
from repro.obs import TELEMETRY

from conftest import record_bench

FLOWS = 4
DURATION_S = 10.0
REPEATS = 3
#: Ceiling on the throughput overhead implied by the measured disabled-stub
#: costs at the run's instrumentation density (~1% measured; the event
#: loop pays one loop-local int add per pop, everything else is per-run).
MAX_DISABLED_TELEMETRY_OVERHEAD = 0.03
#: Absolute stub-cost ceilings (generous 4-10x over measured CPython cost
#: on any modern core): the disabled ``enabled`` check is one attribute
#: lookup, the null span one method call returning a shared object.  A
#: lock, allocation, or env read in the disabled path jumps these 10-100x.
MAX_ENABLED_CHECK_NS = 500.0
MAX_NULL_SPAN_NS = 2500.0
#: Generous stand-in for the per-run instrumented call sites charged at
#: full stub cost (emu.run span, enabled check, store/executor touches —
#: actually a handful).
PER_RUN_STUB_SITES = 100


def _scenario():
    return dumbbell_scenario(["bbr1"] * FLOWS, duration_s=DURATION_S, seed=1)


def _timed_run(scheduler: str):
    runner = EmulationRunner(_scenario(), scheduler=scheduler)
    start = time.perf_counter()
    runner.run()
    elapsed = time.perf_counter() - start
    counts = [
        (s.sent_count, s.delivered_count, s.lost_count) for s in runner.senders.values()
    ]
    sent = sum(c[0] for c in counts)
    return sent / elapsed, counts, runner


def _stub_costs_ns(iterations: int = 200_000, repeats: int = 3) -> dict[str, float]:
    """Per-call cost of the three disabled-telemetry stub shapes.

    Best-of-``repeats``: each timing window is only milliseconds long, so
    one scheduler preemption inside it can double the apparent per-call
    cost — preemption inflates, never deflates, so the minimum is the
    honest cost floor.
    """

    def _local_add() -> int:
        popped = 0
        for _ in range(iterations):
            popped += 1
        return popped

    def _enabled_check() -> int:
        hits = 0
        for _ in range(iterations):
            if TELEMETRY.enabled:
                hits += 1
        return hits

    def _null_span() -> int:
        for _ in range(iterations):
            with TELEMETRY.span("bench.stub"):
                pass
        return 0

    def _best(func) -> float:
        best_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            hits = func()
            best_s = min(best_s, time.perf_counter() - start)
            assert hits == 0 or func is _local_add, (
                "telemetry must be disabled for the stub benchmark"
            )
        return best_s / iterations * 1e9

    return {
        "local_add": _best(_local_add),
        "enabled_check": _best(_enabled_check),
        "null_span": _best(_null_span),
    }


def _peak_live_events(scheduler: str) -> int:
    """Peak number of live scheduled events during a short probing run."""
    runner = EmulationRunner(_scenario().with_duration(1.0), scheduler=scheduler)
    peak = 0

    def probe():
        nonlocal peak
        peak = max(peak, len(runner.events))
        runner.events.schedule(0.01, probe)

    runner.events.schedule(0.05, probe)
    runner.run()
    return peak


def test_perf_emulation(benchmark):
    # The guard below measures the *disabled*-telemetry hot path; a stray
    # REPRO_TELEMETRY in the environment would measure the enabled one.
    TELEMETRY.disable()
    closure_pps = []
    delayline_pps = []
    closure_counts = delayline_counts = None
    closure_runner = delayline_runner = None
    for _ in range(REPEATS - 1):
        pps, closure_counts, closure_runner = _timed_run("closure")
        closure_pps.append(pps)
        pps, delayline_counts, delayline_runner = _timed_run("delayline")
        delayline_pps.append(pps)
    # Final repetition through the benchmark fixture so the harness records it.
    pps, closure_counts, closure_runner = _timed_run("closure")
    closure_pps.append(pps)
    pps, delayline_counts, delayline_runner = benchmark.pedantic(
        lambda: _timed_run("delayline"), rounds=1, iterations=1
    )
    delayline_pps.append(pps)

    closure_median = statistics.median(closure_pps)
    delayline_median = statistics.median(delayline_pps)
    speedup = delayline_median / closure_median

    # Same seed => identical droptail accounting across the event layers.
    assert delayline_counts == closure_counts, (
        "delay-line scheduler diverged from the closure reference: "
        f"{delayline_counts} != {closure_counts}"
    )
    assert (
        delayline_runner.bottleneck.queue.dropped
        == closure_runner.bottleneck.queue.dropped
    )
    assert (
        delayline_runner.bottleneck.transmitted == closure_runner.bottleneck.transmitted
    )

    closure_peak = _peak_live_events("closure")
    delayline_peak = _peak_live_events("delayline")
    # O(flows + links): pacing timer, watchdog, access line and return line
    # per sender, plus the sampler and the probe (with slack); the closure
    # reference holds one entry per in-flight packet hop.
    assert delayline_peak <= 4 * FLOWS + 4, delayline_peak
    assert closure_peak >= 10 * delayline_peak, (closure_peak, delayline_peak)

    # Disabled-telemetry overhead, measured within this run: charge the
    # microbenchmarked stub costs at the run's actual instrumentation
    # density.  Per popped event the loop pays one local integer add (the
    # events-popped counter); per run a handful of call sites pay the
    # ``enabled`` check / null span, charged here at a deliberately
    # over-counted PER_RUN_STUB_SITES.  The implied share of the timed
    # delay-line run must stay under the ceiling.
    stub_ns = _stub_costs_ns()
    events_popped = delayline_runner.events.popped
    sent = sum(c[0] for c in delayline_counts)
    delayline_wall_s = sent / delayline_median
    per_run_stub_s = (
        events_popped * stub_ns["local_add"]
        + PER_RUN_STUB_SITES * (stub_ns["enabled_check"] + stub_ns["null_span"])
    ) * 1e-9
    telemetry_overhead = per_run_stub_s / delayline_wall_s

    results = {
        "scenario": {
            "cca": "bbr1",
            "flows": FLOWS,
            "duration_s": DURATION_S,
            "discipline": "droptail",
            "buffer_bdp": 1.0,
            "seed": 1,
        },
        "packets_per_second": {
            "closure": round(closure_median),
            "delayline": round(delayline_median),
        },
        "speedup": round(speedup, 2),
        "issue_target_speedup": 5.0,
        "equivalence": {
            "identical_counts": True,
            "per_flow_sent_delivered_lost": [list(c) for c in delayline_counts],
            "link_dropped": delayline_runner.bottleneck.queue.dropped,
            "link_transmitted": delayline_runner.bottleneck.transmitted,
        },
        "live_heap_events_peak": {
            "closure": closure_peak,
            "delayline": delayline_peak,
        },
        "telemetry_disabled_overhead": round(telemetry_overhead, 4),
        "telemetry_stub_ns": {k: round(v, 1) for k, v in stub_ns.items()},
    }
    record_bench("perf_emulation", results)

    print("\nEmulator event-layer throughput (sent packets/second, 10 s BBRv1 x 4):")
    print(f"  closure reference  {closure_median:10.0f} pkts/s  (heap peak {closure_peak})")
    print(f"  delay-line/timer   {delayline_median:10.0f} pkts/s  (heap peak {delayline_peak})")
    print(f"  speedup            {speedup:10.2f}x")
    print(
        f"  telemetry overhead {100 * telemetry_overhead:9.2f}% (disabled stubs: "
        f"add {stub_ns['local_add']:.0f}ns, check {stub_ns['enabled_check']:.0f}ns, "
        f"span {stub_ns['null_span']:.0f}ns over {events_popped} events)"
    )

    assert stub_ns["enabled_check"] <= MAX_ENABLED_CHECK_NS, (
        f"disabled TELEMETRY.enabled check costs {stub_ns['enabled_check']:.0f}ns "
        f"per call (ceiling {MAX_ENABLED_CHECK_NS:.0f}ns) — the disabled path "
        "must stay one attribute lookup"
    )
    assert stub_ns["null_span"] <= MAX_NULL_SPAN_NS, (
        f"disabled TELEMETRY.span() costs {stub_ns['null_span']:.0f}ns per call "
        f"(ceiling {MAX_NULL_SPAN_NS:.0f}ns) — it must return the shared "
        "no-op span without allocating or locking"
    )
    assert telemetry_overhead <= MAX_DISABLED_TELEMETRY_OVERHEAD, (
        f"disabled-telemetry stubs imply {100 * telemetry_overhead:.1f}% of "
        f"delay-line throughput (ceiling "
        f"{100 * MAX_DISABLED_TELEMETRY_OVERHEAD:.0f}%)"
    )
