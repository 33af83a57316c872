"""Micro-benchmark of the multi-bottleneck topology subsystem.

Runs a 3-hop parking lot (10 long flows + 1 cross flow per hop) on both
substrates and records the cost of the topology generalisation in the
untracked ``benchmarks/BENCH_perf_topology.json``:

* fluid: integrator steps/second (upstream loss/capacity attenuation of
  the Eq. 1 arrivals + effective-bottleneck Eq. 17),
* emulation: sent packets/second across the 3-link chain (every packet now
  crosses three queue admissions and three fused delay-line hops).

The rates are recorded, not asserted (wall-clock numbers are too noisy for
tier-1), apart from a loose absolute floor on the emulator.  That a fluid
step makes one delay-ring read however many hops and attenuation levels
it has is pinned by ``tests/test_fluid_step_calls.py``.
"""

from __future__ import annotations

import time

from repro.core import FluidSimulator
from repro.emulation import EmulationRunner
from repro.experiments.scenarios import parking_lot_scenario

from conftest import BENCH_DT, record_bench, run_once

FLUID_SECONDS = 0.5
EMULATION_SECONDS = 3.0
HOPS = 3
CROSS_FLOWS = 1


def _config(duration_s: float):
    return parking_lot_scenario(
        "BBRv1",
        hops=HOPS,
        cross_flows=CROSS_FLOWS,
        duration_s=duration_s,
        dt=BENCH_DT,
    )


def _measure_fluid(config) -> float:
    simulator = FluidSimulator([config])
    start = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - start
    return simulator.runtime["steps"] / elapsed


def _best(n, config) -> float:
    """Best-of-``n`` steps/second: the minimum time damps scheduler noise."""
    return max(_measure_fluid(config) for _ in range(n))


def test_perf_topology(benchmark):
    fluid_config = _config(FLUID_SECONDS)
    vector_sps = run_once(benchmark, lambda: _best(3, fluid_config))

    emu_config = _config(EMULATION_SECONDS)
    runner = EmulationRunner(emu_config)
    start = time.perf_counter()
    runner.run()
    emu_elapsed = time.perf_counter() - start
    sent = sum(s.sent_count for s in runner.senders.values())
    sent_pkts_per_s = sent / emu_elapsed

    results = {
        "topology": {
            "preset": "parking-lot",
            "hops": HOPS,
            "cross_flows_per_hop": CROSS_FLOWS,
            "flows": fluid_config.num_flows,
        },
        "fluid": {
            "dt": BENCH_DT,
            "duration_s": FLUID_SECONDS,
            "vectorized_steps_per_s": round(vector_sps),
        },
        "emulation": {
            "duration_s": EMULATION_SECONDS,
            "sent_packets": sent,
            "sent_pkts_per_s": round(sent_pkts_per_s),
            "wall_s": round(emu_elapsed, 3),
        },
    }
    record_bench("perf_topology", results)

    print("\n3-hop parking-lot throughput:")
    print(f"  fluid      {vector_sps:8.0f} steps/s")
    print(f"  emulation  {sent_pkts_per_s:8.0f} sent pkts/s ({sent} pkts)")

    # A guard rail, not a target: the chained emulator must clear an
    # absolute floor far below its measured rate (66-143k pkts/s; three
    # hops triple the per-packet queue work).
    assert sent_pkts_per_s > 10_000, (
        f"3-hop emulation dropped to {sent_pkts_per_s:.0f} sent pkts/s"
    )
