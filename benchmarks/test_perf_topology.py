"""Micro-benchmark of the multi-bottleneck topology subsystem.

Runs a 3-hop parking lot (10 long flows + 1 cross flow per hop) on both
substrates and records the cost of the topology generalisation in the
untracked ``benchmarks/BENCH_perf_topology.json``:

* fluid: integrator steps/second of the *attenuated* arrival pipeline
  (upstream loss/capacity attenuation + effective-bottleneck Eq. 17, the
  default) and of the unattenuated pipeline for the attenuation cost,
* emulation: sent packets/second across the 3-link chain (every packet now
  crosses three queue admissions and three fused delay-line hops).

The attenuation cost versus the unattenuated baseline is recorded, not
asserted (a wall-clock ratio is too noisy for tier-1); the guard-rail is
the deterministic count it protects: the attenuated pipeline performs no
more Eq. 1 gathers than the baseline.
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


def _measure_fluid(config, attenuate: bool = True):
    simulator = FluidSimulator(config, attenuate_arrivals=attenuate)
    start = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - start
    steps = int(round(config.duration_s / config.fluid.dt)) + 1
    return steps / elapsed, simulator.runtime


def _interleaved_best(n, config):
    """Best-of-``n`` attenuated and unattenuated runs, interleaved.

    The attenuation-cost guard compares a ratio; interleaving the two
    measurements makes a transient machine slowdown hit both sides instead
    of skewing one, and best-of-``n`` damps scheduler noise.
    """
    best_att = best_base = 0.0
    for _ in range(n):
        att_sps, att_runtime = _measure_fluid(config)
        base_sps, base_runtime = _measure_fluid(config, attenuate=False)
        best_att = max(best_att, att_sps)
        best_base = max(best_base, base_sps)
    gathers = (att_runtime["gathers"], base_runtime["gathers"])
    return best_att, best_base, gathers


def test_perf_topology(benchmark):
    fluid_config = _config(FLUID_SECONDS)
    vector_sps, baseline_sps, (att_gathers, base_gathers) = run_once(
        benchmark, lambda: _interleaved_best(3, fluid_config)
    )

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
        "attenuation": {
            # The corrected (attenuated) pipeline vs the unattenuated
            # baseline, interleaved best-of-3 on the same
            # scenario (see _interleaved_best).
            "attenuated_steps_per_s": round(vector_sps),
            "unattenuated_steps_per_s": round(baseline_sps),
            "cost_percent": round(100.0 * (1.0 - vector_sps / baseline_sps), 1),
            "attenuated_gathers": att_gathers,
            "unattenuated_gathers": base_gathers,
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
    print(
        f"  attenuation cost {100.0 * (1.0 - vector_sps / baseline_sps):5.1f}% "
        f"(unattenuated baseline {baseline_sps:8.0f} steps/s)"
    )
    print(f"  emulation  {sent_pkts_per_s:8.0f} sent pkts/s ({sent} pkts)")

    # Guard rails, not targets: the upstream attenuation must not add Eq. 1
    # gathers over the unattenuated baseline, and the chained emulator
    # must clear an absolute floor far below its measured rate (66-143k
    # pkts/s; three hops triple the per-packet queue work).
    assert att_gathers <= base_gathers, (
        f"attenuated pipeline made {att_gathers} gathers vs {base_gathers} "
        "for the unattenuated baseline"
    )
    assert sent_pkts_per_s > 10_000, (
        f"3-hop emulation dropped to {sent_pkts_per_s:.0f} sent pkts/s"
    )
