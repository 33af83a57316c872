"""Micro-benchmark of the multi-bottleneck topology subsystem.

Runs a 3-hop parking lot (10 long flows + 1 cross flow per hop) on both
substrates and records the cost of the topology generalisation in the
untracked ``benchmarks/BENCH_perf_topology.json``:

* fluid: integrator steps/second of the *attenuated* arrival pipeline
  (upstream loss/capacity attenuation + effective-bottleneck Eq. 17, the
  default), the unattenuated PR-4 vectorized pipeline for the attenuation
  cost, and the scalar reference for the vectorization ratio,
* emulation: sent packets/second across the 3-link chain (every packet now
  crosses three queue admissions and three fused delay-line hops).

The attenuation cost versus the unattenuated vectorized baseline is
recorded, not asserted (a wall-clock ratio is too noisy for tier-1);
the guard-rail is the deterministic count it protects: the attenuated
pipeline performs no more Eq. 1 gathers than the baseline.  The vectorized/scalar
fluid equivalence is re-asserted on the benchmarked (attenuated) runs,
mirroring ``benchmarks/test_perf_fluid_step.py``.
"""

from __future__ import annotations

import time

import numpy as np

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


def _measure_fluid(config, vectorized: bool, attenuate: bool = True):
    simulator = FluidSimulator(
        config, vectorized=vectorized, attenuate_arrivals=attenuate
    )
    start = time.perf_counter()
    trace = simulator.run()
    elapsed = time.perf_counter() - start
    steps = int(round(config.duration_s / config.fluid.dt)) + 1
    return steps / elapsed, trace, simulator.runtime


def _interleaved_best(n, config):
    """Best-of-``n`` attenuated and unattenuated vectorized runs, interleaved.

    The attenuation-cost guard compares a ratio; interleaving the two
    measurements makes a transient machine slowdown hit both sides instead
    of skewing one, and best-of-``n`` damps scheduler noise.
    """
    best_att = best_base = None
    for _ in range(n):
        att_sps, att_trace, att_runtime = _measure_fluid(config, vectorized=True)
        base_sps, _, base_runtime = _measure_fluid(config, vectorized=True, attenuate=False)
        if best_att is None or att_sps > best_att[0]:
            best_att = (att_sps, att_trace)
        best_base = base_sps if best_base is None else max(best_base, base_sps)
    gathers = (att_runtime["gathers"], base_runtime["gathers"])
    return best_att[0], best_att[1], best_base, gathers


def test_perf_topology(benchmark):
    fluid_config = _config(FLUID_SECONDS)
    scalar_sps, scalar_trace, _ = _measure_fluid(fluid_config, vectorized=False)
    vector_sps, vector_trace, baseline_sps, (att_gathers, base_gathers) = run_once(
        benchmark, lambda: _interleaved_best(3, fluid_config)
    )
    for fa, fb in zip(scalar_trace.flows, vector_trace.flows, strict=True):
        np.testing.assert_allclose(fa.rate, fb.rate, rtol=1e-9, atol=1e-9)
    for la, lb in zip(scalar_trace.links, vector_trace.links, strict=True):
        np.testing.assert_allclose(la.queue, lb.queue, rtol=1e-9, atol=1e-9)

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
            "scalar_steps_per_s": round(scalar_sps),
            "vectorized_steps_per_s": round(vector_sps),
            "speedup": round(vector_sps / scalar_sps, 2),
        },
        "attenuation": {
            # The corrected (attenuated) pipeline vs the PR-4 unattenuated
            # vectorized baseline, interleaved best-of-3 on the same
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
    print(
        f"  fluid      scalar {scalar_sps:8.0f}  vectorized {vector_sps:8.0f} "
        f"steps/s ({vector_sps / scalar_sps:.1f}x)"
    )
    print(
        f"  attenuation cost {100.0 * (1.0 - vector_sps / baseline_sps):5.1f}% "
        f"(unattenuated baseline {baseline_sps:8.0f} steps/s)"
    )
    print(f"  emulation  {sent_pkts_per_s:8.0f} sent pkts/s ({sent} pkts)")

    # Guard rails, not targets: the upstream attenuation must not add Eq. 1
    # gathers over the unattenuated vectorized baseline, and the chained
    # emulator must clear an absolute floor far below its measured rate
    # (66-143k pkts/s; three hops triple the per-packet queue work).  The
    # vectorized/scalar speedup is recorded above, not asserted.
    assert att_gathers <= base_gathers, (
        f"attenuated pipeline made {att_gathers} gathers vs {base_gathers} "
        "for the unattenuated baseline"
    )
    assert sent_pkts_per_s > 10_000, (
        f"3-hop emulation dropped to {sent_pkts_per_s:.0f} sent pkts/s"
    )
