"""Goldens of the fluid integrator: exact where they were made, close anywhere.

``tests/golden/fluid_traces.json`` stores, per fluid trace, a sha256 over
the bytes of its time axis, every flow series (rate, delivery rate, cwnd,
inflight, RTT), every model extra and every link series (queue, loss,
arrival, departure), plus the exact sum of each of those series.

* The digests are the bit-identity gate: any change to the floating-point
  result of :func:`repro.core.simulate` or :func:`repro.core.simulate_many`,
  down to one ulp of one recorded value, changes one.  The last bits also
  depend on the numpy build, the CPU features its kernels dispatch on
  (``np.exp``, ``np.power`` and pairwise sums round differently with and
  without AVX512), libm and Python, so the digests are compared only in
  the environment stored next to them (``test_digests_apply_here`` skips,
  and says why, everywhere else).
* The per-series sums hold on any machine: they are compared at
  ``RTOL``, like the analytic goldens, so builds that round differently
  still pass while a changed model, a swapped flow or a shifted record
  does not.

A lockstep trace is checked against the same scenario run alone by exact
digest equality, since both runs happen on the same machine.

The cases cover the integrator's code paths, at 0.3 s unless noted:

* every scenario run alone on the matrix {BBRv1, BBRv2, CUBIC, RENO and
  the five two-CCA paper mixes} x {droptail, RED} x {dumbbell, 3-hop
  parking lot} x {static population, churn}, plus two 4-hop parking lots
  (a long flow's Eq. 3 queueing delay adds four hops in link order);
* four scenarios run alone outside the matrix (:data:`EXTRA`, 0.75-1.5 s):
  flows that start late without a schedule, a heavy-loss heterogeneous
  parking lot whose upstream capacity cap binds, the literal Eq. 18
  ``x_max`` of a BBRv1/BBRv2 mix, and a one-flow dumbbell;
* the 28-point paper grid (seven mixes x buffers {1, 4} x {droptail, RED})
  as one :func:`simulate_many` lockstep batch;
* the whole alone matrix as one lockstep batch, checked against the alone
  runs.

Regenerate only on purpose (a deliberate change of the model's numbers),
and review the diff::

    PYTHONPATH=src python tests/test_fluid_golden.py --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    FlowConfig,
    FlowSchedule,
    FluidParams,
    ScenarioConfig,
    dumbbell_scenario,
)
from repro.core import simulate, simulate_many
from repro.experiments import scenarios
from repro.experiments.grid import GridSpec
from repro.metrics.traces import Trace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "fluid_traces.json"
DURATION_S = 0.3
#: Tolerance of the per-series sums.  An integrator that rounds differently
#: (``math.exp``, another summation order) strays from them by ~1e-14.
RTOL, ATOL = 1e-12, 1e-12

#: Single-CCA populations plus the five two-CCA mixes of the paper.
MIXES: dict[str, tuple[str, ...]] = {
    "BBRv1": ("bbr1",) * 10,
    "BBRv2": ("bbr2",) * 10,
    "CUBIC": ("cubic",) * 10,
    "RENO": ("reno",) * 10,
    **{mix: ccas for mix, ccas in scenarios.CCA_MIXES.items() if "/" in mix},
}
#: Topology label -> parking-lot hops (``None``: the paper's dumbbell).
TOPOLOGIES: dict[str, int | None] = {"dumbbell": None, "parking-lot": 3, "parking-lot-4": 4}
DISCIPLINES = ("droptail", "red")
#: Reno and CUBIC start at this multiple of the fair-share window, so their
#: queues fill within 0.3 s; at the fair share they never queue, and
#: droptail and RED would give the same trace.
LOSS_BASED_WINDOW_SCALE = 4.0
#: Poisson arrivals of bounded-Pareto flows: within 0.3 s flows both join
#: mid-run and complete, so the active-flow masks change during the run,
#: and enough of them overlap to queue.
CHURN = FlowSchedule(
    arrivals="poisson",
    arrival_rate_per_s=150.0,
    size_dist="pareto",
    min_size_packets=50.0,
    max_size_packets=1000.0,
)
#: The grid of the paper's aggregate figures, run as one lockstep batch.
PAPER_GRID = GridSpec(
    mixes=tuple(scenarios.CCA_MIXES),
    buffers_bdp=(1.0, 4.0),
    disciplines=DISCIPLINES,
    duration_s=DURATION_S,
)


def matrix_config(topology: str, mix: str, discipline: str, churn: bool) -> ScenarioConfig:
    """One scenario of the alone matrix (the mix fills the long flows)."""
    if topology == "dumbbell":
        config = scenarios.aggregate_scenario(
            "BBRv1", 1.0, discipline, duration_s=DURATION_S
        )
    else:
        config = scenarios.parking_lot_scenario(
            "BBRv1", hops=TOPOLOGIES[topology], discipline=discipline, duration_s=DURATION_S
        )
    ccas = MIXES[mix]
    flows = tuple(
        dataclasses.replace(flow, cca=ccas[i]) if i < len(ccas) else flow
        for i, flow in enumerate(config.flows)
    )
    fluid = dataclasses.replace(
        config.fluid,
        loss_based_init_window_pkts=LOSS_BASED_WINDOW_SCALE
        * config.fluid.loss_based_init_window_pkts,
    )
    return dataclasses.replace(
        config, flows=flows, fluid=fluid, schedule=CHURN if churn else None
    )


def case_name(topology: str, mix: str, discipline: str, churn: bool) -> str:
    return f"{topology}|{mix}|{discipline}|{'churn' if churn else 'static'}"


CASES = [
    (topology, mix, discipline, churn)
    for topology in ("dumbbell", "parking-lot")
    for mix in MIXES
    for discipline in DISCIPLINES
    for churn in (False, True)
] + [
    ("parking-lot-4", "BBRv1/CUBIC", "droptail", False),
    ("parking-lot-4", "BBRv2/RENO", "red", True),
]
MATRIX = {case_name(*case): case for case in CASES}


def staggered_starts() -> ScenarioConfig:
    """Two of three flows start late, without a flow schedule.

    The start-only masks apply until the last start, then the step runs
    unmasked.
    """
    fluid = FluidParams(dt=2.5e-4)
    base = dumbbell_scenario(["reno", "bbr1", "cubic"], duration_s=1.5, fluid=fluid)
    flows = (
        base.flows[0],
        FlowConfig(cca="bbr1", access_delay_s=0.006, start_time_s=0.5),
        FlowConfig(cca="cubic", access_delay_s=0.007, start_time_s=0.9),
    )
    return ScenarioConfig(
        bottleneck=base.bottleneck, flows=flows, duration_s=1.5, fluid=fluid
    )


def heavy_loss_lot() -> ScenarioConfig:
    """Half-capacity first hop, small RED buffers: >50 % loss on hop 1.

    The long flows' traffic reaching hops 2 and 3 is thinned by hop 1's
    loss and capped by its capacity.
    """
    return scenarios.parking_lot_scenario(
        "BBRv1",
        hops=3,
        cross_flows=1,
        capacity_mbps=(50.0, 100.0, 100.0),
        buffer_bdp=0.5,
        discipline="red",
        duration_s=0.75,
        seed=1,
    )


def literal_xmax_mix() -> ScenarioConfig:
    """BBRv1/BBRv2 tracking the max sending rate (literal Eq. 18)."""
    config = scenarios.aggregate_scenario("BBRv1/BBRv2", 1.0, "droptail", duration_s=1.0)
    return dataclasses.replace(
        config, fluid=dataclasses.replace(config.fluid, literal_xmax=True)
    )


def one_flow() -> ScenarioConfig:
    """A single BBRv1 flow: every link sum and group has one member."""
    return dumbbell_scenario(["bbr1"], duration_s=1.0, fluid=FluidParams(dt=2.5e-4))


#: Scenarios outside the matrix, run alone.
EXTRA = {
    "dumbbell-staggered|RENO/BBRv1/CUBIC|droptail|static": staggered_starts,
    "parking-lot-heavy-loss|BBRv1|red|static": heavy_loss_lot,
    "dumbbell-literal-xmax|BBRv1/BBRv2|droptail|static": literal_xmax_mix,
    "dumbbell-one-flow|BBRv1|droptail|static": one_flow,
}
PAPER_POINTS = {
    f"lockstep|{point.mix}|{point.buffer_bdp:g}|{point.discipline}": point
    for point in PAPER_GRID.points()
}


def environment() -> dict[str, str]:
    """What the last bits of a trace depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "cpu_features": " ".join(sorted(k for k, on in __cpu_features__.items() if on)),
    }


def recorded_series(trace: Trace) -> Iterator[tuple[str, np.ndarray]]:
    """Every recorded series of ``trace`` with its label, in a fixed order."""
    yield "time", trace.time
    for flow in trace.flows:
        for name in ("rate", "delivery_rate", "cwnd", "inflight", "rtt"):
            yield f"{flow.cca}.{name}", getattr(flow, name)
        for key in sorted(flow.extras):
            yield f"{flow.cca}.{key}", flow.extras[key]
    for link in trace.links:
        for name in ("queue", "loss_prob", "arrival_rate", "departure_rate"):
            yield f"link.{name}", getattr(link, name)


def trace_digest(trace: Trace) -> str:
    """sha256 over the labels and bytes of every recorded series."""
    digest = hashlib.sha256()
    for label, values in recorded_series(trace):
        digest.update(label.encode())
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def summary(trace: Trace) -> dict:
    """The golden entry of ``trace``: its digest and each series' exact sum."""
    return {
        "sha256": trace_digest(trace),
        "sums": [math.fsum(values) for _, values in recorded_series(trace)],
    }


def check(name: str, entry: dict, golden: dict) -> None:
    expected = golden["cases"][name]
    np.testing.assert_allclose(
        entry["sums"], expected["sums"], rtol=RTOL, atol=ATOL, err_msg=name
    )
    if golden["environment"] == environment():
        assert entry["sha256"] == expected["sha256"], name


def paper_batch_summaries() -> dict[str, dict]:
    traces = simulate_many([point.config() for point in PAPER_POINTS.values()])
    return {
        name: summary(trace) for name, trace in zip(PAPER_POINTS, traces, strict=True)
    }


def alone_config(name: str) -> ScenarioConfig:
    return matrix_config(*MATRIX[name]) if name in MATRIX else EXTRA[name]()


def alone_summaries() -> dict[str, dict]:
    return {name: summary(simulate(alone_config(name))) for name in [*MATRIX, *EXTRA]}


def compute_all() -> dict[str, dict]:
    cases = alone_summaries()
    cases.update(paper_batch_summaries())
    return cases


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def alone() -> dict[str, dict]:
    return alone_summaries()


def test_golden_holds_every_case(golden):
    assert sorted(golden["cases"]) == sorted([*MATRIX, *EXTRA, *PAPER_POINTS])


def test_digests_apply_here(golden):
    differ = {
        key: (value, golden["environment"].get(key))
        for key, value in environment().items()
        if golden["environment"].get(key) != value
    }
    if differ:
        pytest.skip(f"digests were made elsewhere, sums checked at rtol {RTOL}: {differ}")


@pytest.mark.parametrize("name", sorted([*MATRIX, *EXTRA]))
def test_alone_trace_matches_golden(name, alone, golden):
    check(name, alone[name], golden)


def test_paper_lockstep_batch_matches_golden(golden):
    for name, entry in paper_batch_summaries().items():
        check(name, entry, golden)


def test_matrix_as_one_lockstep_batch_equals_alone(alone):
    # Dumbbells, parking lots, static and churning populations side by side:
    # each scenario's trace in the batch is bit-identical to its run alone.
    names = sorted(MATRIX)
    traces = simulate_many([matrix_config(*MATRIX[name]) for name in names])
    for name, trace in zip(names, traces, strict=True):
        assert trace_digest(trace) == alone[name]["sha256"], name


@pytest.mark.parametrize("name", ["parking-lot|BBRv1/RENO|red|churn", *EXTRA])
def test_one_ulp_changes_the_digest(name, alone):
    trace = simulate(alone_config(name))
    expected = alone[name]["sha256"]
    assert trace_digest(trace) == expected
    flow = trace.flows[-1]
    for series in (flow.rate, flow.extras["cwnd"], trace.links[-1].queue):
        k = len(series) // 2
        value = series[k]
        series[k] = np.nextafter(value, np.inf)
        assert trace_digest(trace) != expected
        series[k] = value
    assert trace_digest(trace) == expected


def test_sums_catch_a_swapped_flow(alone, golden):
    name = "dumbbell|BBRv1/CUBIC|droptail|static"
    trace = simulate(matrix_config(*MATRIX[name]))
    trace.flows[0], trace.flows[2] = trace.flows[2], trace.flows[0]
    entry = summary(trace)
    entry["sha256"] = alone[name]["sha256"]
    with pytest.raises(AssertionError):
        check(name, entry, golden)


def test_sums_tolerate_another_rounding(golden):
    # Every series 1e-14 off, the spread a scalar per-flow integrator
    # (``math.exp``, its own summation order) showed on this case, its
    # worst: the sums still hold.
    name = "parking-lot|BBRv1/RENO|droptail|churn"
    trace = simulate(matrix_config(*MATRIX[name]))
    sums = [math.fsum(values * (1.0 + 1e-14)) for _, values in recorded_series(trace)]
    assert sums != golden["cases"][name]["sums"]
    np.testing.assert_allclose(sums, golden["cases"][name]["sums"], rtol=RTOL, atol=ATOL)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update-golden"]:
        sys.exit("usage: test_fluid_golden.py --update-golden")
    cases = compute_all()
    lines = [
        f"    {json.dumps(name)}: {json.dumps(cases[name], separators=(',', ':'))}"
        for name in sorted(cases)
    ]
    GOLDEN_PATH.write_text(
        '{\n  "environment": '
        + json.dumps(environment(), sort_keys=True)
        + ',\n  "cases": {\n'
        + ",\n".join(lines)
        + "\n  }\n}\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
