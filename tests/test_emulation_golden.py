"""Goldens of the packet emulator: exact counts, per-series sums.

``tests/golden/emulation_counts.json`` stores, per emulated scenario:

* ``flows``: each flow's ``[sent, delivered, lost]`` packet counts, and
  ``links``: each queued link's ``[enqueued, dropped, transmitted]``
  counters.  The emulator is integer event bookkeeping driven by seeded
  RNG streams, so these hold exactly on any machine: one packet admitted,
  dropped or acknowledged differently changes one of them.
* ``sums``: the exact sum (``math.fsum``) of every recorded trace series
  (the same series as the fluid goldens), compared at the fluid goldens'
  ``RTOL``: a shifted sample, a swapped flow or a changed rate
  normalisation moves them.

The number of events popped is not stored: it counts how the scheduler
reaches a result, not the result, and a cheaper event layer may pop fewer
events for the same packets.

The cases, all single runs of :class:`~repro.emulation.EmulationRunner`:

* the matrix {BBRv1, BBRv2, CUBIC, RENO} x {droptail, RED} x {dumbbell,
  3-hop parking lot} x {static population, Poisson churn} at 1 s;
* :data:`EXTRA`: the configurations the emulator's count-identity checks
  ran (mixed CCAs, other seeds, a duration that is not a multiple of the
  sampling interval) and the 10 s four-flow run of
  ``benchmarks/test_perf_emulation.py``.

Regenerate only on purpose (a deliberate change of the emulator's
numbers), and review the diff::

    PYTHONPATH=src python tests/test_emulation_golden.py --update-golden
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

from repro.config import FlowSchedule, ScenarioConfig, dumbbell_scenario
from repro.emulation import DropTailQueue, EmulationRunner
from repro.experiments import scenarios
from test_fluid_golden import ATOL, RTOL, recorded_series

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "emulation_counts.json"
DURATION_S = 1.0
#: Mix label -> the CCA of every dumbbell flow and of every long flow of the
#: lot (whose cross flows stay CUBIC).
MIXES = {"BBRv1": "bbr1", "BBRv2": "bbr2", "CUBIC": "cubic", "RENO": "reno"}
DISCIPLINES = ("droptail", "red")
TOPOLOGIES = ("dumbbell", "parking-lot")
#: Poisson arrivals of bounded-Pareto flows: within 1 s the ten flows join
#: one after another, most of them complete, and enough overlap to drop
#: packets on every hop of the lot.
CHURN = FlowSchedule(
    arrivals="poisson",
    arrival_rate_per_s=20.0,
    size_dist="pareto",
    min_size_packets=200.0,
    max_size_packets=5000.0,
)


def matrix_config(topology_name: str, mix: str, discipline: str, churn: bool) -> ScenarioConfig:
    """One scenario of the matrix: ten flows of ``mix`` on a 1 BDP buffer."""
    if topology_name == "dumbbell":
        config = scenarios.aggregate_scenario("BBRv1", 1.0, discipline, duration_s=DURATION_S)
    else:
        config = scenarios.parking_lot_scenario(
            "BBRv1", hops=3, discipline=discipline, duration_s=DURATION_S
        )
    flows = tuple(
        dataclasses.replace(flow, cca=MIXES[mix]) if flow.cca == "bbr1" else flow
        for flow in config.flows
    )
    return dataclasses.replace(config, flows=flows, schedule=CHURN if churn else None)


def case_name(topology_name: str, mix: str, discipline: str, churn: bool) -> str:
    return f"{topology_name}|{mix}|{discipline}|{'churn' if churn else 'static'}"


MATRIX = {
    case_name(*case): case
    for case in (
        (topology_name, mix, discipline, churn)
        for topology_name in TOPOLOGIES
        for mix in MIXES
        for discipline in DISCIPLINES
        for churn in (False, True)
    )
}


#: Scenarios outside the matrix.
EXTRA: dict[str, Callable[[], ScenarioConfig]] = {
    "dumbbell|BBRv1x3|droptail|seed3": lambda: dumbbell_scenario(
        ["bbr1"] * 3, duration_s=2.0, seed=3
    ),
    "dumbbell|BBRv1/RENO/CUBIC/BBRv2|droptail|seed3": lambda: dumbbell_scenario(
        ["bbr1", "reno", "cubic", "bbr2"], duration_s=2.0, seed=3
    ),
    "dumbbell|BBRv1x2|droptail|seed11": lambda: dumbbell_scenario(
        ["bbr1"] * 2, duration_s=2.0, seed=11
    ),
    "dumbbell|RENO|droptail|0.505s": lambda: dumbbell_scenario(["reno"], duration_s=0.505),
    "dumbbell|BBRv1/RENO|droptail|1.5s": lambda: dumbbell_scenario(
        ["bbr1", "reno"], buffer_bdp=1.0, duration_s=1.5
    ),
    "dumbbell|BBRv1/RENO|droptail|seed5": lambda: dumbbell_scenario(
        ["bbr1", "reno"], duration_s=1.0, discipline="droptail", seed=5
    ),
    "dumbbell|BBRv1/RENO|red|seed5": lambda: dumbbell_scenario(
        ["bbr1", "reno"], duration_s=1.0, discipline="red", seed=5
    ),
    "dumbbell|BBRv1x4|droptail|10s": lambda: dumbbell_scenario(
        ["bbr1"] * 4, duration_s=10.0, seed=1
    ),
}


def case_config(name: str) -> ScenarioConfig:
    return matrix_config(*MATRIX[name]) if name in MATRIX else EXTRA[name]()


def summary(runner: EmulationRunner) -> dict:
    """Run ``runner``; its golden entry: exact counts and each series' sum."""
    trace = runner.run()
    return {
        "flows": [
            [s.sent_count, s.delivered_count, s.lost_count] for s in runner.senders.values()
        ],
        "links": [
            [link.queue.enqueued, link.queue.dropped, link.transmitted]
            for link in runner.links
        ],
        "sums": [math.fsum(values) for _, values in recorded_series(trace)],
    }


def compute(name: str) -> dict:
    return summary(EmulationRunner(case_config(name)))


def check(name: str, entry: dict, golden: dict) -> None:
    expected = golden["cases"][name]
    assert entry["flows"] == expected["flows"], name
    assert entry["links"] == expected["links"], name
    np.testing.assert_allclose(
        entry["sums"], expected["sums"], rtol=RTOL, atol=ATOL, err_msg=name
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_holds_every_case(golden):
    assert sorted(golden["cases"]) == sorted([*MATRIX, *EXTRA])


@pytest.mark.parametrize("name", sorted([*MATRIX, *EXTRA]))
def test_emulation_matches_golden(name, golden):
    check(name, compute(name), golden)


def test_one_extra_drop_fails_the_golden(golden, monkeypatch):
    # Drop the 100th admission that would have been accepted: one packet
    # less enqueued and one more dropped on the link, one lost instead of
    # delivered on its flow.
    name = "dumbbell|RENO|droptail|0.505s"
    decide = DropTailQueue.decide
    admissions = 0

    def drop_one_more(self, occupancy, now):
        nonlocal admissions
        accepted = decide(self, occupancy, now)
        if accepted:
            admissions += 1
            if admissions == 100:
                self.enqueued -= 1
                self.dropped += 1
                return False
        return accepted

    monkeypatch.setattr(DropTailQueue, "decide", drop_one_more)
    entry = compute(name)
    assert admissions >= 100
    with pytest.raises(AssertionError):
        check(name, entry, golden)
    monkeypatch.undo()
    check(name, compute(name), golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update-golden"]:
        sys.exit("usage: test_emulation_golden.py --update-golden")
    names = sorted([*MATRIX, *EXTRA])
    lines = [
        f"    {json.dumps(name)}: {json.dumps(compute(name), separators=(',', ':'))}"
        for name in names
    ]
    GOLDEN_PATH.write_text('{\n  "cases": {\n' + ",\n".join(lines) + "\n  }\n}\n")
    print(f"wrote {len(names)} cases to {GOLDEN_PATH}")
