"""The lockstep fluid step makes the same Python-level calls at any batch width.

A :func:`~repro.core.simulate_many` step is bound by Python and numpy
dispatch, so its cost must not grow with one call per scenario, link or
flow group member.  This test counts calls instead of timing them: a
``sys.setprofile`` hook counts the Python ``call`` and builtin ``c_call``
events of a run of ``2N`` steps and of ``N`` steps, and the difference over
``N`` is the per-step count (set-up, trace assembly and the warm-up of the
first ``N`` steps cancel).  numpy ufuncs (``np.add``, ``np.minimum``, ...)
raise no profile event; builtin methods such as ``ndarray.sum`` and the
array-function dispatchers of ``np.where``/``np.concatenate`` do.  Calls
are counted by qualified name (``DelayRing.read``, ``ndarray.take``).
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import sys

import pytest

from repro.config import FlowSchedule
from repro.core import simulate_many
from repro.experiments import scenarios
from repro.experiments.grid import GridSpec

#: Steps per counted window (0.05 s at the sweep step).
WINDOW_STEPS = 200

#: {BBRv1/CUBIC, BBRv2/RENO} x {droptail, red}: all four CCA groups.
SMALL_GRID = GridSpec(
    mixes=("BBRv1/CUBIC", "BBRv2/RENO"),
    buffers_bdp=(1.0,),
    disciplines=("droptail", "red"),
)
SMALL_GRID_GROUPS = 4
#: The 28-point grid of the paper's aggregate figures.
PAPER_GRID = GridSpec(
    mixes=tuple(scenarios.CCA_MIXES),
    buffers_bdp=(1.0, 4.0),
    disciplines=("droptail", "red"),
)
#: A finite flow size no flow can deliver: the churn path, static dynamics.
NEVER_DONE = FlowSchedule(size_dist="fixed", mean_size_packets=1e12)


def _events(configs, steps: int) -> collections.Counter:
    configs = [c.with_duration(steps * c.fluid.dt) for c in configs]
    counter: collections.Counter = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            counter[frame.f_code.co_qualname] += 1
        elif event == "c_call":
            counter[getattr(arg, "__qualname__", repr(arg))] += 1

    # A collection can run gc callbacks (and their own calls) at any step.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        simulate_many(configs)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return counter


def per_step_calls(
    grid: GridSpec, copies: int = 1, schedule: FlowSchedule | None = None
) -> collections.Counter:
    """Profile events per lockstep step of ``grid`` (``copies`` times over).

    ``schedule`` replaces every point's flow schedule.
    """
    configs = [point.config() for point in grid.points()] * copies
    if schedule is not None:
        configs = [dataclasses.replace(c, schedule=schedule) for c in configs]
    return per_step_calls_of(configs)


def per_step_calls_of(configs) -> collections.Counter:
    """Profile events per step of ``simulate_many(configs)``."""
    _events(configs, 2)  # warm-up: imports and first-call caches
    once = _events(configs, WINDOW_STEPS)
    twice = _events(configs, 2 * WINDOW_STEPS)
    twice.subtract(once)
    return collections.Counter(
        {name: count / WINDOW_STEPS for name, count in twice.items() if count}
    )


def test_step_calls_do_not_grow_with_width():
    small = per_step_calls(SMALL_GRID)
    # Seven copies of the same four points: 28 scenarios whose rare CCA
    # transitions fire on exactly the same steps as the four alone.
    replicated = per_step_calls(SMALL_GRID, copies=7)
    assert replicated == small


def test_paper_batch_counts_like_four_points():
    small = per_step_calls(SMALL_GRID)
    paper = per_step_calls(PAPER_GRID)
    for counts in (small, paper):
        assert not any(name in counts for name in ("ndarray.sum", "ndarray.any", "_sum", "_any"))
    # ``np.where`` inside the CCAs' rare-transition guards (gain-cycle
    # rollover, new minimum-RTT samples, draining) runs on the steps where
    # some flow takes the transition, which depends on the population, not
    # on how it is batched.  Every other call is per step.
    small.pop("where", None)
    paper.pop("where", None)
    assert paper == small


def test_churn_masks_each_group_once():
    # Finite flow sizes put the batch on the churn path, where some flow may
    # have departed on any step.  No flow here can deliver its size and all
    # start at 0, so the dynamics, and with them the rare-transition
    # ``np.where`` guards, are those of the static batch: what is left is
    # the masking, one ``np.where`` over each group's state block and one
    # over its rate, whatever the number of state fields.
    static = per_step_calls(SMALL_GRID)
    churn = per_step_calls(SMALL_GRID, schedule=NEVER_DONE)
    assert churn.pop("where") - static.pop("where") <= 2 * SMALL_GRID_GROUPS
    assert churn == static



@pytest.mark.parametrize("case", ["paper-grid", "churn-grid", "attenuated-parking-lot"])
def test_one_ring_read_and_write_per_step(case):
    # Every delayed signal of a step (Eq. 1 pairs, own rate, RTT, bottleneck
    # observations, and on a multi-hop path the per-link loss, attenuation
    # survivals, arrivals and queues) comes from one ``take`` of the delay
    # ring, and the step's new samples go in with one row write.
    if case == "paper-grid":
        counts = per_step_calls(PAPER_GRID)
    elif case == "churn-grid":
        counts = per_step_calls(SMALL_GRID, schedule=NEVER_DONE)
    else:
        # Three hops with one cross flow each: every long flow crosses
        # three queued links, so all the multi-hop reads are live.
        counts = per_step_calls_of([scenarios.parking_lot_scenario("BBRv1/CUBIC")])
    assert counts["DelayRing.read"] == 1
    assert counts["DelayRing.push"] == 1
    assert counts["ndarray.take"] == 1
