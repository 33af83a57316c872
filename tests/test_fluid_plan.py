"""The fluid simulator's constant step tables, checked without integrating.

:class:`~repro.core.simulator.FluidSimulator` builds every table its step
reads once, in the constructor: the ring read table, the Eq. 1 blocks, the
hop columns of Eq. 3, the attenuation and multi-hop tables.  These tests
read them straight off a constructed simulator: every ring read lands in
the ring, each link's Eq. 1 pairs are its users in the scenario's own flow
order (in a batch too), ``hop_cols`` follows each path, and no table can be
written.  The last test runs one simulator twice: nothing a run changes
may reach the tables.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import FluidSimulator
from repro.core.history import DelayRing
from repro.experiments import scenarios
from repro.experiments.grid import GridSpec
from test_fluid_golden import CHURN, DURATION_S, PAPER_GRID, recorded_series

CHURN_GRID = GridSpec(
    mixes=("BBRv1/CUBIC", "BBRv2/RENO"),
    buffers_bdp=(1.0,),
    disciplines=("droptail", "red"),
    duration_s=DURATION_S,
)


def attenuated_lot(mix: str = "BBRv1/CUBIC", hops: int = 3, discipline: str = "red"):
    """A lot whose half-capacity middle hop caps and thins the long flows."""
    return scenarios.parking_lot_scenario(
        mix,
        hops=hops,
        capacity_mbps=(100.0, 50.0) + (100.0,) * (hops - 2),
        discipline=discipline,
        duration_s=DURATION_S,
    )


CASES = {
    "paper-grid": lambda: [point.config() for point in PAPER_GRID.points()],
    "churn-grid": lambda: [
        dataclasses.replace(point.config(), schedule=CHURN) for point in CHURN_GRID.points()
    ],
    "attenuated-lot": lambda: [attenuated_lot()],
    "mixed-3-4-hop": lambda: [
        attenuated_lot(),
        attenuated_lot("BBRv2/RENO", hops=4, discipline="droptail"),
    ],
}


@pytest.fixture(params=sorted(CASES))
def configs(request):
    return CASES[request.param]()


def slot_flows(sim: FluidSimulator) -> list[int]:
    """The flow in each slot of the group-major layout."""
    return [i for _, _, flow_ids, _, _ in sim.groups for i in flow_ids]


def eq1_pairs(sim: FluidSimulator) -> dict[int, list[tuple[int, float]]]:
    """Queued-link position -> its Eq. 1 (flow, forward delay) pairs, in sum order."""
    flows = slot_flows(sim)
    eq1 = sim.read_at["eq1"]
    pairs: dict[int, list[tuple[int, float]]] = {}
    for rows, positions in sim.eq1_blocks:
        for row, row_positions in zip(rows, positions, strict=True):
            assert all(eq1.start <= p < eq1.stop for p in row_positions)
            pairs[int(row)] = [
                (flows[sim.read_columns[p]], float(sim.read_delays[p])) for p in row_positions
            ]
    assert sorted(pairs) == list(range(len(sim.queued_links)))
    return pairs


def tables(value, name: str = ""):
    """Every array reachable from ``value`` through lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            yield from tables(item, f"{name}[{k}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from tables(item, f"{name}[{key!r}]")


def test_read_offsets_land_inside_the_ring(configs):
    sim = FluidSimulator(configs)
    width = sim.ring_row.size
    ring = DelayRing(width, sim.dt, sim.max_delay)
    columns, delays = sim.read_columns, sim.read_delays
    assert columns.shape == delays.shape
    assert np.all((columns >= 0) & (columns < width))
    lags = np.rint(delays / sim.dt)
    assert np.all((lags >= 0) & (lags <= ring.size - 1))
    offsets = ring.offsets(columns, delays)
    assert np.all((offsets > -ring.size * width) & (offsets < width))
    # The named slices tile the read in order.
    bounds = [(at.start, at.stop) for at in sim.read_at.values()]
    assert bounds[0][0] == 0 and bounds[-1][1] == columns.size
    assert all(bounds[k][1] == bounds[k + 1][0] for k in range(len(bounds) - 1))


def test_eq1_pairs_are_each_links_users_in_flow_order(configs):
    sim = FluidSimulator(configs)
    net = sim.network
    for pos, pairs in eq1_pairs(sim).items():
        idx = sim.queued_links[pos]
        users = [flow for flow, _ in pairs]
        assert users == net.users(idx) == sorted(users)
        assert [delay for _, delay in pairs] == [net.forward_delay(i, idx) for i in users]


def test_batch_eq1_pairs_are_the_alone_pairs_shifted(configs):
    batch = eq1_pairs(FluidSimulator(configs))
    flow_at = link_at = 0
    for config in configs:
        alone = FluidSimulator([config])
        for pos, pairs in eq1_pairs(alone).items():
            shifted = [(flow + flow_at, delay) for flow, delay in pairs]
            assert batch[link_at + pos] == shifted
        flow_at += alone.network.num_flows
        link_at += len(alone.queued_links)
    assert len(batch) == link_at


def test_hop_cols_follow_each_path(configs):
    sim = FluidSimulator(configs)
    net = sim.network
    pos_of_link = {idx: pos for pos, idx in enumerate(sim.queued_links)}
    padding = len(sim.queued_links)
    for slot, i in enumerate(slot_flows(sim)):
        hops = [pos_of_link[idx] for idx in net.paths[i].link_indices if idx in pos_of_link]
        cols = [int(hop_cols[slot]) for hop_cols in sim.hop_cols]
        assert cols[: len(hops)] == hops
        assert cols[len(hops) :] == [padding] * (len(cols) - len(hops))


def test_multi_hop_cases_reach_every_table():
    # The lots exercise the attenuation, multi-hop and padding tables that
    # the dumbbell grids leave empty.
    sim = FluidSimulator(CASES["mixed-3-4-hop"]())
    assert sim.att_positions.size and sim.multi_slots.size
    assert len(sim.hop_cols) == 4 and len(sim.att_levels) == 3
    assert not sim.pad_valid.all()
    assert np.all(np.isinf(sim.caps_pad[~sim.pad_valid]))
    assert np.array_equal(sim.multi_caps[sim.pad_idx[sim.pad_valid]], sim.caps_pad[sim.pad_valid])


def test_tables_refuse_writes(configs):
    sim = FluidSimulator(configs)
    found = dict(tables(vars(sim)))
    # Each named table holds an array in every case (``att_levels`` only
    # on the lots, where ``att_positions`` is not empty).
    names = [
        "read_columns", "read_delays", "eq1_blocks", "btl_capacity", "att_positions",
        "multi_slots", "pad_idx", "caps_pad", "latency_const", "hop_cols",
        "link_capacity", "link_buffer", "droptail_mask", "start_times", "stop_times",
        "sizes", "ring_row",
    ]
    if sim.att_positions.size:
        names.append("att_levels")
    for name in names:
        assert any(key.startswith(f"[{name!r}]") for key in found), name
    for name, table in found.items():
        with pytest.raises(ValueError, match="read-only"):
            table[...] = table
        assert not table.flags.writeable, name


def test_two_runs_of_one_simulator_are_bit_identical(configs):
    sim = FluidSimulator(configs)
    first, second = sim.run(), sim.run()
    if configs[0].schedule is CHURN:
        # Flows complete mid-run, so the churn state changes during it.
        assert any(flow.end_time_s is not None for trace in first for flow in trace.flows)
    for a, b in zip(first, second, strict=True):
        assert [flow.end_time_s for flow in a.flows] == [flow.end_time_s for flow in b.flows]
        for (label, x), (_, y) in zip(recorded_series(a), recorded_series(b), strict=True):
            assert (x is None) == (y is None), label
            if x is not None:
                assert x.tobytes() == y.tobytes(), label
