"""Property test of the reduced-model right-hand side.

:func:`repro.analysis.reduced.mixed_reduced_rhs` evaluates on constants
bound once by :func:`~repro.analysis.reduced.flow_constants`.  It must
return the same bits as the straightforward per-call implementation kept
below as the oracle, for every population size (including both sides of
numpy's 8-way pairwise-sum unroll), version mix, delay profile, buffer and
queue regime.  Its batched form (K states with the same flow count, one
network each) must return, row by row, the same bits as the one-state form,
and so must a batch cut down with a boolean mask, as the integrator cuts it
when systems finish.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import adapter
from repro.analysis.reduced import (
    SingleBottleneck,
    bbr1_reduced_rhs,
    bbr2_reduced_rhs,
    flow_constants,
    mixed_reduced_rhs,
)


def oracle_rhs(
    t: float, state: np.ndarray, net: SingleBottleneck, versions: tuple[str, ...]
) -> np.ndarray:
    """Per-call reference: recomputes every per-network quantity each time."""
    delays = np.asarray(net.propagation_delays_s)
    n = net.num_flows
    x_btl = np.maximum(state[:n], 1e-9)
    queue = float(np.clip(state[n], 0.0, net.buffer_pkts))
    capacity = net.capacity_pps
    is_v1 = np.array([v == "bbr1" for v in versions])
    delta = np.where(
        is_v1,
        2.0 * delays / (delays + queue / capacity),
        delays / (delays + queue / capacity),
    )
    background = np.minimum(1.0, delta) * x_btl
    probe = np.where(is_v1, np.minimum(1.25, delta) * x_btl, 1.25 * background)
    if queue > 0:
        total_others = np.sum(background) - background
        x_max = probe * capacity / (probe + total_others)
    else:
        x_max = probe
    dx = x_max - x_btl
    dq = float(np.sum(background)) - capacity
    if queue <= 0 and dq < 0:
        dq = 0.0
    if queue >= net.buffer_pkts and dq > 0:
        dq = 0.0
    return np.concatenate([dx, [dq]])


rate = st.one_of(
    st.floats(-1e3, 1e-9),  # at or below the 1e-9 floor, negatives included
    st.floats(1e-9, 1e6),
)
QUEUE_REGIMES = ("below-zero", "zero", "interior", "at-buffer", "above-buffer")


@st.composite
def rhs_inputs(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 12))
    versions = tuple(draw(st.lists(st.sampled_from(["bbr1", "bbr2"]), min_size=n, max_size=n)))
    delays = tuple(draw(st.lists(st.floats(1e-4, 0.5), min_size=n, max_size=n)))
    capacity = draw(st.floats(1.0, 1e6))
    buffer = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e6)))
    finite_buffer = buffer if math.isfinite(buffer) else 10.0 * capacity * max(delays)
    regime = draw(st.sampled_from(QUEUE_REGIMES))
    queue = {
        "below-zero": -draw(st.floats(1e-9, 1e6)),
        "zero": 0.0,
        "interior": draw(st.floats(0.0, 1.0)) * finite_buffer,
        "at-buffer": buffer if math.isfinite(buffer) else finite_buffer,
        "above-buffer": finite_buffer * (1.0 + draw(st.floats(1e-9, 10.0))),
    }[regime]
    x_btl = draw(st.lists(rate, min_size=n, max_size=n))
    net = SingleBottleneck(capacity, delays, buffer)
    return net, versions, np.array([*x_btl, queue])


@settings(max_examples=400, deadline=None)
@given(rhs_inputs(), st.floats(0.0, 1e3))
def test_rhs_is_bit_identical_to_per_call_oracle(inputs, t):
    net, versions, state = inputs
    before = state.copy()
    constants = flow_constants(net, versions)
    got = mixed_reduced_rhs(t, state, constants)
    assert np.array_equal(got, oracle_rhs(t, state, net, versions))
    assert np.array_equal(state, before)
    # A second call on the same constants returns the same bits again.
    assert np.array_equal(mixed_reduced_rhs(t, state, constants), got)


@settings(max_examples=100, deadline=None)
@given(rhs_inputs())
def test_homogeneous_rhs_is_the_mixed_rhs(inputs):
    net, _, state = inputs
    n = net.num_flows
    assert np.array_equal(
        bbr1_reduced_rhs(0.0, state, net), oracle_rhs(0.0, state, net, ("bbr1",) * n)
    )
    assert np.array_equal(
        bbr2_reduced_rhs(0.0, state, net), oracle_rhs(0.0, state, net, ("bbr2",) * n)
    )


@st.composite
def batch_inputs(draw):
    n = draw(st.integers(1, 12))
    return draw(st.lists(rhs_inputs(n), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(batch_inputs())
def test_batched_rhs_rows_are_the_one_state_rhs(batch):
    nets = tuple(net for net, _, _ in batch)
    versions = tuple(v for _, v, _ in batch)
    states = np.array([state for _, _, state in batch])
    before = states.copy()
    got = mixed_reduced_rhs(np.zeros(len(batch)), states, flow_constants(nets, versions))
    assert got.shape == states.shape
    for row, (net, v, state) in zip(got, batch, strict=True):
        assert np.array_equal(row, mixed_reduced_rhs(0.0, state, flow_constants(net, v)))
    assert np.array_equal(states, before)


@st.composite
def regime_batches(draw):
    """A batch whose rows hit every branch: a draining empty queue, a filling
    full one, an unbounded buffer and a mixed population, plus random rows."""
    n = draw(st.integers(2, 12))
    capacity = draw(st.floats(1.0, 1e6))

    def network(buffer: float) -> tuple[SingleBottleneck, tuple[str, ...]]:
        delays = tuple(draw(st.lists(st.floats(1e-4, 0.5), min_size=n, max_size=n)))
        versions = draw(st.lists(st.sampled_from(["bbr1", "bbr2"]), min_size=n, max_size=n))
        return SingleBottleneck(capacity, delays, buffer), tuple(versions)

    # Empty queue, aggregate below capacity: dq < 0 is clamped to 0.
    net, versions = network(draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e6))))
    rates = [draw(st.floats(1e-9, 0.5)) * capacity / n for _ in range(n)]
    drain = (net, ("bbr1", "bbr2", *versions[2:]), np.array([*rates, 0.0]))
    # Full queue, aggregate above capacity: dq > 0 is clamped to 0.  A
    # buffer under half the smallest BDP keeps every window factor >= 2/3.
    net, versions = network(1.0)
    buffer = draw(st.floats(1e-3, 0.5)) * min(net.propagation_delays_s) * capacity
    net = SingleBottleneck(capacity, net.propagation_delays_s, buffer)
    fill = (net, versions, np.array([*([2.0 * capacity] * n), buffer]))
    # Unbounded buffer, queue inside: the contested share of x_max.
    net, versions = network(math.inf)
    queue = draw(st.floats(1e-6, 10.0)) * capacity * max(net.propagation_delays_s)
    busy = (net, versions, np.array([*draw(st.lists(rate, min_size=n, max_size=n)), queue]))
    rows = [drain, fill, busy, *draw(st.lists(rhs_inputs(n), max_size=5))]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], order.index(0), order.index(1)


@settings(max_examples=200, deadline=None)
@given(regime_batches(), st.data())
def test_a_cut_batch_keeps_every_rows_bits(regimes, data):
    batch, drain, fill = regimes
    nets = tuple(net for net, _, _ in batch)
    versions = tuple(v for _, v, _ in batch)
    states = np.array([state for _, _, state in batch])
    constants = flow_constants(nets, versions)
    full = mixed_reduced_rhs(np.zeros(len(batch)), states, constants)
    for row, (net, v, state) in zip(full, batch, strict=True):
        assert np.array_equal(row, mixed_reduced_rhs(0.0, state, flow_constants(net, v)))
        assert np.array_equal(row, oracle_rhs(0.0, state, net, v))
    # Both clamps hold their queue still.
    assert full[drain, -1] == 0.0 and full[fill, -1] == 0.0
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch))))
    keep[data.draw(st.integers(0, len(batch) - 1))] = True
    cut = mixed_reduced_rhs(np.zeros(np.count_nonzero(keep)), states[keep], constants[keep])
    assert np.array_equal(cut, full[keep])


def test_batch_of_mixed_flow_counts_is_rejected():
    one = SingleBottleneck(1000.0, (0.01,))
    two = SingleBottleneck(1000.0, (0.01, 0.02))
    with pytest.raises(ValueError, match="same flow count"):
        flow_constants((one, two), (("bbr1",), ("bbr1", "bbr2")))


def test_adapter_integrates_the_reduced_rhs():
    # perfbench counts RHS evaluations by patching this module attribute.
    assert adapter.mixed_reduced_rhs is mixed_reduced_rhs
