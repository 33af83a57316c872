"""Property test of the reduced-model right-hand side.

:func:`repro.analysis.reduced.mixed_reduced_rhs` precomputes its
per-network constants and reuses them on every call.  It must return the
same bits as the straightforward per-call implementation kept below as the
oracle, for every population size (including both sides of numpy's 8-way
pairwise-sum unroll), version mix, delay profile, buffer and queue regime.
Its batched form (K states with the same flow count, one network each)
must return, row by row, the same bits as the one-state form.
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
    got = mixed_reduced_rhs(t, state, net, versions)
    assert np.array_equal(got, oracle_rhs(t, state, net, versions))
    assert np.array_equal(state, before)
    # A second call on the cached constants returns the same bits again.
    assert np.array_equal(mixed_reduced_rhs(t, state, net, versions), got)


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
    got = mixed_reduced_rhs(np.zeros(len(batch)), states, nets, versions)
    assert got.shape == states.shape
    for row, (net, v, state) in zip(got, batch, strict=True):
        assert np.array_equal(row, mixed_reduced_rhs(0.0, state, net, v))
    assert np.array_equal(states, before)


def test_batch_of_mixed_flow_counts_is_rejected():
    one = SingleBottleneck(1000.0, (0.01,))
    two = SingleBottleneck(1000.0, (0.01, 0.02))
    with pytest.raises(ValueError, match="same flow count"):
        mixed_reduced_rhs(0.0, np.ones((2, 2)), (one, two), (("bbr1",), ("bbr1", "bbr2")))


def test_adapter_integrates_the_reduced_rhs():
    # perfbench counts RHS evaluations by patching this module attribute.
    assert adapter.mixed_reduced_rhs is mixed_reduced_rhs
