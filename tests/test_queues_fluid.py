"""Tests of the fluid queue and loss models (Eq. 2, 4, 6).

The kernels work element-wise over the queued links; each case here runs
them on one-element arrays.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import topology
from repro.config import FlowConfig, FluidParams, ScenarioConfig, dumbbell_scenario
from repro.core import queues, simulate

# A kernel that overflows or divides by zero on valid input fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

positive_rates = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
capacities = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
buffers = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
FAST = FluidParams(dt=1e-3)


def droptail_loss(arrival, capacity, queue, buffer_size) -> float:
    [loss] = queues.droptail_loss_vec(
        np.array([arrival]), np.array([capacity]), np.array([queue]), np.array([buffer_size])
    )
    return float(loss)


def red_loss(queue, buffer_size) -> float:
    [loss] = queues.red_loss_vec(np.array([queue]), np.array([buffer_size]))
    return float(loss)


def step_queue(queue, arrival, capacity, loss, buffer_size, dt) -> float:
    [new_queue] = queues.step_queue_vec(
        np.array([queue]),
        np.array([arrival]),
        np.array([capacity]),
        np.array([loss]),
        np.array([buffer_size]),
        dt,
    )
    return float(new_queue)


class TestDroptailLoss:
    def test_no_loss_when_queue_empty(self):
        assert droptail_loss(2000.0, 1000.0, 0.0, 100.0) == pytest.approx(0.0, abs=1e-9)

    def test_no_loss_when_below_capacity(self):
        assert droptail_loss(500.0, 1000.0, 100.0, 100.0) == pytest.approx(0.0, abs=1e-6)

    def test_full_queue_loss_equals_excess(self):
        # With a full queue and 25% overload, 20% of the traffic is lost.
        loss = droptail_loss(1250.0, 1000.0, 100.0, 100.0)
        assert loss == pytest.approx(0.2, rel=1e-2)

    def test_infinite_buffer_never_drops(self):
        assert droptail_loss(2000.0, 1000.0, 1e9, math.inf) == 0.0

    def test_zero_arrival_is_lossless(self):
        assert droptail_loss(0.0, 1000.0, 100.0, 100.0) == 0.0

    @given(positive_rates, capacities, buffers)
    def test_loss_bounded(self, arrival, capacity, buffer_size):
        queue = buffer_size / 2.0
        loss = droptail_loss(arrival, capacity, queue, buffer_size)
        assert 0.0 <= loss <= 1.0

    @given(positive_rates, capacities, buffers)
    def test_loss_increases_with_queue(self, arrival, capacity, buffer_size):
        low = droptail_loss(arrival, capacity, 0.5 * buffer_size, buffer_size)
        high = droptail_loss(arrival, capacity, buffer_size, buffer_size)
        assert high >= low - 1e-12


class TestRedLoss:
    def test_proportional_to_occupancy(self):
        assert red_loss(50.0, 100.0) == pytest.approx(0.5)

    def test_clamped_at_one(self):
        assert red_loss(200.0, 100.0) == 1.0

    def test_infinite_buffer(self):
        assert red_loss(100.0, math.inf) == 0.0

    @given(st.floats(min_value=0.0, max_value=1e5), buffers)
    def test_bounded(self, queue, buffer_size):
        assert 0.0 <= red_loss(queue, buffer_size) <= 1.0


def loss_model(link, discipline: str, fluid: FluidParams) -> np.ndarray:
    """Eq. 4 or Eq. 6 on a recorded link trace."""
    buffer_size = np.full_like(link.queue, link.buffer_pkts)
    if discipline == "red":
        return queues.red_loss_vec(link.queue, buffer_size)
    return queues.droptail_loss_vec(
        link.arrival_rate,
        np.full_like(link.queue, link.capacity_pps),
        link.queue,
        buffer_size,
        fluid.sigmoid_sharpness,
        fluid.droptail_exponent,
    )


class TestDispatch:
    """The integrator takes each queued link's loss from its own discipline."""

    def check_recorded_loss(self, config: ScenarioConfig, disciplines: list[str]) -> None:
        trace = simulate(config)
        assert len(trace.links) == len(disciplines)
        for link, discipline in zip(trace.links, disciplines, strict=True):
            np.testing.assert_array_equal(
                link.loss_prob, loss_model(link, discipline, config.fluid)
            )
        assert max(float(link.loss_prob.max()) for link in trace.links) > 0.0

    def test_red_dispatch_matches_red_loss(self):
        config = dumbbell_scenario(
            ["bbr1", "reno"], discipline="red", duration_s=0.5, fluid=FAST
        )
        self.check_recorded_loss(config, ["red"])

    def test_droptail_dispatch_matches_droptail_loss(self):
        config = dumbbell_scenario(
            ["bbr1", "reno"], buffer_bdp=0.5, duration_s=0.5, fluid=FAST
        )
        self.check_recorded_loss(config, ["droptail"])

    def test_mixed_hops_dispatch_per_link(self):
        disciplines = ["droptail", "red", "droptail"]
        topo = topology.parking_lot(
            3, cross_flows=1, long_flows=2, buffer_bdp=0.5, discipline=disciplines
        )
        config = ScenarioConfig(
            bottleneck=None,
            flows=tuple(FlowConfig(cca="bbr1") for _ in range(5)),
            duration_s=0.5,
            fluid=FAST,
            topology=topo,
        )
        self.check_recorded_loss(config, disciplines)


class TestElementwise:
    @given(
        st.lists(
            st.tuples(
                positive_rates,
                capacities,
                st.floats(min_value=0.0, max_value=1.0),
                buffers,
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_links_are_independent(self, links):
        # The simulator updates every queued link of a step, and of a
        # lockstep batch, in one call; each entry must equal its link alone.
        arrival, capacity, fill, buffer_size, loss = (np.array(c) for c in zip(*links, strict=True))
        queue = fill * buffer_size
        droptail = queues.droptail_loss_vec(arrival, capacity, queue, buffer_size)
        red = queues.red_loss_vec(queue, buffer_size)
        stepped = queues.step_queue_vec(queue, arrival, capacity, loss, buffer_size, 0.01)
        for k, (a, c, _, b, p) in enumerate(links):
            assert droptail[k] == droptail_loss(a, c, queue[k], b)
            assert red[k] == red_loss(queue[k], b)
            assert stepped[k] == step_queue(queue[k], a, c, p, b, 0.01)


class TestQueueIntegration:
    def test_grows_under_overload(self):
        q = step_queue(0.0, 2000.0, 1000.0, 0.0, 100.0, dt=0.01)
        assert q == pytest.approx(10.0)

    def test_drains_under_underload(self):
        q = step_queue(50.0, 0.0, 1000.0, 0.0, 100.0, dt=0.01)
        assert q == pytest.approx(40.0)

    def test_never_negative(self):
        assert step_queue(0.0, 0.0, 1000.0, 0.0, 100.0, dt=1.0) == 0.0

    def test_never_exceeds_buffer(self):
        assert step_queue(99.0, 1e6, 1000.0, 0.0, 100.0, dt=1.0) == 100.0

    def test_loss_reduces_effective_arrival(self):
        lossless = step_queue(0.0, 2000.0, 1000.0, 0.0, 1e6, dt=0.01)
        lossy = step_queue(0.0, 2000.0, 1000.0, 0.5, 1e6, dt=0.01)
        assert lossy < lossless

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        positive_rates,
        capacities,
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_queue_stays_in_bounds(self, queue, arrival, capacity, loss):
        buffer_size = 100.0
        new_queue = step_queue(queue, arrival, capacity, loss, buffer_size, dt=0.05)
        assert 0.0 <= new_queue <= buffer_size
