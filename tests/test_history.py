"""Tests of the delay ring that holds the fluid step's delayed signals.

The oracle is the former per-signal history: a ``(slots, width)`` ring read
with a 2-D fancy index, whose reads before the ring has filled clamp the lag
to the steps recorded so far.  :class:`~repro.core.history.DelayRing` drops
the clamp (unwritten rows still hold ``initial``) and reads one flat
``take`` at precomputed offsets; every read here must equal the oracle's
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.history import DelayRing


class OracleHistory:
    """The former 2-D ring: per-component reads with the warm-up lag clamp."""

    def __init__(self, width, dt, max_delay, initial=0.0):
        self.width = width
        self.dt = dt
        self._size = int(np.ceil(max_delay / dt)) + 2
        self._buffer = np.zeros((self._size, width), dtype=float)
        self._buffer[:] = np.asarray(initial, dtype=float)
        self._head = 0
        self._steps = 0

    def at_delay(self, index: int, delay: float) -> float:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        lag = min(int(round(delay / self.dt)), self._steps, self._size - 1)
        return float(self._buffer[(self._head - lag) % self._size, index])

    def gather(self, indices: np.ndarray, lags: np.ndarray) -> np.ndarray:
        if self._steps < self._size - 1:
            lags = np.minimum(lags, self._steps)
        return self._buffer[self._head - lags, indices]

    def advance(self) -> np.ndarray:
        self._head = (self._head + 1) % self._size
        self._steps += 1
        return self._buffer[self._head]


class Checked:
    """A :class:`DelayRing` and its oracle fed the same samples.

    Every read goes through the ring and is checked against the oracle.
    """

    def __init__(self, width, dt, max_delay, initial=0.0):
        self.ring = DelayRing(width, dt, max_delay, initial)
        self.oracle = OracleHistory(width, dt, max_delay, initial)
        self.width = width

    def push(self, values) -> None:
        values = np.asarray(values, dtype=float)
        self.ring.push((values,))
        self.oracle.advance()[:] = values

    def at_delay(self, index: int, delay: float) -> float:
        [value] = self.ring.read(self.ring.offsets([index], [delay]))
        assert value == self.oracle.at_delay(index, delay)
        return float(value)

    def gather(self, indices, delays) -> np.ndarray:
        values = self.ring.read(self.ring.offsets(indices, delays))
        expected = self.oracle.gather(
            np.asarray(indices, dtype=np.intp), self.ring.lag_steps(delays)
        )
        assert values.tobytes() == expected.tobytes()
        assert list(values) == [
            self.oracle.at_delay(int(i), float(d))
            for i, d in zip(indices, delays, strict=True)
        ]
        return values

    def latest(self) -> list[float]:
        return [self.at_delay(i, 0.0) for i in range(self.width)]


class TestDelayRing:
    def test_per_component_delays(self):
        history = Checked(width=3, dt=0.1, max_delay=1.0)
        for step in range(10):
            history.push([step, 10 * step, 100 * step])
        assert history.at_delay(0, 0.0) == 9.0
        assert history.at_delay(1, 0.2) == 70.0
        assert history.at_delay(2, 0.5) == 400.0
        np.testing.assert_allclose(history.latest(), [9.0, 90.0, 900.0])

    def test_shape_validation(self):
        # An initial vector must hold one value per component.
        with pytest.raises(ValueError):
            DelayRing(width=2, dt=0.1, max_delay=0.5, initial=np.zeros(3))

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="width"):
            DelayRing(width=0, dt=0.1, max_delay=1.0)
        with pytest.raises(ValueError, match="dt"):
            DelayRing(width=1, dt=0.0, max_delay=1.0)
        with pytest.raises(ValueError, match="max_delay"):
            DelayRing(width=1, dt=0.1, max_delay=-1.0)

    def test_initial_value_used_before_any_push(self):
        history = Checked(width=2, dt=0.1, max_delay=0.5, initial=7.0)
        assert [history.at_delay(i, 0.2) for i in range(2)] == [7.0, 7.0]
        np.testing.assert_allclose(history.latest(), [7.0, 7.0])

    def test_returns_initial_value_beyond_recorded_history(self):
        history = Checked(width=1, dt=0.1, max_delay=0.5, initial=42.0)
        history.push([1.0])
        # Requesting more delay than has been recorded falls back to the
        # initial (pre-history) value of the signal.
        assert history.at_delay(0, 0.5) == pytest.approx(42.0)
        assert history.at_delay(0, 0.1) == pytest.approx(42.0)
        assert history.at_delay(0, 0.0) == pytest.approx(1.0)

    def test_delay_rounds_to_nearest_step(self):
        history = Checked(width=1, dt=0.1, max_delay=1.0)
        for step in range(10):
            history.push([float(step)])
        assert history.at_delay(0, 0.26) == 6.0  # 2.6 steps -> 3
        assert history.at_delay(0, 0.24) == 7.0  # 2.4 steps -> 2

    def test_reads_stay_correct_after_the_ring_wraps(self):
        history = Checked(width=2, dt=0.1, max_delay=0.3)
        for step in range(50):
            history.push([step, -step])
        assert history.at_delay(0, 0.0) == 49.0
        assert history.at_delay(0, 0.3) == 46.0
        assert history.at_delay(1, 0.2) == -47.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_zero_delay_always_returns_last_pushed(self, values):
        history = Checked(width=1, dt=0.01, max_delay=0.1)
        for value in values:
            history.push([value])
        assert history.at_delay(0, 0.0) == pytest.approx(values[-1])

    def test_initial_vector_broadcast(self):
        history = Checked(width=3, dt=0.1, max_delay=0.5, initial=np.array([1.0, 2.0, 3.0]))
        assert [history.at_delay(i, 0.3) for i in range(3)] == [1.0, 2.0, 3.0]

    def test_negative_delays_rejected(self):
        history = Checked(width=2, dt=0.1, max_delay=0.5)
        history.push(np.zeros(2))
        with pytest.raises(ValueError):
            history.ring.offsets([0], [-0.1])
        with pytest.raises(ValueError):
            history.oracle.at_delay(0, -0.1)

    def test_lag_steps_rounds_to_grid(self):
        ring = DelayRing(width=2, dt=0.1, max_delay=1.0)
        np.testing.assert_array_equal(ring.lag_steps(np.array([0.0, 0.31])), [0, 3])

    def test_lag_steps_validation(self):
        ring = DelayRing(width=2, dt=0.1, max_delay=0.5)
        with pytest.raises(ValueError):
            ring.lag_steps(np.array([-0.1]))
        with pytest.raises(ValueError):
            ring.lag_steps(np.array([100.0]))

    def test_offsets_reject_columns_outside_the_row(self):
        ring = DelayRing(width=2, dt=0.1, max_delay=0.5)
        for column in (-1, 2):
            with pytest.raises(ValueError, match="column"):
                ring.offsets([column], [0.0])

    def test_read_matches_oracle(self):
        history = Checked(width=3, dt=0.1, max_delay=1.0)
        for step in range(25):
            history.push([step, 10 * step, 100 * step])
        history.gather([0, 1, 2], [0.0, 0.2, 0.7])

    def test_read_clamps_like_the_oracle_before_the_ring_fills(self):
        history = Checked(width=2, dt=0.1, max_delay=1.0, initial=7.0)
        history.push([1.0, 2.0])
        # Beyond the single recorded sample the read falls back to the
        # initial (pre-history) value, as the oracle's clamped lag does.
        assert list(history.gather([0, 1], [0.9, 0.0])) == [7.0, 2.0]

    def test_read_arbitrary_component_order(self):
        history = Checked(width=3, dt=0.1, max_delay=1.0)
        for step in range(15):
            history.push([step, 10 * step, 100 * step])
        values = history.gather([2, 2, 0], [0.0, 0.3, 0.1])
        np.testing.assert_allclose(values, [1400.0, 1100.0, 13.0])

    def test_push_writes_one_row(self):
        history = Checked(width=2, dt=0.1, max_delay=0.3)
        history.push([3.0, 4.0])
        assert history.latest() == [3.0, 4.0]

    def test_push_concatenates_its_parts(self):
        ring = DelayRing(width=3, dt=0.1, max_delay=0.3)
        ring.push((np.array([1.0, 2.0]), np.array([3.0])))
        assert list(ring.read(ring.offsets([0, 1, 2], [0.0, 0.0, 0.0]))) == [1.0, 2.0, 3.0]

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=50),
    )
    def test_read_always_matches_oracle(self, width, steps):
        history = Checked(width=width, dt=0.01, max_delay=0.2)
        for step in range(steps):
            history.push(np.arange(width, dtype=float) + step)
        history.gather(np.arange(width), np.linspace(0.0, 0.2, width))

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=50),
    )
    def test_lookup_never_raises_within_max_delay(self, width, steps):
        history = Checked(width=width, dt=0.01, max_delay=0.2)
        for step in range(steps):
            history.push(np.full(width, float(step)))
        for delay in (0.0, 0.05, 0.1, 0.2):
            values = [history.at_delay(i, delay) for i in range(width)]
            assert all(value <= steps - 1 for value in values)

    @given(st.data())
    def test_every_read_equals_the_oracle_through_warm_up_and_wrap(self, data):
        # Any (column, lag) table, read after every push: before the ring
        # has filled (the oracle clamps, the ring reads unwritten rows that
        # still hold ``initial``), when it is exactly full, and after it
        # has wrapped several times.
        width = data.draw(st.integers(min_value=1, max_value=9), label="width")
        dt = 0.01
        max_delay = data.draw(st.integers(min_value=0, max_value=12), label="max_steps") * dt
        finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
        if data.draw(st.booleans(), label="vector initial"):
            initial = np.array(
                data.draw(st.lists(finite, min_size=width, max_size=width), label="initial")
            )
        else:
            initial = data.draw(finite, label="initial")
        history = Checked(width, dt, max_delay, initial)
        size = history.ring.size
        reads = data.draw(st.integers(min_value=1, max_value=3 * width), label="reads")
        columns = data.draw(
            st.lists(st.integers(0, width - 1), min_size=reads, max_size=reads),
            label="columns",
        )
        lags = data.draw(
            st.lists(st.integers(0, size - 1), min_size=reads, max_size=reads),
            label="lags",
        )
        delays = np.array(lags) * dt
        np.testing.assert_array_equal(history.ring.lag_steps(delays), lags)
        steps = data.draw(
            st.sampled_from([0, 1, size - 2, size - 1, size, size + 1, 3 * size + 2]),
            label="steps",
        )
        history.gather(columns, delays)
        for step in range(steps):
            history.push(np.arange(width, dtype=float) + width * (step + 1))
            history.gather(columns, delays)
