"""Tests of the ring-buffer signal histories used by the method of steps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.history import VectorHistory


class TestVectorHistory:
    def test_per_component_delays(self):
        history = VectorHistory(width=3, dt=0.1, max_delay=1.0)
        for step in range(10):
            history.push(np.array([step, 10 * step, 100 * step], dtype=float))
        assert history.at_delay(0, 0.0) == 9.0
        assert history.at_delay(1, 0.2) == 70.0
        assert history.at_delay(2, 0.5) == 400.0
        np.testing.assert_allclose(history.current, [9.0, 90.0, 900.0])

    def test_shape_validation(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=0.5)
        with pytest.raises(ValueError):
            history.push(np.zeros(3))

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="width"):
            VectorHistory(width=0, dt=0.1, max_delay=1.0)
        with pytest.raises(ValueError, match="dt"):
            VectorHistory(width=1, dt=0.0, max_delay=1.0)
        with pytest.raises(ValueError, match="max_delay"):
            VectorHistory(width=1, dt=0.1, max_delay=-1.0)

    def test_initial_value_used_before_any_push(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=0.5, initial=7.0)
        assert [history.at_delay(i, 0.2) for i in range(2)] == [7.0, 7.0]
        np.testing.assert_allclose(history.current, [7.0, 7.0])

    def test_returns_initial_value_beyond_recorded_history(self):
        history = VectorHistory(width=1, dt=0.1, max_delay=0.5, initial=42.0)
        history.push(np.array([1.0]))
        # Requesting more delay than has been recorded falls back to the
        # initial (pre-history) value of the signal.
        assert history.at_delay(0, 0.5) == pytest.approx(42.0)
        assert history.at_delay(0, 0.1) == pytest.approx(42.0)
        assert history.at_delay(0, 0.0) == pytest.approx(1.0)

    def test_delay_rounds_to_nearest_step(self):
        history = VectorHistory(width=1, dt=0.1, max_delay=1.0)
        for step in range(10):
            history.push(np.array([float(step)]))
        assert history.at_delay(0, 0.26) == 6.0  # 2.6 steps -> 3
        assert history.at_delay(0, 0.24) == 7.0  # 2.4 steps -> 2

    def test_reads_stay_correct_after_the_ring_wraps(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=0.3)
        for step in range(50):
            history.push(np.array([step, -step], dtype=float))
        assert history.at_delay(0, 0.0) == 49.0
        assert history.at_delay(0, 0.3) == 46.0
        assert history.at_delay(1, 0.2) == -47.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_zero_delay_always_returns_last_pushed(self, values):
        history = VectorHistory(width=1, dt=0.01, max_delay=0.1)
        for value in values:
            history.push(np.array([value]))
        assert history.at_delay(0, 0.0) == pytest.approx(values[-1])

    def test_initial_vector_broadcast(self):
        history = VectorHistory(width=3, dt=0.1, max_delay=0.5, initial=np.array([1.0, 2.0, 3.0]))
        assert [history.at_delay(i, 0.3) for i in range(3)] == [1.0, 2.0, 3.0]

    def test_negative_delays_rejected(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=0.5)
        history.push(np.zeros(2))
        with pytest.raises(ValueError):
            history.at_delay(0, -0.1)

    def test_lag_steps_rounds_to_grid(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=1.0)
        np.testing.assert_array_equal(
            history.lag_steps(np.array([0.0, 0.31])), [0, 3]
        )

    def test_lag_steps_validation(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=0.5)
        with pytest.raises(ValueError):
            history.lag_steps(np.array([-0.1]))
        with pytest.raises(ValueError):
            history.lag_steps(np.array([100.0]))

    def test_gather_matches_at_delay(self):
        history = VectorHistory(width=3, dt=0.1, max_delay=1.0)
        for step in range(25):
            history.push(np.array([step, 10 * step, 100 * step], dtype=float))
        delays = np.array([0.0, 0.2, 0.7])
        indices = np.arange(3, dtype=np.intp)
        lags = history.lag_steps(delays)
        gathered = history.gather(indices, lags)
        expected = [history.at_delay(i, d) for i, d in zip(indices, delays, strict=True)]
        np.testing.assert_allclose(gathered, expected)

    def test_gather_clamps_to_recorded_history(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=1.0, initial=7.0)
        history.push(np.array([1.0, 2.0]))
        lags = history.lag_steps(np.array([0.9, 0.0]))
        gathered = history.gather(np.array([0, 1], dtype=np.intp), lags)
        # Clamping matches at_delay: beyond the single recorded sample the
        # lookup falls back to the initial (pre-history) value.
        assert gathered[0] == history.at_delay(0, 0.9) == pytest.approx(7.0)
        assert gathered[1] == history.at_delay(1, 0.0) == pytest.approx(2.0)

    def test_gather_arbitrary_component_order(self):
        history = VectorHistory(width=3, dt=0.1, max_delay=1.0)
        for step in range(15):
            history.push(np.array([step, 10 * step, 100 * step], dtype=float))
        indices = np.array([2, 2, 0], dtype=np.intp)
        lags = history.lag_steps(np.array([0.0, 0.3, 0.1]))
        np.testing.assert_allclose(
            history.gather(indices, lags), [1400.0, 1100.0, 13.0]
        )

    def test_advance_writes_in_place(self):
        history = VectorHistory(width=2, dt=0.1, max_delay=0.3)
        row = history.advance()
        row[:] = [3.0, 4.0]
        np.testing.assert_allclose(history.current, [3.0, 4.0])
        assert [history.at_delay(i, 0.0) for i in range(2)] == [3.0, 4.0]

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=50),
    )
    def test_gather_always_matches_at_delay(self, width, steps):
        history = VectorHistory(width=width, dt=0.01, max_delay=0.2)
        for step in range(steps):
            history.push(np.arange(width, dtype=float) + step)
        delays = np.linspace(0.0, 0.2, width)
        indices = np.arange(width, dtype=np.intp)
        gathered = history.gather(indices, history.lag_steps(delays))
        expected = [history.at_delay(i, d) for i, d in zip(indices, delays, strict=True)]
        np.testing.assert_allclose(gathered, expected)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=50),
    )
    def test_lookup_never_raises_within_max_delay(self, width, steps):
        history = VectorHistory(width=width, dt=0.01, max_delay=0.2)
        for step in range(steps):
            history.push(np.full(width, float(step)))
        for delay in (0.0, 0.05, 0.1, 0.2):
            values = [history.at_delay(i, delay) for i in range(width)]
            assert all(value <= steps - 1 for value in values)
