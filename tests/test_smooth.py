"""Tests and properties of the sharp sigmoid of Eq. 5."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import smooth

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
K = smooth.DEFAULT_SHARPNESS


def sigmoid(v, sharpness=K):
    return float(smooth.scaled_sigmoid(np.asarray(v * sharpness, dtype=float)))


class TestScaledSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_saturation(self):
        assert sigmoid(1.0) == pytest.approx(1.0, abs=1e-6)
        assert sigmoid(-1.0) == pytest.approx(0.0, abs=1e-6)

    def test_sharpness_controls_width(self):
        soft = sigmoid(0.01, sharpness=10)
        sharp = sigmoid(0.01, sharpness=1000)
        assert sharp > soft

    def test_vectorised(self):
        values = smooth.scaled_sigmoid(np.array([-1.0, 0.0, 1.0]) * K)
        assert values.shape == (3,)
        assert np.all(np.diff(values) > 0)

    def test_no_overflow_for_large_arguments(self):
        assert sigmoid(1e9) == pytest.approx(1.0)
        assert sigmoid(-1e9) == pytest.approx(0.0)

    @given(finite_floats)
    def test_bounded(self, v):
        assert 0.0 <= sigmoid(v) <= 1.0

    @given(finite_floats, finite_floats)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert sigmoid(lo) <= sigmoid(hi) + 1e-12
