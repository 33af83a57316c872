"""Tests of the theoretical-analysis module (Theorems 1-5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    SingleBottleneck,
    bbr1_deep_buffer_equilibrium,
    bbr1_deep_buffer_max_eigenvalue,
    bbr1_shallow_buffer_eigenvalues,
    bbr1_shallow_buffer_equilibrium,
    bbr1_shallow_buffer_jacobian,
    bbr1_shallow_buffer_loss_fraction,
    bbr2_fair_equilibrium,
    bbr2_queue_reduction_vs_bbr1,
    check_bbr1_deep_buffer_stability,
    check_bbr1_numerical_stability,
    check_bbr1_shallow_buffer_stability,
    check_bbr2_numerical_stability,
    check_bbr2_stability,
    equilibrium_residual,
    flow_constants,
    integrate_reduced,
    mixed_reduced_rhs,
    numerical_jacobian,
)
from repro.analysis.stability import central_difference_jacobian

CAPACITY = 8333.0
DELAY = 0.035

flow_counts = st.integers(min_value=1, max_value=100)
delays = st.floats(min_value=0.001, max_value=0.5)


def make_net(n: int, delay: float = DELAY, buffer_pkts: float = float("inf")) -> SingleBottleneck:
    return SingleBottleneck(CAPACITY, (delay,) * n, buffer_pkts=buffer_pkts)


class TestTheorem1:
    def test_equilibrium_queue_equals_bdp(self):
        eq = bbr1_deep_buffer_equilibrium(make_net(10))
        assert eq.queue_pkts == pytest.approx(DELAY * CAPACITY)

    def test_arbitrary_splits_are_equilibria(self):
        net = make_net(3)
        eq = bbr1_deep_buffer_equilibrium(net, shares=(0.7, 0.2, 0.1))
        assert not eq.fair
        residual = equilibrium_residual(
            "bbr1", net, np.asarray(eq.rates_pps), eq.queue_pkts
        )
        assert residual < 1e-6

    def test_fair_split_is_equilibrium(self):
        net = make_net(5)
        eq = bbr1_deep_buffer_equilibrium(net)
        assert eq.fair
        assert equilibrium_residual("bbr1", net, np.asarray(eq.rates_pps), eq.queue_pkts) < 1e-6

    def test_requires_equal_delays(self):
        net = SingleBottleneck(CAPACITY, (0.02, 0.04))
        with pytest.raises(ValueError):
            bbr1_deep_buffer_equilibrium(net)

    def test_requires_large_enough_buffer(self):
        net = make_net(2, buffer_pkts=10.0)
        with pytest.raises(ValueError):
            bbr1_deep_buffer_equilibrium(net)

    def test_invalid_shares_rejected(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            bbr1_deep_buffer_equilibrium(net, shares=(0.9, 0.9))


class TestTheorem2:
    def test_stable_for_short_and_long_delays(self):
        for delay in (0.01, 0.1, 0.4, 1.0):
            assert check_bbr1_deep_buffer_stability(delay).asymptotically_stable

    def test_closed_form_matches_numpy_eigenvalues(self):
        result = check_bbr1_deep_buffer_stability(DELAY)
        assert max(ev.real for ev in result.eigenvalues) == pytest.approx(
            bbr1_deep_buffer_max_eigenvalue(DELAY), abs=1e-9
        )

    def test_numerical_jacobian_confirms_stability(self):
        assert check_bbr1_numerical_stability(make_net(5)).asymptotically_stable

    @given(delays)
    @settings(max_examples=30)
    def test_max_eigenvalue_always_negative(self, delay):
        assert bbr1_deep_buffer_max_eigenvalue(delay) < 0


class TestTheorem3:
    def test_rate_formula(self):
        eq = bbr1_shallow_buffer_equilibrium(make_net(10, buffer_pkts=50.0))
        assert eq.rates_pps[0] == pytest.approx(5.0 * CAPACITY / 41.0)
        assert eq.fair

    def test_single_flow_has_no_loss(self):
        assert bbr1_shallow_buffer_loss_fraction(1) == 0.0

    def test_loss_approaches_twenty_percent(self):
        assert bbr1_shallow_buffer_loss_fraction(10_000) == pytest.approx(0.2, abs=1e-3)

    def test_loss_matches_equilibrium_excess(self):
        n = 10
        eq = bbr1_shallow_buffer_equilibrium(make_net(n, buffer_pkts=50.0))
        assert eq.loss_fraction(CAPACITY) == pytest.approx(
            bbr1_shallow_buffer_loss_fraction(n), rel=1e-9
        )

    def test_stability_eigenvalues_negative(self):
        repeated, aggregate = bbr1_shallow_buffer_eigenvalues(10)
        assert repeated < 0
        assert aggregate == pytest.approx(-1.0)
        assert check_bbr1_shallow_buffer_stability(10).asymptotically_stable

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_eigenvalues_are_the_jacobian_spectrum(self, n):
        repeated, aggregate = bbr1_shallow_buffer_eigenvalues(n)
        assert repeated == pytest.approx(-1.0 / (4 * n + 1))
        assert aggregate == pytest.approx(-1.0)
        spectrum = np.sort(np.linalg.eigvals(bbr1_shallow_buffer_jacobian(n)).real)
        np.testing.assert_allclose(spectrum, [aggregate] + [repeated] * (n - 1), atol=1e-12)

    @given(flow_counts)
    @settings(max_examples=30)
    def test_aggregate_rate_exceeds_capacity_for_multiple_flows(self, n):
        eq = bbr1_shallow_buffer_equilibrium(make_net(n, buffer_pkts=50.0))
        if n == 1:
            assert eq.aggregate_rate_pps == pytest.approx(CAPACITY)
        else:
            assert eq.aggregate_rate_pps > CAPACITY


class TestTheorems4And5:
    def test_equilibrium_queue_formula(self):
        n = 10
        eq = bbr2_fair_equilibrium(make_net(n))
        assert eq.queue_pkts == pytest.approx((n - 1) / (4 * n + 1) * DELAY * CAPACITY)
        assert eq.fair

    def test_single_flow_has_empty_queue(self):
        eq = bbr2_fair_equilibrium(make_net(1))
        assert eq.queue_pkts == pytest.approx(0.0)

    def test_queue_reduction_at_least_75_percent(self):
        for n in (2, 5, 10, 100, 10_000):
            assert bbr2_queue_reduction_vs_bbr1(n) >= 0.75

    def test_equilibrium_satisfies_conditions(self):
        net = make_net(7)
        eq = bbr2_fair_equilibrium(net)
        assert equilibrium_residual("bbr2", net, np.asarray(eq.rates_pps), eq.queue_pkts) < 1e-6

    def test_stability_closed_form_and_numerical(self):
        assert check_bbr2_stability(10, DELAY).asymptotically_stable
        assert check_bbr2_numerical_stability(make_net(10)).asymptotically_stable

    @given(st.integers(min_value=2, max_value=50), delays)
    @settings(max_examples=30)
    def test_stable_across_parameters(self, n, delay):
        assert check_bbr2_stability(n, delay).asymptotically_stable

    def test_bbr2_queue_always_below_bbr1_queue(self):
        for n in (2, 5, 20):
            net = make_net(n)
            assert (
                bbr2_fair_equilibrium(net).queue_pkts
                < bbr1_deep_buffer_equilibrium(net).queue_pkts
            )


class TestReducedModelConvergence:
    def test_bbr1_converges_to_theorem1_queue(self):
        net = make_net(10)
        x0 = np.full(10, CAPACITY / 10) * np.linspace(0.5, 1.5, 10)
        _, states = integrate_reduced("bbr1", net, x0, queue0=0.0, duration_s=40.0)
        assert states[-1, -1] == pytest.approx(DELAY * CAPACITY, rel=0.02)

    def test_bbr2_converges_to_theorem4_queue(self):
        n = 10
        net = make_net(n)
        x0 = np.full(n, CAPACITY / n) * np.linspace(0.8, 1.2, n)
        _, states = integrate_reduced("bbr2", net, x0, queue0=0.0, duration_s=40.0)
        expected = (n - 1) / (4 * n + 1) * DELAY * CAPACITY
        assert states[-1, -1] == pytest.approx(expected, rel=0.05)

    def test_bbr2_converges_to_fair_rates(self):
        n = 5
        net = make_net(n)
        x0 = np.array([0.3, 0.8, 1.0, 1.4, 1.5]) * CAPACITY / n
        _, states = integrate_reduced("bbr2", net, x0, queue0=0.0, duration_s=200.0)
        final_rates = states[-1, :-1]
        # The slowest eigenvalue of the reduced dynamics is -1/(4N+1), so the
        # initial 5x spread shrinks to within a few percent over 200 s.
        assert np.max(final_rates) / np.min(final_rates) == pytest.approx(1.0, abs=0.05)

    def test_shallow_buffer_forces_fairness_in_bbr1(self):
        # Theorem 3: with a buffer too small for the window to bind, BBRv1
        # flows converge to the perfectly fair 5C/(4N+1) allocation.
        n = 4
        shallow = make_net(n, buffer_pkts=20.0)
        x0 = np.array([0.2, 0.6, 1.2, 2.0]) * CAPACITY / n
        _, states = integrate_reduced("bbr1", shallow, x0, queue0=0.0, duration_s=200.0)
        final = states[-1, :-1]
        assert np.allclose(final, 5 * CAPACITY / (4 * n + 1), rtol=0.05)

    def test_invalid_arguments(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            integrate_reduced("vegas", net, np.ones(2), 0.0)
        with pytest.raises(ValueError):
            integrate_reduced("bbr1", net, np.ones(3), 0.0)
        with pytest.raises(ValueError):
            integrate_reduced("bbr1", net, np.ones(2), 0.0, duration_s=-1.0)


class TestNumericalJacobian:
    def test_matches_closed_form_for_bbr2(self):
        n = 4
        net = make_net(n)
        eq = bbr2_fair_equilibrium(net)
        state = np.concatenate([np.asarray(eq.rates_pps), [eq.queue_pkts]])
        numeric = numerical_jacobian("bbr2", net, state)
        # The reduced model uses the BtlBw estimates as coordinates, so the
        # queue-derivative row is d q_dot / d x_btl_i = delta* (the paper's
        # closed form uses the clamped sending rates, where this row is 1).
        delta_star = (4.0 * n + 1.0) / (5.0 * n)
        np.testing.assert_allclose(numeric[-1, :-1], np.full(n, delta_star), atol=1e-5)
        # Stability is coordinate-independent: the numeric Jacobian must have
        # only eigenvalues with negative real part, like the closed form.
        assert np.max(np.linalg.eigvals(numeric).real) < 0


    def test_central_difference_is_exact_for_quadratics(self):
        # Central differences cancel the second-order term, so the Jacobian
        # of ``A x + x * x`` is ``A + 2 diag(x)`` up to rounding.
        a = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [4.0, 0.25, -0.5]])
        x = np.array([0.3, -1.2, 2.0])
        jacobian = central_difference_jacobian(lambda v: a @ v + v * v, x, 1e-3)
        np.testing.assert_allclose(jacobian, a + 2.0 * np.diag(x), atol=1e-10)

    def test_numerical_jacobian_default_epsilon(self):
        net = make_net(3)
        eq = bbr2_fair_equilibrium(net)
        state = np.concatenate([np.asarray(eq.rates_pps), [eq.queue_pkts]])
        epsilon = 1e-6 * float(np.max(np.abs(state)))
        expected = central_difference_jacobian(
            lambda x: mixed_reduced_rhs(0.0, x, flow_constants(net, ("bbr2",) * 3)), state, epsilon
        )
        np.testing.assert_array_equal(numerical_jacobian("bbr2", net, state), expected)


class TestEquilibriumResidual:
    def test_rejects_unknown_version(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            equilibrium_residual("vegas", net, np.full(2, CAPACITY / 2), 0.0)

    def test_off_equilibrium_residual_is_the_largest_derivative(self):
        net = make_net(3)
        eq = bbr2_fair_equilibrium(net)
        rates = 1.1 * np.asarray(eq.rates_pps)
        constants = flow_constants(net, ("bbr2",) * 3)
        derivative = mixed_reduced_rhs(0.0, np.append(rates, eq.queue_pkts), constants)
        residual = equilibrium_residual("bbr2", net, rates, eq.queue_pkts)
        assert residual > 1e-3
        assert residual == float(np.max(np.abs(derivative))) / CAPACITY


class TestSingleBottleneckValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SingleBottleneck(0.0, (0.03,))
        with pytest.raises(ValueError):
            SingleBottleneck(1000.0, ())
        with pytest.raises(ValueError):
            SingleBottleneck(1000.0, (-0.1,))
        with pytest.raises(ValueError):
            SingleBottleneck(1000.0, (0.03,), buffer_pkts=0.0)
