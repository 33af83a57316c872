"""Stability analysis via the indirect Lyapunov method (Theorems 2, 3, 5).

A hyperbolic equilibrium of a nonlinear dynamic system is locally
asymptotically stable iff every eigenvalue of the Jacobian of the dynamics,
evaluated at the equilibrium, has a negative real part.  This module
provides both the paper's closed-form Jacobians (Appendix D) and numerical
Jacobians of the reduced models, so the analytical results can be
cross-checked against finite differences.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .equilibrium import bbr1_deep_buffer_equilibrium, bbr2_fair_equilibrium
from .reduced import SingleBottleneck, bbr1_reduced_rhs, bbr2_reduced_rhs


@dataclass(frozen=True)
class StabilityResult:
    """Outcome of an indirect-Lyapunov stability check."""

    eigenvalues: tuple[complex, ...]
    asymptotically_stable: bool
    max_real_part: float

    @classmethod
    def from_jacobian(cls, jacobian: np.ndarray, tolerance: float = 1e-9) -> StabilityResult:
        eigenvalues = np.linalg.eigvals(jacobian)
        max_real = float(np.max(eigenvalues.real))
        return cls(
            eigenvalues=tuple(complex(v) for v in eigenvalues),
            asymptotically_stable=bool(max_real < -tolerance),
            max_real_part=max_real,
        )


# --------------------------------------------------------------------------- #
# Closed-form Jacobians from the paper's proofs
# --------------------------------------------------------------------------- #


def bbr1_deep_buffer_jacobian(propagation_delay_s: float) -> np.ndarray:
    """Jacobian of the aggregate BBRv1 dynamics at the Theorem 1 equilibrium.

    The proof of Theorem 2 (Appendix D.2) reduces the deep-buffer dynamics to
    the two aggregate state variables ``(y, q)`` (arrival rate and queue) and
    obtains, at the equilibrium ``y = C``, ``q = d C``::

        J = [[-1/(2d) - 1,  -1/(2d)],
             [      1     ,     0  ]]
    """
    d = propagation_delay_s
    if d <= 0:
        raise ValueError("propagation delay must be positive")
    return np.array([[-1.0 / (2.0 * d) - 1.0, -1.0 / (2.0 * d)], [1.0, 0.0]])


def bbr1_deep_buffer_max_eigenvalue(propagation_delay_s: float) -> float:
    """Closed-form maximum eigenvalue from the proof of Theorem 2 (Eq. 49)."""
    d = propagation_delay_s
    if d <= 0:
        raise ValueError("propagation delay must be positive")
    if d <= 0.5:
        return -1.0
    return -1.0 / (2.0 * d)


def bbr1_shallow_buffer_jacobian(num_flows: int) -> np.ndarray:
    """Jacobian of the shallow-buffer BBRv1 dynamics at the Theorem 3 equilibrium.

    Diagonal entries ``-5/(4N+1)`` and off-diagonal entries ``-4/(4N+1)``
    (Appendix D.3).
    """
    if num_flows < 1:
        raise ValueError("at least one flow is required")
    n = num_flows
    diag = -5.0 / (4.0 * n + 1.0)
    off = -4.0 / (4.0 * n + 1.0)
    jacobian = np.full((n, n), off)
    np.fill_diagonal(jacobian, diag)
    return jacobian


def bbr1_shallow_buffer_eigenvalues(num_flows: int) -> tuple[float, float]:
    """The two distinct eigenvalues of the Theorem 3 Jacobian.

    ``J_ii - J_ij = -1/(4N+1)`` with multiplicity N-1, and
    ``J_ii + (N-1) J_ij = -(5 + 4(N-1))/(4N+1) = -1``.  Both are negative
    for every N.
    """
    n = num_flows
    if n < 1:
        raise ValueError("at least one flow is required")
    repeated = -5.0 / (4.0 * n + 1.0) + 4.0 / (4.0 * n + 1.0)
    aggregate = -5.0 / (4.0 * n + 1.0) - (n - 1.0) * 4.0 / (4.0 * n + 1.0)
    return repeated, aggregate


def bbr2_jacobian(num_flows: int, propagation_delay_s: float) -> np.ndarray:
    """Jacobian of the reduced BBRv2 dynamics at the Theorem 4 equilibrium.

    Entries follow Appendix D.5 (Eq. 65-67): states are the N clamped sending
    rates followed by the bottleneck queue.
    """
    if num_flows < 1:
        raise ValueError("at least one flow is required")
    d = propagation_delay_s
    if d <= 0:
        raise ValueError("propagation delay must be positive")
    n = num_flows
    j_ii = -(4.0 * n + 1.0) / (5.0 * n**2 * d) - 5.0 / (4.0 * n + 1.0)
    j_ij = -(4.0 * n + 1.0) / (5.0 * n**2 * d) - 4.0 / (4.0 * n + 1.0)
    j_iq = -(4.0 * n + 1.0) / (5.0 * n**2 * d)
    jacobian = np.zeros((n + 1, n + 1))
    jacobian[:n, :n] = j_ij
    np.fill_diagonal(jacobian[:n, :n], j_ii)
    jacobian[:n, n] = j_iq
    jacobian[n, :n] = 1.0
    jacobian[n, n] = 0.0
    return jacobian


# --------------------------------------------------------------------------- #
# Numerical Jacobians of the reduced models
# --------------------------------------------------------------------------- #


def central_difference_jacobian(
    fun: Callable[[np.ndarray], np.ndarray], state: np.ndarray, epsilon: float
) -> np.ndarray:
    """Jacobian of ``fun`` at ``state``: column j is ``(f(x+εe_j) - f(x-εe_j)) / 2ε``."""
    state = np.asarray(state, dtype=float)
    size = state.size
    jacobian = np.zeros((size, size))
    for j in range(size):
        plus, minus = state.copy(), state.copy()
        plus[j] += epsilon
        minus[j] -= epsilon
        jacobian[:, j] = (fun(plus) - fun(minus)) / (2.0 * epsilon)
    return jacobian


def numerical_jacobian(
    version: str,
    net: SingleBottleneck,
    state: np.ndarray,
    epsilon: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of a reduced model at a given state."""
    rhs = bbr1_reduced_rhs if version == "bbr1" else bbr2_reduced_rhs
    state = np.asarray(state, dtype=float)
    if epsilon is None:
        epsilon = 1e-6 * max(1.0, float(np.max(np.abs(state))))
    return central_difference_jacobian(lambda x: rhs(0.0, x, net), state, epsilon)


def check_bbr1_deep_buffer_stability(propagation_delay_s: float) -> StabilityResult:
    """Theorem 2: the BBRv1 deep-buffer equilibrium is asymptotically stable."""
    return StabilityResult.from_jacobian(bbr1_deep_buffer_jacobian(propagation_delay_s))


def check_bbr1_shallow_buffer_stability(num_flows: int) -> StabilityResult:
    """Theorem 3 (stability part): the shallow-buffer equilibrium is stable."""
    return StabilityResult.from_jacobian(bbr1_shallow_buffer_jacobian(num_flows))


def check_bbr2_stability(num_flows: int, propagation_delay_s: float) -> StabilityResult:
    """Theorem 5: the fair BBRv2 equilibrium is asymptotically stable."""
    return StabilityResult.from_jacobian(bbr2_jacobian(num_flows, propagation_delay_s))


def bbr1_aggregate_rhs(state: np.ndarray, propagation_delay_s: float, capacity_pps: float) -> np.ndarray:
    """Aggregate deep-buffer BBRv1 dynamics of the Theorem 2 proof (Eq. 45-46).

    State is ``(y, q)``: the aggregate arrival rate at the bottleneck and the
    bottleneck queue.  Time is measured in units where the assimilation gain
    of Eq. (34) is one, exactly as in the proof.
    """
    y, q = float(state[0]), float(state[1])
    d = propagation_delay_s
    c = capacity_pps
    if d <= 0 or c <= 0:
        raise ValueError("delay and capacity must be positive")
    tau = d + q / c
    delta = 2.0 * d / tau
    dy = -(y**2) / (c * tau) + (1.0 / tau - 1.0) * y + delta * c
    dq = y - c
    return np.array([dy, dq])


def check_bbr1_numerical_stability(net: SingleBottleneck) -> StabilityResult:
    """Numerical cross-check of Theorem 2 on the aggregate (y, q) dynamics.

    The deep-buffer equilibria of Theorem 1 form a continuum (any rate split
    summing to the capacity), so the per-flow Jacobian necessarily has zero
    eigenvalues along the family.  Theorem 2 therefore argues stability of
    the *aggregate* arrival-rate/queue dynamics; this helper evaluates their
    finite-difference Jacobian at ``(C, d C)`` and checks its eigenvalues.
    """
    delays = np.asarray(net.propagation_delays_s)
    if not np.allclose(delays, delays[0]):
        raise ValueError("the aggregate check requires equal propagation delays")
    d = float(delays[0])
    c = net.capacity_pps
    # The normalised proof dynamics are independent of the absolute capacity,
    # so evaluate them in units of the capacity for good conditioning.
    def rhs(state: np.ndarray) -> np.ndarray:
        return bbr1_aggregate_rhs(np.array([state[0] * c, state[1] * c]), d, c) / c

    jacobian = central_difference_jacobian(rhs, np.array([1.0, d]), 1e-7)
    return StabilityResult.from_jacobian(jacobian)


def check_bbr2_numerical_stability(net: SingleBottleneck) -> StabilityResult:
    """Numerical cross-check of Theorem 5 on the reduced BBRv2 model."""
    equilibrium = bbr2_fair_equilibrium(net)
    state = np.concatenate([np.asarray(equilibrium.rates_pps), [equilibrium.queue_pkts]])
    return StabilityResult.from_jacobian(numerical_jacobian("bbr2", net, state))
