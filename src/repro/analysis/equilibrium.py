"""Closed-form equilibria of the reduced BBR models (Theorems 1, 3, 4).

* **Theorem 1** (BBRv1, deep buffer): the senders are in equilibrium iff the
  queuing delay equals the propagation delay for every sender,
  ``d_i = sum_l q_l / C_l``.  With a queue only at the bottleneck this means
  ``q* = d * C`` and the rate split across senders is *arbitrary* (as long
  as it sums to ``C``) — BBRv1's deep-buffer equilibria can be arbitrarily
  unfair.
* **Theorem 3** (BBRv1, shallow buffer, ``Delta_i >= 5/4``): the unique
  equilibrium is perfectly fair with ``x_btl_i = 5 C / (4 N + 1)``, so the
  aggregate rate exceeds the capacity by ``(N - 1) / (4 N + 1)`` and the
  excess is lost (up to 20 % for large N).
* **Theorem 4** (BBRv2): a perfectly fair equilibrium exists where
  ``(N - 1) / (4 N + 1) * d_i = sum_l q_l / C_l``; at the bottleneck this is
  ``q* = (N - 1) / (4 N + 1) * d * C`` — at least 75 % less queuing than
  BBRv1's deep-buffer equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reduced import SingleBottleneck, flow_constants, mixed_reduced_rhs


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium point of a reduced model."""

    version: str
    rates_pps: tuple[float, ...]
    queue_pkts: float
    fair: bool
    description: str

    @property
    def aggregate_rate_pps(self) -> float:
        return float(sum(self.rates_pps))

    def loss_fraction(self, capacity_pps: float) -> float:
        """Steady-state loss fraction implied by the equilibrium rates."""
        if self.aggregate_rate_pps <= capacity_pps:
            return 0.0
        return 1.0 - capacity_pps / self.aggregate_rate_pps


def bbr1_deep_buffer_equilibrium(
    net: SingleBottleneck, shares: tuple[float, ...] | None = None
) -> Equilibrium:
    """Theorem 1: a BBRv1 equilibrium with a non-limiting bottleneck buffer.

    ``shares`` chooses one member of the equilibrium family (it only has to
    sum to one); the default is the fair split.  The queue settles where the
    queuing delay equals the (common) propagation delay.
    """
    delays = np.asarray(net.propagation_delays_s)
    if not np.allclose(delays, delays[0]):
        raise ValueError(
            "Theorem 1 equilibria with a queue only at the bottleneck require "
            "equal propagation delays"
        )
    n = net.num_flows
    if shares is None:
        shares = tuple(1.0 / n for _ in range(n))
    if len(shares) != n:
        raise ValueError("one share per flow is required")
    if abs(sum(shares) - 1.0) > 1e-9 or any(s < 0 for s in shares):
        raise ValueError("shares must be non-negative and sum to one")
    queue = float(delays[0] * net.capacity_pps)
    if queue > net.buffer_pkts:
        raise ValueError(
            "buffer too small for the Theorem 1 equilibrium; use the shallow-"
            "buffer equilibrium of Theorem 3 instead"
        )
    # At the equilibrium Delta_i = 1, so the window-clamped rates equal the
    # BtlBw estimates themselves and they must sum to the capacity.
    rates = tuple(s * net.capacity_pps for s in shares)
    return Equilibrium(
        version="bbr1",
        rates_pps=rates,
        queue_pkts=queue,
        fair=bool(np.allclose(shares, shares[0])),
        description="Theorem 1: q* = d C, Delta_i = 1, arbitrary rate split",
    )


def bbr1_shallow_buffer_equilibrium(net: SingleBottleneck) -> Equilibrium:
    """Theorem 3: the unique (fair) BBRv1 equilibrium when the window never binds."""
    n = net.num_flows
    rate = 5.0 * net.capacity_pps / (4.0 * n + 1.0)
    return Equilibrium(
        version="bbr1",
        rates_pps=tuple(rate for _ in range(n)),
        queue_pkts=float(net.buffer_pkts) if np.isfinite(net.buffer_pkts) else 0.0,
        fair=True,
        description="Theorem 3: x_btl_i = 5C/(4N+1), buffer full, loss = (N-1)/(4N+1)",
    )


def bbr1_shallow_buffer_loss_fraction(num_flows: int) -> float:
    """Steady-state loss fraction of Theorem 3.

    The aggregate equilibrium rate is ``5 N C / (4 N + 1)``, so the fraction
    of traffic lost is ``(N - 1) / (5 N)`` — approaching 20 % for large N,
    exactly the "20 % for N -> inf" the paper reports.
    """
    if num_flows < 1:
        raise ValueError("at least one flow is required")
    return (num_flows - 1.0) / (5.0 * num_flows)


def bbr2_fair_equilibrium(net: SingleBottleneck) -> Equilibrium:
    """Theorem 4: the perfectly fair BBRv2 equilibrium.

    At the bottleneck-only-queue scenario the equilibrium queue is
    ``q* = (N - 1) / (4 N + 1) * d * C`` and every flow's (window-clamped)
    rate is ``C / N``.
    """
    delays = np.asarray(net.propagation_delays_s)
    if not np.allclose(delays, delays[0]):
        raise ValueError(
            "the Theorem 4 equilibrium with a queue only at the bottleneck "
            "requires equal propagation delays"
        )
    n = net.num_flows
    queue = (n - 1.0) / (4.0 * n + 1.0) * float(delays[0]) * net.capacity_pps
    if queue > net.buffer_pkts:
        raise ValueError("buffer too small for the Theorem 4 equilibrium")
    # delta* = (4N+1)/(5N); x_btl_i = C/N / delta* ; clamped rate = C/N.
    delta_star = (4.0 * n + 1.0) / (5.0 * n)
    rates = tuple(net.capacity_pps / n / delta_star for _ in range(n))
    return Equilibrium(
        version="bbr2",
        rates_pps=rates,
        queue_pkts=queue,
        fair=True,
        description="Theorem 4: q* = (N-1)/(4N+1) d C, x_btl_i = C/(N delta*)",
    )


def bbr2_queue_reduction_vs_bbr1(num_flows: int) -> float:
    """Relative queue reduction of BBRv2 vs. BBRv1 at equilibrium (Sec. 5.2.2).

    ``1 - (N-1)/(4N+1)`` — at least 75 % for ``N -> inf``.
    """
    if num_flows < 1:
        raise ValueError("at least one flow is required")
    return 1.0 - (num_flows - 1.0) / (4.0 * num_flows + 1.0)


def equilibrium_residual(version: str, net: SingleBottleneck, rates: np.ndarray, queue: float) -> float:
    """Norm of the equilibrium conditions (Definition 1) at a candidate point.

    The largest component of the reduced dynamics
    (:func:`~repro.analysis.reduced.mixed_reduced_rhs`, Eq. 33-34 for
    BBRv1, Eq. 36-38 for BBRv2) at ``[rates, queue]``, relative to the
    capacity: ``dq = 0`` is the aggregate-rate condition
    ``sum min(1, Delta_i) x_btl_i = C`` and ``dx_btl_i = 0`` the
    fixed-point condition ``x_btl_i = x_max_i``.  Zero (up to numerics)
    means the point is an equilibrium.
    """
    if version not in ("bbr1", "bbr2"):
        raise ValueError("version must be 'bbr1' or 'bbr2'")
    state = np.append(np.asarray(rates, dtype=float), queue)
    derivative = mixed_reduced_rhs(0.0, state, flow_constants(net, (version,) * net.num_flows))
    return float(np.max(np.abs(derivative))) / net.capacity_pps
