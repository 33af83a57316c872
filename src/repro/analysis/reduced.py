"""Reduced fluid models used for the theoretical analysis (Sections 5.1.1, 5.2.1).

For stability analysis the paper condenses the full fluid models into small
autonomous ODE systems:

* **BBRv1** (Eq. 33-34): the ProbeRTT state is dropped (``tau_min = d_i``),
  the maximum delivery-rate measurement is replaced by its closed form, and
  the periodic BtlBw adoption becomes a continuous assimilation
  ``d x_btl/dt = x_max - x_btl``.  The congestion-window constraint enters
  through ``Delta_i = 2 d_i / (d_i + sum_l q_l / C_l)``.
* **BBRv2** (Eq. 36-38): probing pulses at ``5/4`` of the estimate, cruising
  background traffic at the estimate, with the inflight-derived constraint
  ``delta_i = d_i / (d_i + sum_l q_l / C_l)`` (note ``delta_i = Delta_i / 2``).

One right-hand side, :func:`mixed_reduced_rhs`, implements both: each flow
follows its own version's window factor on the shared queue, and the pure
models are its homogeneous cases.  The reduced models are used in two
ways: numerically (integration with scipy to demonstrate convergence to
the equilibria of Theorems 1-5) and analytically (Jacobians in
:mod:`repro.analysis.stability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp


@dataclass(frozen=True)
class SingleBottleneck:
    """A single-bottleneck network for the reduced models.

    Attributes:
        capacity_pps: bottleneck capacity ``C``.
        propagation_delays_s: per-flow propagation RTT ``d_i`` (the analysis
            theorems assume a queue only at the bottleneck, in which case the
            equilibria require equal delays; heterogeneous values are allowed
            for numerical exploration).
        buffer_pkts: bottleneck buffer size (``inf`` = non-limiting).
    """

    capacity_pps: float
    propagation_delays_s: tuple[float, ...]
    buffer_pkts: float = float("inf")

    def __post_init__(self) -> None:
        if self.capacity_pps <= 0:
            raise ValueError("capacity must be positive")
        if not self.propagation_delays_s:
            raise ValueError("at least one flow is required")
        if any(d <= 0 for d in self.propagation_delays_s):
            raise ValueError("propagation delays must be positive")
        if self.buffer_pkts <= 0:
            raise ValueError("buffer must be positive")

    @property
    def num_flows(self) -> int:
        return len(self.propagation_delays_s)


def bbr1_delta(delays: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """BBRv1 congestion-window factor ``Delta_i = 2 d_i / (d_i + q / C)`` (Eq. 33)."""
    return 2.0 * delays / (delays + queue / capacity)


def bbr2_delta(delays: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """BBRv2 inflight factor ``delta_i = d_i / (d_i + q / C)`` (Eq. 36)."""
    return delays / (delays + queue / capacity)


def bbr1_xmax(x_btl: np.ndarray, delta: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """Maximum delivery-rate measurement of BBRv1 (Eq. 33)."""
    probe = np.minimum(1.25, delta) * x_btl
    background = np.minimum(1.0, delta) * x_btl
    if queue > 0:
        total_others = np.sum(background) - background
        return probe * capacity / (probe + total_others)
    return probe


def bbr2_xmax(x_btl: np.ndarray, delta: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """Maximum delivery-rate measurement of BBRv2 (Eq. 38)."""
    probe = 1.25 * np.minimum(1.0, delta) * x_btl
    background = np.minimum(1.0, delta) * x_btl
    if queue > 0:
        total_others = np.sum(background) - background
        return probe * capacity / (probe + total_others)
    return probe


@lru_cache(maxsize=64)
def flow_constants(
    net: SingleBottleneck, versions: tuple[str, ...]
) -> tuple[int, float, float, np.ndarray, np.ndarray, np.ndarray]:
    """Per-network constants of the reduced RHS, computed once per ``(net, versions)``.

    Returns ``(n, C, B, d, is_v1, numerator)`` where ``numerator`` is the
    window-factor numerator ``2 d_i`` for BBRv1 flows and ``d_i`` for
    BBRv2 flows, so ``numerator / (d + q / C)`` is each flow's own
    ``Delta_i`` (Eq. 33) or ``delta_i`` (Eq. 36).  The arrays are shared
    between calls, so they are read-only.
    """
    delays = np.array(net.propagation_delays_s, dtype=float)
    is_v1 = np.array([v == "bbr1" for v in versions])
    numerator = np.where(is_v1, 2.0, 1.0) * delays
    for array in (delays, is_v1, numerator):
        array.flags.writeable = False
    return net.num_flows, net.capacity_pps, net.buffer_pkts, delays, is_v1, numerator


def mixed_reduced_rhs(
    t: float, state: np.ndarray, net: SingleBottleneck, versions: tuple[str, ...]
) -> np.ndarray:
    """Reduced dynamics of a BBRv1/BBRv2 population on one queue.

    Per-flow window factors follow each flow's own version (Eq. 33 vs.
    Eq. 36-38) while all flows share the bottleneck's proportional
    delivery; a homogeneous ``versions`` tuple gives the pure BBRv1 or
    BBRv2 model.  State layout: ``[x_btl_1, ..., x_btl_N, q]``.
    """
    n, capacity, buffer, delays, is_v1, numerator = flow_constants(net, versions)
    x_btl = np.maximum(state[:n], 1e-9)
    queue = min(max(float(state[n]), 0.0), buffer)
    delta = numerator / (delays + queue / capacity)
    background = np.minimum(1.0, delta) * x_btl
    probe = np.where(is_v1, np.minimum(1.25, delta) * x_btl, 1.25 * background)
    total = float(np.add.reduce(background))
    out = np.empty(n + 1)
    if queue > 0:
        np.subtract(probe * capacity / (probe + (total - background)), x_btl, out=out[:n])
    else:
        np.subtract(probe, x_btl, out=out[:n])
    dq = total - capacity
    if queue <= 0 and dq < 0:
        dq = 0.0
    if queue >= buffer and dq > 0:
        dq = 0.0
    out[n] = dq
    return out


def bbr1_reduced_rhs(t: float, state: np.ndarray, net: SingleBottleneck) -> np.ndarray:
    """Right-hand side of the reduced BBRv1 dynamics (Eq. 33-34).

    State layout: ``[x_btl_1, ..., x_btl_N, q]``.
    """
    return mixed_reduced_rhs(t, state, net, ("bbr1",) * net.num_flows)


def bbr2_reduced_rhs(t: float, state: np.ndarray, net: SingleBottleneck) -> np.ndarray:
    """Right-hand side of the reduced BBRv2 dynamics (Eq. 36-38, same layout)."""
    return mixed_reduced_rhs(t, state, net, ("bbr2",) * net.num_flows)


def integrate_reduced(
    version: str,
    net: SingleBottleneck,
    x_btl0: np.ndarray,
    queue0: float,
    duration_s: float = 60.0,
    max_step: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a reduced model and return ``(time, states)``.

    ``states`` has shape ``(len(time), N + 1)`` with the queue as last column.
    """
    if version not in ("bbr1", "bbr2"):
        raise ValueError("version must be 'bbr1' or 'bbr2'")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    x_btl0 = np.asarray(x_btl0, dtype=float)
    if x_btl0.shape != (net.num_flows,):
        raise ValueError("x_btl0 must have one entry per flow")
    rhs = bbr1_reduced_rhs if version == "bbr1" else bbr2_reduced_rhs
    solution = solve_ivp(
        rhs,
        (0.0, duration_s),
        np.concatenate([x_btl0, [queue0]]),
        args=(net,),
        max_step=max_step,
        dense_output=False,
        rtol=1e-8,
        atol=1e-8,
    )
    return solution.t, solution.y.T
