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
models are its homogeneous cases; given a ``(K, N + 1)`` state it
evaluates K networks with the same flow count at once.  It reads its
per-network constants from a :class:`FlowConstants`, which a caller binds
once with :func:`flow_constants` (per point, or per batch and integration
chunk) and passes along, so an evaluation is arithmetic only.  The reduced
models are used in two ways: numerically (:func:`integrate_batch`, a
batched Dormand-Prince 5(4) integrator with scipy's ``RK45`` step control,
to demonstrate convergence to the equilibria of Theorems 1-5) and
analytically (Jacobians in :mod:`repro.analysis.stability`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


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


@dataclass(frozen=True, eq=False)
class FlowConstants:
    """The constants of the reduced RHS, bound once for a network or a batch.

    ``numerator`` is the window-factor numerator ``2 d_i`` of a BBRv1 flow
    and ``d_i`` of a BBRv2 flow, so ``numerator / (d + q / C)`` is each
    flow's own ``Delta_i`` (Eq. 33) or ``delta_i`` (Eq. 36).  A flow probes
    at ``min(cap, delta) x_btl gain``: ``cap = 5/4, gain = 1`` for BBRv1
    (Eq. 34) and ``cap = 1, gain = 5/4`` for BBRv2 (Eq. 37).

    For one network ``capacity`` and ``buffer`` are floats and the flow
    arrays have shape ``(n,)``.  For a batch of K networks with the same
    flow count they are ``(K, 1)`` columns and ``(K, n)`` arrays, and
    ``constants[keep]`` is the batch of the rows where the boolean mask
    ``keep`` is true.
    """

    n: int
    capacity: float | np.ndarray
    buffer: float | np.ndarray
    delays: np.ndarray
    numerator: np.ndarray
    cap: np.ndarray
    gain: np.ndarray

    def __getitem__(self, keep: np.ndarray) -> FlowConstants:
        columns = (self.capacity, self.buffer, self.delays, self.numerator, self.cap, self.gain)
        return FlowConstants(self.n, *(column[keep] for column in columns))  # type: ignore[index]

    @cached_property
    def first(self) -> FlowConstants:
        """Row 0 of a batch as one network's constants (a batch of one's one-state form)."""
        return FlowConstants(
            self.n,
            float(self.capacity[0, 0]),  # type: ignore[index]
            float(self.buffer[0, 0]),  # type: ignore[index]
            self.delays[0],
            self.numerator[0],
            self.cap[0],
            self.gain[0],
        )


def flow_constants(
    net: SingleBottleneck | tuple[SingleBottleneck, ...],
    versions: tuple[str, ...] | tuple[tuple[str, ...], ...],
) -> FlowConstants:
    """The :class:`FlowConstants` of one network, or of a tuple of K networks.

    A batch is a tuple of networks with the same flow count and one
    ``versions`` tuple each; its stacked form is built on every call (only
    the one-network constants are cached).
    """
    if not isinstance(net, tuple):
        return _network_constants(net, versions)  # type: ignore[arg-type]
    rows = [_network_constants(one, own) for one, own in zip(net, versions, strict=True)]
    if len({row.n for row in rows}) != 1:
        raise ValueError("a batch holds networks with the same flow count")
    return FlowConstants(
        rows[0].n,
        np.array([[row.capacity] for row in rows], dtype=float),
        np.array([[row.buffer] for row in rows], dtype=float),
        np.array([row.delays for row in rows]),
        np.array([row.numerator for row in rows]),
        np.array([row.cap for row in rows]),
        np.array([row.gain for row in rows]),
    )


@lru_cache(maxsize=64)
def _network_constants(net: SingleBottleneck, versions: tuple[str, ...]) -> FlowConstants:
    """One network's constants, computed once per ``(net, versions)``; the arrays are read-only."""
    delays = np.array(net.propagation_delays_s, dtype=float)
    is_v1 = np.array([v == "bbr1" for v in versions])
    numerator = np.where(is_v1, 2.0, 1.0) * delays
    cap = np.where(is_v1, 1.25, 1.0)
    gain = np.where(is_v1, 1.0, 1.25)
    for array in (delays, numerator, cap, gain):
        array.flags.writeable = False
    return FlowConstants(net.num_flows, net.capacity_pps, net.buffer_pkts, delays, numerator, cap, gain)


def mixed_reduced_rhs(t: float | np.ndarray, state: np.ndarray, constants: FlowConstants) -> np.ndarray:
    """Reduced dynamics of a BBRv1/BBRv2 population on one queue.

    Per-flow window factors follow each flow's own version (Eq. 33 vs.
    Eq. 36-38) while all flows share the bottleneck's proportional
    delivery; a homogeneous population gives the pure BBRv1 or BBRv2
    model.  State layout: ``[x_btl_1, ..., x_btl_N, q]``; ``constants``
    are :func:`flow_constants` of the network and its flows' versions.

    Batched form: ``state`` of shape ``(K, N + 1)`` and the constants of a
    batch of K networks; row ``k`` of the result has the same bits as the
    call on row ``k`` alone.
    """
    if state.ndim == 2:
        if len(state) == 1:
            # A batch of one costs half as much through the one-state form.
            return mixed_reduced_rhs(t, state[0], constants.first)[None]
        return _batched_rhs(state, constants)
    n = constants.n
    capacity = constants.capacity
    buffer = constants.buffer
    x_btl = np.maximum(state[:n], 1e-9)
    queue = min(max(float(state[n]), 0.0), buffer)
    delta = constants.numerator / (constants.delays + queue / capacity)
    background = np.minimum(1.0, delta) * x_btl
    probe = np.minimum(constants.cap, delta) * x_btl * constants.gain
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


def _batched_rhs(state: np.ndarray, constants: FlowConstants) -> np.ndarray:
    """:func:`mixed_reduced_rhs` on K rows at once, op for op the same arithmetic."""
    n = constants.n
    capacity = constants.capacity
    buffer = constants.buffer
    x_btl = np.maximum(state[:, :n], 1e-9)
    queue = np.minimum(np.maximum(state[:, n:], 0.0), buffer)
    delta = constants.numerator / (constants.delays + queue / capacity)
    background = np.minimum(1.0, delta) * x_btl
    probe = np.minimum(constants.cap, delta) * x_btl * constants.gain
    total = np.add.reduce(background, axis=1, keepdims=True)
    busy = queue > 0
    out = np.empty(state.shape)
    out[:, :n] = np.where(busy, probe * capacity / (probe + (total - background)), probe) - x_btl
    # An empty queue does not drain and a full one does not grow.  ``dq``
    # is never -0.0, so the bounds leave the sign of a zero alone.
    floor = np.where(busy, -np.inf, 0.0)
    ceiling = np.where(queue < buffer, np.inf, 0.0)
    out[:, n:] = np.minimum(np.maximum(total - capacity, floor), ceiling)
    return out


def bbr1_reduced_rhs(t: float, state: np.ndarray, net: SingleBottleneck) -> np.ndarray:
    """Right-hand side of the reduced BBRv1 dynamics (Eq. 33-34).

    State layout: ``[x_btl_1, ..., x_btl_N, q]``.  A caller that evaluates
    it many times binds :func:`flow_constants` once and calls
    :func:`mixed_reduced_rhs` instead.
    """
    return mixed_reduced_rhs(t, state, flow_constants(net, ("bbr1",) * net.num_flows))


def bbr2_reduced_rhs(t: float, state: np.ndarray, net: SingleBottleneck) -> np.ndarray:
    """Right-hand side of the reduced BBRv2 dynamics (Eq. 36-38, same layout)."""
    return mixed_reduced_rhs(t, state, flow_constants(net, ("bbr2",) * net.num_flows))


#: Dormand-Prince 5(4) tableau, the coefficients of scipy's ``RK45``:
#: stage nodes ``C``, stage weights ``A``, fifth-order weights ``B`` and
#: the error weights ``E`` (fifth minus fourth order; the last entry
#: weighs the first-same-as-last stage).
DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])

#: scipy's RK45 step-size control: safety factor, bounds on the change of
#: the step per attempt, and ``-1 / (error estimator order + 1)``.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 5


def _rms(rows: np.ndarray) -> np.ndarray:
    """scipy's RMS norm ``np.linalg.norm(row) / sqrt(size)`` of every row, bit for bit.

    The stacked ``matmul`` makes the same ``ddot`` call per row that
    ``np.linalg.norm`` makes; a one-ulp change here moves steps.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]) / rows.shape[1] ** 0.5


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """``value ** exponent`` one scalar at a time, as scipy computes it.

    Array ``np.power`` may round differently (SIMD kernels); ``0 ** -x``
    is ``inf`` without the warning.
    """
    return np.array([v**exponent if v else math.inf for v in values])


def _min(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    """Python's ``min(a, b)`` elementwise: ``a`` unless ``b < a`` (NaN included)."""
    return np.where(b < a, b, a)


def _max(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    """Python's ``max(a, b)`` elementwise: ``a`` unless ``b > a`` (NaN included)."""
    return np.where(b > a, b, a)


def _initial_steps(
    fun: Callable[..., np.ndarray],
    y: np.ndarray,
    f: np.ndarray,
    t_bound: float,
    max_step: float,
    rtol: float,
    atol: np.ndarray,
    args: tuple,
) -> np.ndarray:
    """scipy's ``select_initial_step`` for every system (one batched RHS call; ``atol`` a column)."""
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = _min(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t_bound)
        f1 = fun(h0, y + h0[:, None] * f, *args)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            _max(1e-6, h0 * 1e-3),
            _powers(0.01 / _max(d1, d2), 1 / 5),
        )
    return _min(_min(_min(100 * h0, h1), t_bound), max_step)


def integrate_batch(
    fun: Callable[..., np.ndarray],
    y0: np.ndarray,
    t_bound: float,
    *,
    rtol: float,
    atol: Sequence[float] | np.ndarray,
    max_step: float,
    args: tuple = (),
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Integrate K independent systems from ``t = 0`` to ``t_bound`` together.

    Dormand-Prince 5(4) where every system keeps its own time, step size
    and accepted/rejected state under scipy's ``RK45`` control law (the
    ``max_step`` cap, the minimum-step test, ``SAFETY``/``MIN_FACTOR``/
    ``MAX_FACTOR`` and the RMS error norm per system), so each system
    takes the steps ``solve_ivp(method="RK45")`` would take alone, with
    the same bits; only the stage evaluations are shared.
    ``fun(t, y, *args)`` evaluates the batch: ``t`` holds one stage time
    per system and ``y`` has shape ``(K, m)``.  Every entry of ``args``
    holds one item per system and is cut with the batch as systems finish,
    as ``arg[keep]`` with a boolean mask (a numpy array, or the
    :class:`FlowConstants` of a batch), so anything ``fun`` needs is bound
    before the call and an attempt does no lookups.  ``atol`` has one
    entry per system.

    Returns one ``(times, states)`` pair per system, in input order: its
    accepted step times from 0 and the states, shape ``(len(times), m)``.
    A system whose step falls below scipy's minimum step ends there, as a
    failed ``solve_ivp`` does.
    """
    y = np.array(y0, dtype=float)
    count, size = y.shape
    atol = np.array(atol, dtype=float)[:, None]
    t = np.zeros(count)
    f = fun(t, y, *args)
    system = np.arange(count)
    min_step = 10 * np.spacing(t)
    h_abs = _clamp(_initial_steps(fun, y, f, t_bound, max_step, rtol, atol, args), min_step, max_step)
    rejected = np.zeros(count, dtype=bool)
    done = np.zeros(count, dtype=bool)
    # Every attempt's (system, accepted, t_new, y_new), sorted out at the end.
    log: list[tuple[np.ndarray, ...]] = [(system, np.ones(count, dtype=bool), t, y)]
    while True:
        # A system leaves the batch at ``t_bound`` or when its next attempt
        # falls below the minimum step (scipy's failure).
        keep = ~(done | (h_abs < min_step))
        if np.count_nonzero(keep) < count:
            t, y, f, h_abs, min_step, rejected, system, atol = (
                a[keep] for a in (t, y, f, h_abs, min_step, rejected, system, atol)
            )
            args = tuple(arg[keep] for arg in args)
            count = len(system)
        if not count:
            break
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        # Stage rows per system, ``(K, stages + 1, m)``: each system's
        # ``(stages + 1, m)`` block is laid out as scipy's ``rk_step`` lays
        # out its one system, and the stacked ``matmul`` of the transposed
        # view combines each block with the same BLAS call ``np.dot`` makes
        # there, bit for bit.  (One ``np.dot`` over a ``(stages + 1, K * m)``
        # matrix rounds the rows of a block differently depending on K.)
        hk = h[:, None]
        stage_t = t + DP_C[:, None] * h
        stage = np.empty((count, len(DP_C) + 1, size))
        columns = stage.transpose(0, 2, 1)
        stage[:, 0] = f
        for s in range(1, len(DP_C)):
            dy = np.matmul(columns[:, :, :s], DP_A[s, :s]) * hk
            stage[:, s] = fun(stage_t[s], y + dy, *args)
        y_new = y + hk * np.matmul(columns[:, :, :-1], DP_B)
        f_new = fun(t + h, y_new, *args)
        stage[:, -1] = f_new
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms(np.matmul(columns, DP_E) * hk / scale)
        accepted = error_norm < 1
        log.append((system, accepted, t_new, y_new))
        t = np.where(accepted, t_new, t)
        y = np.where(accepted[:, None], y_new, y)
        f = np.where(accepted[:, None], f_new, f)
        min_step = 10 * np.spacing(t)
        h_abs = _next_steps(h, error_norm, rejected, min_step, max_step)
        rejected = ~accepted
        done = accepted & (t >= t_bound)
    owner, kept, times, states = (np.concatenate(column) for column in zip(*log, strict=True))
    return [
        (times[rows], states[rows])
        for rows in (kept & (owner == k) for k in range(len(y0)))
    ]


def _next_steps(
    h: np.ndarray,
    error_norm: np.ndarray,
    rejected: np.ndarray,
    min_step: np.ndarray,
    max_step: float,
) -> np.ndarray:
    """scipy's ``RK45`` step-size control, one scalar at a time as scipy computes it.

    After an attempt of size ``h`` (``h >= 0``, its own absolute value) with
    error ``error_norm``, an accepted step grows by ``min(MAX_FACTOR,
    SAFETY * error_norm ** ERROR_EXPONENT)``, by at most 1 right after a
    rejection, and the next attempt is clamped to ``max_step`` and then to
    the minimum step of the new time; a rejected step shrinks by
    ``max(MIN_FACTOR, ...)``.  The loop makes no call per system, so an
    attempt's calls do not depend on the batch width.
    """
    steps = np.empty(len(h))
    for i, (step, norm, was_rejected, floor) in enumerate(
        zip(h.tolist(), error_norm.tolist(), rejected.tolist(), min_step.tolist(), strict=True)
    ):
        change = SAFETY * norm**ERROR_EXPONENT if norm else math.inf
        if norm < 1:
            limit = 1.0 if was_rejected else MAX_FACTOR
            step *= change if change < limit else limit
            steps[i] = max_step if step > max_step else floor if step < floor else step
        else:
            steps[i] = step * (change if change > MIN_FACTOR else MIN_FACTOR)
    return steps


def _clamp(h_abs: np.ndarray, min_step: np.ndarray, max_step: float) -> np.ndarray:
    """scipy's range check of a fresh step: ``max_step`` first, then ``min_step``."""
    return np.where(h_abs > max_step, max_step, np.where(h_abs < min_step, min_step, h_abs))


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
    ((time, states),) = integrate_batch(
        mixed_reduced_rhs,
        np.concatenate([x_btl0, [queue0]])[None, :],
        duration_s,
        rtol=1e-8,
        atol=[1e-8],
        max_step=max_step,
        args=(flow_constants((net,), ((version,) * net.num_flows,)),),
    )
    return time, states
