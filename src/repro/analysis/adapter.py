"""Scenario adapters: run the paper's equilibrium/stability theory at campaign scale.

The seed analysis modules (:mod:`.equilibrium`, :mod:`.reduced`,
:mod:`.stability`) speak :class:`SingleBottleneck` — a bare capacity plus
per-flow propagation delays.  This module is the bridge between that
theory surface and the campaign machinery:

* :func:`reference_network` / :func:`from_scenario` build
  :class:`SingleBottleneck` models from paper units and from full
  :class:`~repro.config.ScenarioConfig` objects (including explicit
  multi-link topologies, which are projected onto their reference
  bottleneck with exact per-flow path RTTs — the single-queue
  approximation of the paper's analysis).
* :func:`analyze_scenarios` dispatches each point to the closed forms of
  Theorems 1-5 where they apply (pure-BBR population, equal delays,
  buffer regime inside a theorem's hypotheses) and falls back to the
  reduced models numerically everywhere else: integrate to
  (quasi-)steady state, polish with a root solve, and take a
  finite-difference Jacobian at the equilibrium — including mixed
  BBRv1+BBRv2 populations via
  :func:`~repro.analysis.reduced.mixed_reduced_rhs`.  All numerical
  points of one call with the same flow count integrate together in one
  :func:`~repro.analysis.reduced.integrate_batch` loop;
  :func:`analyze_scenario` and :func:`analyze_network` are the one-point
  case, and :func:`analyze_networks` is the same batch on bare networks.
* :func:`classify_stability` turns a :class:`StabilityResult` into the
  phase-diagram label ``stable`` / ``oscillatory`` / ``unstable``.  A
  trajectory that never settles (no hyperbolic equilibrium — e.g. BBRv1
  with heterogeneous RTTs, where Theorem 1's equilibrium condition
  ``d_i = q/C`` cannot hold for every flow at once) is reported as
  ``oscillatory`` with the tail-mean state as the operating point.
* :func:`buffer_never_binds` is the certificate behind the campaign
  pruner (``--prune-analytic``): for pure-BBRv1 droptail dumbbells the
  window constraint bounds the queue by
  ``2 C sum_i d_i + (2N - 1) C d_max`` for all time, so any buffer with
  :data:`PRUNE_HEADROOM` over that supremum provably never influences
  the dynamics and the point aliases a smaller-buffer twin.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import units
from ..config import ScenarioConfig
from ..metrics.aggregate import AggregateMetrics
from .equilibrium import (
    bbr1_deep_buffer_equilibrium,
    bbr1_shallow_buffer_equilibrium,
    bbr1_shallow_buffer_loss_fraction,
    bbr2_fair_equilibrium,
)
from .reduced import SingleBottleneck, flow_constants, integrate_batch, mixed_reduced_rhs
from .stability import (
    StabilityResult,
    check_bbr1_deep_buffer_stability,
    check_bbr1_shallow_buffer_stability,
    check_bbr2_stability,
)

#: CCAs covered by the reduced models (and hence the analytic substrate).
ANALYZABLE_CCAS = ("bbr1", "bbr2")

#: Theorem 3's hypothesis is that the window never binds, i.e.
#: ``Delta_i >= 5/4`` even at a full buffer: ``2d/(d + B/C) >= 5/4`` iff
#: ``B <= (3/5) d C``.  Between this bound and Theorem 1's ``B >= d C``
#: neither closed form applies and the adapter falls back numerically.
SHALLOW_BUFFER_BOUND = 3.0 / 5.0

#: Prune certificate headroom: aggregate BBRv1 inflight is bounded by
#: Headroom factor applied on top of the provable queue supremum
#: ``2 C sum_i d_i + (2N - 1) C d_max`` in :func:`buffer_never_binds`;
#: 1.25x keeps the smooth drop-tail gate's ``(q/B)^20`` tail far below
#: metric precision at the certified threshold.
PRUNE_HEADROOM = 1.25

#: Integration chunk (model seconds) of the numerical fallback.  The
#: reduced models' assimilation gain is one, but the rate-split modes can
#: be as slow as ``tau = 4N + 1`` (Theorems 3/5), so the fallback keeps
#: integrating in chunks until the tail settles, up to
#: ``NUMERICAL_MAX_CHUNKS`` chunks.
NUMERICAL_HORIZON_S = 50.0
NUMERICAL_MAX_CHUNKS = 4

#: Tail of the trajectory treated as the (quasi-)steady state.
TAIL_FRACTION = 0.3

#: Maximum capacity-normalised tail excursion still accepted as "settled".
SETTLE_TOLERANCE = 1e-3


class UnsupportedScenarioError(ValueError):
    """The scenario has no reduced-model representation (non-BBR CCAs, churn)."""


def reference_network(
    num_flows: int,
    rtt_s: float = 0.035,
    capacity_mbps: float = 100.0,
    buffer_bdp: float = math.inf,
) -> SingleBottleneck:
    """Equal-RTT single-bottleneck builder in paper units.

    ``buffer_bdp`` is a multiple of the bottleneck BDP (``C * rtt``), as
    everywhere else in the repo; ``inf`` means non-limiting.
    """
    if num_flows < 1:
        raise ValueError("at least one flow is required")
    if rtt_s <= 0:
        raise ValueError("rtt must be positive")
    capacity_pps = units.mbps_to_pps(capacity_mbps)
    buffer_pkts = (
        math.inf if math.isinf(buffer_bdp) else buffer_bdp * capacity_pps * rtt_s
    )
    return SingleBottleneck(
        capacity_pps=capacity_pps,
        propagation_delays_s=(rtt_s,) * num_flows,
        buffer_pkts=buffer_pkts,
    )


def from_scenario(config: ScenarioConfig) -> tuple[SingleBottleneck, tuple[str, ...]]:
    """Project a :class:`ScenarioConfig` onto the analysis model.

    Returns ``(net, ccas)``: the single-bottleneck reduction (reference-link
    capacity and buffer, exact per-flow propagation RTTs — for explicit
    topologies the full path RTT, so multi-hop scenarios become the paper's
    single-queue approximation at their reference bottleneck) plus the
    per-flow CCA names.  Scenarios with a :class:`~repro.config.FlowSchedule`
    are rejected: a churning population has no steady-state reduced model.
    """
    if config.schedule is not None:
        raise UnsupportedScenarioError(
            "time-varying workloads (FlowSchedule) have no steady-state "
            "reduced model; the analytic substrate covers static populations"
        )
    net = SingleBottleneck(
        capacity_pps=config.bottleneck.capacity_pps,
        propagation_delays_s=tuple(
            config.rtt_s(i) for i in range(config.num_flows)
        ),
        buffer_pkts=config.buffer_packets(),
    )
    return net, tuple(flow.cca for flow in config.flows)


def classify_stability(
    result: StabilityResult,
    oscillation_tolerance: float = 1e-6,
    zero_tolerance: float = 1e-6,
) -> str:
    """Phase-diagram label of an indirect-Lyapunov result.

    ``unstable`` if some eigenvalue has a meaningfully positive real part,
    ``oscillatory`` if the equilibrium is attracting but approached through
    a complex pair (damped oscillation), ``stable`` for a pure node.
    Eigenvalues inside the ``zero_tolerance`` band around the imaginary
    axis are treated as *neutral* directions rather than instabilities:
    BBRv1's deep-buffer equilibria form a continuum (Theorem 1 — any rate
    split summing to the capacity), so Jacobians taken on the full state
    space necessarily carry exact zero modes along the family.
    """
    scale = max(1.0, max(abs(ev) for ev in result.eigenvalues))
    if any(ev.real > zero_tolerance * scale for ev in result.eigenvalues):
        return "unstable"
    if any(abs(ev.imag) > oscillation_tolerance * scale for ev in result.eigenvalues):
        return "oscillatory"
    return "stable"


@dataclass(frozen=True)
class AnalyticPoint:
    """Equilibrium prediction + stability classification for one scenario.

    ``rates_pps`` are the per-flow *arrival* rates at the bottleneck
    (``min(1, delta_i) x_btl_i`` — what the queue and the loss actually
    see), so they sum to at most ``C/(1 - loss_fraction)``.
    ``classification`` is ``stable`` / ``oscillatory`` / ``unstable``;
    when the reduced model never settles (no hyperbolic equilibrium) the
    label is ``oscillatory``, ``max_real_part`` is NaN and the rates and
    queue report the tail-mean operating point of the trajectory.
    """

    version: str  # "bbr1" | "bbr2" | "mixed"
    regime: str  # "deep-buffer" | "shallow-buffer" | "fair" | "reduced-model"
    method: str  # "closed-form" | "numerical"
    theorems: str  # e.g. "1+2"; "" for the numerical fallback
    capacity_pps: float
    buffer_pkts: float
    rates_pps: tuple[float, ...]
    queue_pkts: float
    loss_fraction: float
    classification: str
    max_real_part: float
    eigenvalues: tuple[complex, ...] = ()

    @property
    def aggregate_rate_pps(self) -> float:
        return float(sum(self.rates_pps))

    def metrics(self) -> AggregateMetrics:
        """The predicted sweep-store metric row (churn columns stay NaN).

        Jitter is identically zero: these are steady-state predictions.
        """
        rates = np.asarray(self.rates_pps)
        total = float(np.sum(rates))
        jain = 1.0
        if total > 0 and len(rates) > 0:
            jain = float(total**2 / (len(rates) * np.sum(rates**2)))
        delivered = min(total, self.capacity_pps)
        occupancy = 0.0
        if math.isfinite(self.buffer_pkts) and self.buffer_pkts > 0:
            occupancy = min(100.0, 100.0 * self.queue_pkts / self.buffer_pkts)
        return AggregateMetrics(
            jain_fairness=jain,
            loss_percent=100.0 * self.loss_fraction,
            buffer_occupancy_percent=occupancy,
            utilization_percent=min(100.0, 100.0 * delivered / self.capacity_pps),
            jitter_ms=0.0,
        )

    def as_meta(self) -> dict:
        """JSON-safe analysis block stored next to the metric row."""
        return {
            "version": self.version,
            "regime": self.regime,
            "method": self.method,
            "theorems": self.theorems,
            "classification": self.classification,
            "max_real_part": (
                None if math.isnan(self.max_real_part) else self.max_real_part
            ),
            "queue_pkts": self.queue_pkts,
            "loss_fraction": self.loss_fraction,
            "aggregate_rate_pps": self.aggregate_rate_pps,
            "rates_pps": [float(r) for r in self.rates_pps],
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
        }


def _arrival_rates(
    versions: tuple[str, ...], net: SingleBottleneck, x_btl: np.ndarray, queue: float
) -> np.ndarray:
    """Per-flow bottleneck arrival rates ``min(1, delta_i) x_btl_i``."""
    _, capacity, _, delays, _, numerator = flow_constants(net, versions)
    return np.minimum(1.0, numerator / (delays + queue / capacity)) * np.asarray(x_btl)


def _loss_fraction(arrival_pps: float, capacity_pps: float) -> float:
    # The relative tolerance absorbs float rounding in rate splits that sum
    # to the capacity exactly (e.g. ten rates of C/10).
    if arrival_pps <= capacity_pps * (1.0 + 1e-12):
        return 0.0
    return 1.0 - capacity_pps / arrival_pps


def _point(
    *,
    version: str,
    regime: str,
    method: str,
    theorems: str,
    net: SingleBottleneck,
    arrival: np.ndarray,
    queue: float,
    stability: StabilityResult | None,
) -> AnalyticPoint:
    total = float(np.sum(arrival))
    if stability is None:
        classification, max_real, eigenvalues = "oscillatory", math.nan, ()
    else:
        classification = classify_stability(stability)
        max_real = stability.max_real_part
        eigenvalues = stability.eigenvalues
    return AnalyticPoint(
        version=version,
        regime=regime,
        method=method,
        theorems=theorems,
        capacity_pps=net.capacity_pps,
        buffer_pkts=net.buffer_pkts,
        rates_pps=tuple(float(r) for r in arrival),
        queue_pkts=float(queue),
        loss_fraction=_loss_fraction(total, net.capacity_pps),
        classification=classification,
        max_real_part=max_real,
        eigenvalues=eigenvalues,
    )


def analyze_scenarios(configs: Sequence[ScenarioConfig]) -> list[AnalyticPoint]:
    """:func:`from_scenario` + :func:`analyze_networks` for every scenario, in order."""
    return analyze_networks([(ccas, net) for net, ccas in map(from_scenario, configs)])


def analyze_scenario(config: ScenarioConfig) -> AnalyticPoint:
    """:func:`analyze_scenarios` of one scenario."""
    (point,) = analyze_scenarios([config])
    return point


def analyze_network(ccas: tuple[str, ...], net: SingleBottleneck) -> AnalyticPoint:
    """:func:`analyze_networks` of one ``(ccas, net)`` population."""
    (point,) = analyze_networks([(ccas, net)])
    return point


def analyze_networks(
    cases: Sequence[tuple[tuple[str, ...], SingleBottleneck]],
) -> list[AnalyticPoint]:
    """Equilibrium + stability of BBR populations on single bottlenecks, in order.

    Each case is ``(ccas, net)`` with one analyzable CCA per flow.  Every
    case is validated before anything is integrated, so one bad case fails
    the call at once.  A case goes to the closed forms of Theorems 1-5
    whenever their hypotheses hold (homogeneous version, equal delays,
    buffer inside the theorem's regime) and to the numerical reduced-model
    fallback otherwise; the numerical cases integrate together (see
    :func:`_analyze_numerical`).
    """
    pairs = [(tuple(ccas), net) for ccas, net in cases]
    for ccas, net in pairs:
        _validate(ccas, net)
    closed = [_closed_form(ccas, net) for ccas, net in pairs]
    numerical = iter(
        _analyze_numerical([pair for pair, point in zip(pairs, closed, strict=True) if point is None])
    )
    return [point if point is not None else next(numerical) for point in closed]


def _validate(ccas: tuple[str, ...], net: SingleBottleneck) -> None:
    if len(ccas) != net.num_flows:
        raise ValueError(
            f"{len(ccas)} CCAs for {net.num_flows} flows; one per flow is required"
        )
    unsupported = sorted(set(ccas) - set(ANALYZABLE_CCAS))
    if unsupported:
        raise UnsupportedScenarioError(
            f"no reduced model for CCAs {unsupported}; the analytic substrate "
            f"covers populations of {ANALYZABLE_CCAS}"
        )


def _closed_form(ccas: tuple[str, ...], net: SingleBottleneck) -> AnalyticPoint | None:
    """The Theorem 1-5 answer for a validated point, or None if none applies."""
    delays = np.asarray(net.propagation_delays_s)
    equal_delays = bool(np.allclose(delays, delays[0]))
    versions = set(ccas)
    n = net.num_flows
    capacity = net.capacity_pps
    if equal_delays and versions == {"bbr1"}:
        d = float(delays[0])
        q_deep = d * capacity
        if net.buffer_pkts >= q_deep:
            equilibrium = bbr1_deep_buffer_equilibrium(net)
            # Delta_i = 1 at the Theorem 1 equilibrium: arrival == clamped rate.
            return _point(
                version="bbr1",
                regime="deep-buffer",
                method="closed-form",
                theorems="1+2",
                net=net,
                arrival=np.asarray(equilibrium.rates_pps),
                queue=equilibrium.queue_pkts,
                stability=check_bbr1_deep_buffer_stability(d),
            )
        if net.buffer_pkts <= SHALLOW_BUFFER_BOUND * q_deep:
            equilibrium = bbr1_shallow_buffer_equilibrium(net)
            # Delta_i >= 5/4 everywhere in this regime: arrival == x_btl,
            # and the excess over capacity is lost (Theorem 3).
            point = _point(
                version="bbr1",
                regime="shallow-buffer",
                method="closed-form",
                theorems="3",
                net=net,
                arrival=np.asarray(equilibrium.rates_pps),
                queue=float(net.buffer_pkts),
                stability=check_bbr1_shallow_buffer_stability(n),
            )
            # The closed-form loss is exactly (N-1)/(5N); assert-by-use.
            assert abs(
                point.loss_fraction - bbr1_shallow_buffer_loss_fraction(n)
            ) < 1e-12
            return point
        # Between (3/5) d C and d C neither Theorem 1 nor Theorem 3 applies.
    if equal_delays and versions == {"bbr2"}:
        d = float(delays[0])
        q_star = (n - 1.0) / (4.0 * n + 1.0) * d * capacity
        if net.buffer_pkts >= q_star:
            equilibrium = bbr2_fair_equilibrium(net)
            # Clamped arrival rate is delta* x_btl_i = C/N per flow.
            return _point(
                version="bbr2",
                regime="fair",
                method="closed-form",
                theorems="4+5",
                net=net,
                arrival=np.full(n, capacity / n),
                queue=equilibrium.queue_pkts,
                stability=check_bbr2_stability(n, d),
            )
    return None


def _subspace_jacobian(
    rhs: Callable[[np.ndarray], np.ndarray], state: np.ndarray, epsilon: float
) -> np.ndarray:
    size = state.size
    jacobian = np.zeros((size, size))
    for j in range(size):
        plus, minus = state.copy(), state.copy()
        plus[j] += epsilon
        minus[j] -= epsilon
        jacobian[:, j] = (rhs(plus) - rhs(minus)) / (2.0 * epsilon)
    return jacobian


def _analyze_numerical(
    cases: list[tuple[tuple[str, ...], SingleBottleneck]],
) -> list[AnalyticPoint]:
    """Numerical fallback: integrate, polish with a root solve, classify.

    Covers mixed BBRv1/BBRv2 populations, heterogeneous RTTs, and buffer
    regimes between the theorems' hypotheses.  Points with the same flow
    count integrate together, chunk by chunk: after every
    ``NUMERICAL_HORIZON_S`` chunk each point's tail is tested on its own,
    and settled points leave the batch.  When a trajectory never settles
    (e.g. heterogeneous-RTT BBRv1, whose Theorem 1 equilibrium condition
    cannot hold for all flows at once), the point is classified
    ``oscillatory`` and reports the tail-mean operating state.
    """
    tails: dict[int, tuple[np.ndarray, float]] = {}
    by_flows: dict[int, list[int]] = {}
    for i, (_, net) in enumerate(cases):
        by_flows.setdefault(net.num_flows, []).append(i)
    for n, running in by_flows.items():
        state0 = np.array(
            [np.concatenate([np.full(n, cases[i][1].capacity_pps / n), [0.0]]) for i in running]
        )
        for _ in range(NUMERICAL_MAX_CHUNKS):
            ccas = tuple(cases[i][0] for i in running)
            nets = tuple(cases[i][1] for i in running)
            runs = integrate_batch(
                mixed_reduced_rhs,
                state0,
                NUMERICAL_HORIZON_S,
                rtol=1e-6,
                atol=[1e-6 * net.capacity_pps for net in nets],
                max_step=0.05,
                args=(nets, ccas),
            )
            unsettled = []
            for i, net, (times, states) in zip(running, nets, runs, strict=True):
                tail = states[times >= (1.0 - TAIL_FRACTION) * times[-1]]
                tail_mean = tail.mean(axis=0)
                tail_mean[n] = float(np.clip(tail_mean[n], 0.0, net.buffer_pkts))
                tail_dev = float(np.max(tail.max(axis=0) - tail.min(axis=0)) / net.capacity_pps)
                tails[i] = (tail_mean, tail_dev)
                if not tail_dev < SETTLE_TOLERANCE:
                    unsettled.append((i, states[-1]))
            if not unsettled:
                break
            running = [i for i, _ in unsettled]
            state0 = np.array([state for _, state in unsettled])
    return [_polish(ccas, net, *tails[i]) for i, (ccas, net) in enumerate(cases)]


def _polish(
    ccas: tuple[str, ...], net: SingleBottleneck, tail_mean: np.ndarray, tail_dev: float
) -> AnalyticPoint:
    """The numerical point of one integrated trajectory's tail."""
    version = "mixed" if len(set(ccas)) > 1 else next(iter(set(ccas)))
    n = net.num_flows
    capacity = net.capacity_pps

    def full_rhs(state: np.ndarray) -> np.ndarray:
        return mixed_reduced_rhs(0.0, state, net, ccas)

    stability: StabilityResult | None = None
    state_eq = tail_mean
    if tail_dev < SETTLE_TOLERANCE:
        # Imported here: only a settled trajectory needs scipy.
        from scipy.optimize import root

        queue_eq = float(tail_mean[n])
        epsilon = 1e-6 * max(1.0, float(np.max(np.abs(tail_mean))))
        pinned_full = (
            math.isfinite(net.buffer_pkts)
            and queue_eq >= net.buffer_pkts * (1.0 - 1e-6)
        )
        pinned_empty = queue_eq <= epsilon
        if pinned_full or pinned_empty:
            # Boundary equilibrium: the queue is pinned (full or empty), so
            # — exactly as in the Theorem 3 proof — stability is decided on
            # the rate subsystem with the queue held at the boundary.
            q_pin = net.buffer_pkts if pinned_full else 0.0

            def rate_rhs(x_btl: np.ndarray) -> np.ndarray:
                return full_rhs(np.concatenate([x_btl, [q_pin]]))[:n]

            solved = root(rate_rhs, tail_mean[:n])
            if solved.success and (
                float(np.max(np.abs(rate_rhs(solved.x)))) < 1e-6 * capacity
            ):
                state_eq = np.concatenate([solved.x, [q_pin]])
                stability = StabilityResult.from_jacobian(
                    _subspace_jacobian(rate_rhs, solved.x, epsilon)
                )
        else:
            solved = root(full_rhs, tail_mean)
            if solved.success and (
                float(np.max(np.abs(full_rhs(solved.x)))) < 1e-6 * capacity
            ):
                state_eq = np.asarray(solved.x)
                stability = StabilityResult.from_jacobian(
                    _subspace_jacobian(full_rhs, state_eq, epsilon)
                )
    queue = float(np.clip(state_eq[n], 0.0, net.buffer_pkts))
    arrival = _arrival_rates(ccas, net, np.maximum(state_eq[:n], 0.0), queue)
    return _point(
        version=version,
        regime="reduced-model",
        method="numerical",
        theorems="",
        net=net,
        arrival=arrival,
        queue=queue,
        stability=stability,
    )


def buffer_never_binds(config: ScenarioConfig) -> bool:
    """Certificate that the buffer size cannot influence the dynamics.

    True only for schedule-free, pure-BBRv1, droptail dumbbells whose
    buffer clears the provable queue supremum.  Each BBRv1 flow's
    congestion window is ``2 * BtlBw_i * RTprop_i`` with ``BtlBw_i <= C``
    (the max filter tracks the delivery rate, which a single bottleneck
    caps at ``C``) and ``RTprop_i <= d_i`` (the min filter is seeded at
    the propagation RTT), so the aggregate sending rate is at most
    ``sum_i cwnd_i / tau_i``.  Whenever the queue has exceeded
    ``2 C sum_i d_i`` over a full ``d_max`` window, every delayed arrival
    term is below its fair share and the queue drains; within one such
    window the queue can climb by at most ``(2N - 1) C d_max``.  Hence

        ``q(t) <= 2 C sum_i d_i + (2N - 1) C d_max``

    for all time, and any buffer at least :data:`PRUNE_HEADROOM` times
    that bound is provably never reached: the trajectory is identical for
    every larger buffer (up to the smooth drop-tail gate's ``(q/B)^20``
    tail, < 1e-10 at the certified threshold) and only the occupancy
    normalisation changes.  Everything outside the certificate (RED, any
    other CCA, churn, multi-link topologies, ``literal_xmax`` numerics —
    whose BtlBw filter tracks the *sending* rate and is not bounded by
    ``C``) conservatively returns False.
    """
    if config.schedule is not None:
        return False
    if any(flow.cca != "bbr1" for flow in config.flows):
        return False
    if config.fluid.literal_xmax:
        return False
    if config.topology is not None and len(config.topology.links) > 1:
        return False
    topology = config.effective_topology()
    if any(link.discipline != "droptail" for link in topology.links):
        return False
    buffer_pkts = config.buffer_packets()
    if math.isinf(buffer_pkts):
        return True
    rtts = [config.rtt_s(i) for i in range(config.num_flows)]
    capacity = config.bottleneck.capacity_pps
    queue_sup = capacity * (2.0 * sum(rtts) + (2 * len(rtts) - 1) * max(rtts))
    return buffer_pkts >= PRUNE_HEADROOM * queue_sup
