"""Regeneration of every figure and analysis result of the paper.

Each function reproduces the data behind figures of the paper and returns
it as plain Python structures (dictionaries of series).  The benchmark
harness in ``benchmarks/`` calls these functions, prints the resulting
rows and asserts the published shapes.

Figure index (figure numbers as in the paper, see PAPER.md):

* Fig. 1 — Reno vs. BBRv1 sending-rate competition (:func:`figure_1`).
* Fig. 2 — interplay of the BBRv1/BBRv2 fluid-model variables
  (:func:`figure_2`).
* Fig. 4 / 5 / 11 / 12 — single-flow trace validation of BBRv1 / BBRv2 /
  Reno / CUBIC under drop-tail and RED, fluid model vs. packet emulator
  (:func:`trace_validation_figure` of ``"bbr1"``/``"bbr2"``/``"reno"``/
  ``"cubic"``).
* Fig. 6-10 — aggregate validation: Jain fairness, loss, buffer occupancy,
  utilization, jitter as functions of the buffer size for seven CCA mixes
  (:func:`aggregate_figure` of one :data:`AGGREGATE_FIGURES` metric).
* Fig. 13-17 — the same five metrics for the short-RTT setting (Appendix C):
  :func:`aggregate_figure` of a ``short_rtt=True`` grid.
* Theorems 1-5 — equilibria and stability of the reduced models
  (:func:`theorem_table`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import replace
from typing import Any

import numpy as np

from ..analysis import (
    analyze_networks,
    bbr2_queue_reduction_vs_bbr1,
    integrate_reduced,
    reference_network,
)
from ..core.simulator import simulate, simulate_many
from ..emulation.runner import emulate
from ..metrics.aggregate import aggregate_metrics
from . import scenarios, sweep
from .executor import ExecutorPolicy
from .grid import GridSpec
from .store import SweepStore

#: Metrics of the aggregate figures, in paper order.
AGGREGATE_FIGURES: dict[str, str] = {
    "fig06_fairness": "jain_fairness",
    "fig07_loss": "loss_percent",
    "fig08_queuing": "buffer_occupancy_percent",
    "fig09_utilization": "utilization_percent",
    "fig10_jitter": "jitter_ms",
}


def _percent(rate: np.ndarray, capacity: float) -> np.ndarray:
    return 100.0 * rate / capacity


# --------------------------------------------------------------------------- #
# Trace figures
# --------------------------------------------------------------------------- #


def figure_1(
    duration_s: float = 10.0,
    substrates: Iterable[str] = ("fluid", "emulation"),
    dt: float = 1e-4,
) -> dict[str, Any]:
    """Fig. 1: sending rates of one Reno flow competing with one BBRv1 flow."""
    config = scenarios.competition_scenario(duration_s=duration_s, dt=dt)
    result: dict[str, Any] = {"config": config}
    for substrate in substrates:
        trace = simulate(config) if substrate == "fluid" else emulate(config)
        capacity = trace.bottleneck().capacity_pps
        result[substrate] = {
            "time": trace.time,
            "reno_pct": _percent(trace.flows[0].rate, capacity),
            "bbr1_pct": _percent(trace.flows[1].rate, capacity),
            "mean_reno_pct": float(np.mean(_percent(trace.flows[0].rate, capacity))),
            "mean_bbr1_pct": float(np.mean(_percent(trace.flows[1].rate, capacity))),
        }
    return result


def figure_2(duration_s: float = 1.0, dt: float = 1e-4) -> dict[str, Any]:
    """Fig. 2: the interplay of the BBR fluid-model variables for a single flow."""
    ccas = ("bbr1", "bbr2")
    traces = simulate_many(
        [
            scenarios.trace_validation_scenario(cca, duration_s=duration_s, dt=dt)
            for cca in ccas
        ]
    )
    result: dict[str, Any] = {}
    for cca, trace in zip(ccas, traces, strict=True):
        capacity = trace.bottleneck().capacity_pps
        flow = trace.flows[0]
        entry = {
            "time": trace.time,
            "rate_pct": _percent(flow.rate, capacity),
            "delivery_pct": _percent(flow.delivery_rate, capacity),
            "x_btl_pct": _percent(flow.extras["x_btl"], capacity),
            "x_max_pct": _percent(flow.extras["x_max"], capacity),
            "cwnd_pkts": flow.cwnd,
            "inflight_pkts": flow.inflight,
        }
        if cca == "bbr2":
            entry["w_hi_pkts"] = flow.extras["w_hi"]
            entry["w_lo_pkts"] = flow.extras["w_lo"]
        result[cca] = entry
    return result


def trace_validation_figure(
    cca: str,
    duration_s: float = 30.0,
    substrates: Iterable[str] = ("fluid", "emulation"),
    disciplines: Iterable[str] = scenarios.DISCIPLINES,
    dt: float = 1e-4,
) -> dict[str, Any]:
    """Figs. 4, 5, 11, 12: normalised single-flow traces, model vs. emulation.

    Returns, per discipline and substrate, the paper's four normalised
    series (rate, queue, loss, relative excess RTT) plus summary means.
    """
    substrates = tuple(substrates)
    configs = {
        discipline: scenarios.trace_validation_scenario(
            cca, discipline=discipline, duration_s=duration_s, dt=dt
        )
        for discipline in disciplines
    }
    # Every discipline's fluid scenario integrates in one lockstep batch.
    fluid = (
        dict(zip(configs, simulate_many(list(configs.values())), strict=True))
        if "fluid" in substrates
        else {}
    )
    result: dict[str, Any] = {"cca": cca}
    for discipline, config in configs.items():
        per_substrate: dict[str, Any] = {}
        for substrate in substrates:
            trace = fluid[discipline] if substrate == "fluid" else emulate(config)
            rows = trace.normalized_rows()
            summary = aggregate_metrics(trace)
            per_substrate[substrate] = {
                "rows": rows,
                "mean_rate_pct": float(np.mean(rows["rate_pct"])),
                "mean_queue_pct": float(np.mean(rows["queue_pct"])),
                "loss_pct": summary.loss_percent,
                "utilization_pct": summary.utilization_percent,
            }
        result[discipline] = per_substrate
    return result


# --------------------------------------------------------------------------- #
# Aggregate figures
# --------------------------------------------------------------------------- #


def aggregate_figure(
    metric: str,
    grid: GridSpec,
    *,
    store: SweepStore | str | bool | None = None,
    executor: ExecutorPolicy | None = None,
) -> dict[str, dict[str, list[tuple[float, ...]]]]:
    """One aggregate figure of ``grid``: ``{discipline: {mix: [(buffer_bdp, value), ...]}}``.

    The grid is run by :func:`~repro.experiments.sweep.run_campaign` with
    ``store`` and ``executor``; the five metrics of one grid share its runs
    through the store.  A grid with ``seeds`` makes each series entry a
    ``(buffer_bdp, mean, ci95)`` triple.
    """
    if metric not in set(AGGREGATE_FIGURES.values()):
        raise ValueError(f"unknown aggregate metric {metric!r}")
    points = sweep.run_campaign(grid, store=store, executor=executor).points
    extract = sweep.series_ci if grid.seeds is not None else sweep.series
    return {
        discipline: {mix: extract(points, metric, mix, discipline) for mix in grid.mixes}
        for discipline in grid.disciplines
    }


def figure_8_insight5(
    buffers_bdp: Iterable[float] = (1.0, 3.0, 5.0, 7.0),
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    store: SweepStore | str | bool | None = None,
) -> dict[str, Any]:
    """Insight 5: BBRv2 bufferbloat in large drop-tail buffers.

    The paper traces the effect to the start-up estimate of ``inflight_hi``;
    the fluid model reproduces it when ``w_hi``'s initial condition grows
    with the buffer (what an unconstrained start-up would measure).  Returns
    buffer occupancy with the default and with buffer-dependent ``w_hi``;
    the default points are those of Fig. 8's BBRv2 drop-tail series, so a
    ``store`` shared with that figure serves them.
    """
    grid = GridSpec(mixes=("BBRv2",), disciplines=("droptail",), duration_s=duration_s, dt=dt)
    rows = []
    for buffer_bdp in buffers_bdp:
        default_point = sweep.run_campaign(
            replace(grid, buffers_bdp=(buffer_bdp,)), store=store
        ).points[0]
        distorted_point = sweep.run_campaign(
            replace(grid, buffers_bdp=(buffer_bdp,), whi_init_bdp=1.0 + float(buffer_bdp)),
            store=store,
        ).points[0]
        rows.append(
            {
                "buffer_bdp": buffer_bdp,
                "occupancy_default_pct": default_point.metrics.buffer_occupancy_percent,
                "occupancy_startup_distorted_pct": distorted_point.metrics.buffer_occupancy_percent,
            }
        )
    return {"rows": rows}


# --------------------------------------------------------------------------- #
# Theorems (Section 5)
# --------------------------------------------------------------------------- #


def theorem_table(
    flow_counts: Iterable[int] = (2, 5, 10, 50),
    propagation_delay_s: float = 0.035,
    capacity_mbps: float = 100.0,
) -> list[dict[str, Any]]:
    """Equilibria and stability of Theorems 1-5 for a range of flow counts.

    Built on the campaign-facing :func:`~repro.analysis.analyze_networks`
    dispatcher (three networks per flow count, one per theorem regime,
    all analysed in one call), so this table exercises the same
    closed-form dispatch that the analytic sweep substrate and
    ``repro-bbr stability`` run at campaign scale: a deep buffer selects
    Theorems 1+2, a shallow one Theorem 3, and BBRv2's fair point
    Theorems 4+5.
    """
    flow_counts = tuple(flow_counts)
    # Buffers picked inside each theorem's hypotheses: deep means
    # B >= d C (Thm 1), shallow B <= (3/5) d C (Thm 3), and BBRv2's fair
    # point needs only B >= (N-1)/(4N+1) d C < 1 BDP (Thm 4).
    regimes = (("bbr1", math.inf), ("bbr1", 0.5), ("bbr2", math.inf))
    points = analyze_networks(
        [
            (
                (cca,) * n,
                reference_network(
                    n,
                    rtt_s=propagation_delay_s,
                    capacity_mbps=capacity_mbps,
                    buffer_bdp=buffer_bdp,
                ),
            )
            for n in flow_counts
            for cca, buffer_bdp in regimes
        ]
    )
    rows = []
    for i, n in enumerate(flow_counts):
        deep, shallow, fair_v2 = points[3 * i : 3 * i + 3]
        capacity_pps = deep.capacity_pps
        bdp_pkts = capacity_pps * propagation_delay_s
        assert (deep.theorems, shallow.theorems, fair_v2.theorems) == (
            "1+2",
            "3",
            "4+5",
        ), "reference networks must land inside the closed-form regimes"
        rows.append(
            {
                "num_flows": n,
                "thm1_queue_bdp": deep.queue_pkts / bdp_pkts,
                "thm2_stable": deep.max_real_part < 0,
                "thm3_rate_share": shallow.rates_pps[0] / capacity_pps,
                "thm3_loss_fraction": shallow.loss_fraction,
                "thm3_stable": shallow.max_real_part < 0,
                "thm4_queue_bdp": fair_v2.queue_pkts / bdp_pkts,
                "thm4_queue_reduction": bbr2_queue_reduction_vs_bbr1(n),
                "thm5_stable": fair_v2.max_real_part < 0,
            }
        )
    return rows


def convergence_demo(
    version: str = "bbr1",
    num_flows: int = 10,
    propagation_delay_s: float = 0.035,
    capacity_mbps: float = 100.0,
    duration_s: float = 60.0,
) -> dict[str, Any]:
    """Numerically integrate a reduced model from a perturbed state to its equilibrium."""
    net = reference_network(
        num_flows, rtt_s=propagation_delay_s, capacity_mbps=capacity_mbps
    )
    capacity_pps = net.capacity_pps
    rng_free_perturbation = np.linspace(0.5, 1.5, num_flows)
    x0 = capacity_pps / num_flows * rng_free_perturbation
    time, states = integrate_reduced(version, net, x0, queue0=0.0, duration_s=duration_s)
    expected_queue = (
        propagation_delay_s * capacity_pps
        if version == "bbr1"
        else (num_flows - 1.0) / (4.0 * num_flows + 1.0) * propagation_delay_s * capacity_pps
    )
    return {
        "time": time,
        "states": states,
        "final_queue_pkts": float(states[-1, -1]),
        "expected_queue_pkts": float(expected_queue),
        "final_rates_pps": states[-1, :-1].tolist(),
    }
