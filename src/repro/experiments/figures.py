"""Regeneration of every figure and analysis result of the paper.

Each ``figure_*`` function reproduces the data behind one figure of the
paper and returns it as plain Python structures (dictionaries of series).
The benchmark harness in ``benchmarks/`` calls these functions and prints
the resulting rows; EXPERIMENTS.md records how the regenerated shapes
compare with the published ones.

Figure index (cf. DESIGN.md):

* Fig. 1 — Reno vs. BBRv1 sending-rate competition.
* Fig. 2 — interplay of the BBRv1/BBRv2 fluid-model variables.
* Fig. 4 / 5 / 11 / 12 — single-flow trace validation of BBRv1 / BBRv2 /
  Reno / CUBIC under drop-tail and RED (fluid model vs. packet emulator).
* Fig. 6-10 — aggregate validation: Jain fairness, loss, buffer occupancy,
  utilization, jitter as functions of the buffer size for seven CCA mixes.
* Fig. 13-17 — the same five metrics for the short-RTT setting (Appendix C).
* Theorems 1-5 — equilibria and stability of the reduced models.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from typing import Any

import numpy as np

from ..analysis import (
    analyze_network,
    bbr2_queue_reduction_vs_bbr1,
    integrate_reduced,
    reference_network,
)
from ..core.simulator import simulate
from ..emulation.runner import emulate
from ..metrics.aggregate import aggregate_metrics
from . import scenarios, sweep
from .executor import ExecutorPolicy
from .grid import GridSpec

#: Metrics of the aggregate figures, in paper order.
AGGREGATE_FIGURES: dict[str, str] = {
    "fig06_fairness": "jain_fairness",
    "fig07_loss": "loss_percent",
    "fig08_queuing": "buffer_occupancy_percent",
    "fig09_utilization": "utilization_percent",
    "fig10_jitter": "jitter_ms",
}

#: Reduced sweep used by default so the benchmark suite stays tractable;
#: pass ``buffers_bdp=scenarios.BUFFER_SWEEP_BDP`` for the paper's full grid.
DEFAULT_SWEEP_BUFFERS: tuple[float, ...] = (1.0, 4.0, 7.0)


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
    result: dict[str, Any] = {}
    for cca in ("bbr1", "bbr2"):
        config = scenarios.trace_validation_scenario(cca, duration_s=duration_s, dt=dt)
        trace = simulate(config)
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
    result: dict[str, Any] = {"cca": cca}
    for discipline in disciplines:
        config = scenarios.trace_validation_scenario(
            cca, discipline=discipline, duration_s=duration_s, dt=dt
        )
        per_substrate: dict[str, Any] = {}
        for substrate in substrates:
            trace = simulate(config) if substrate == "fluid" else emulate(config)
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


def figure_4(**kwargs: Any) -> dict[str, Any]:
    """Fig. 4: BBRv1 trace validation."""
    return trace_validation_figure("bbr1", **kwargs)


def figure_5(**kwargs: Any) -> dict[str, Any]:
    """Fig. 5: BBRv2 trace validation."""
    return trace_validation_figure("bbr2", **kwargs)


def figure_11(**kwargs: Any) -> dict[str, Any]:
    """Fig. 11: Reno trace validation."""
    return trace_validation_figure("reno", **kwargs)


def figure_12(**kwargs: Any) -> dict[str, Any]:
    """Fig. 12: CUBIC trace validation."""
    return trace_validation_figure("cubic", **kwargs)


# --------------------------------------------------------------------------- #
# Aggregate figures
# --------------------------------------------------------------------------- #


def aggregate_figure(
    metric: str,
    substrate: str = "fluid",
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    workers: int | None = None,
    seeds: int | Iterable[int] | None = None,
    store: Any = None,
) -> dict[str, dict[str, list[tuple[float, ...]]]]:
    """One aggregate figure: ``{discipline: {mix: [(buffer_bdp, value), ...]}}``.

    ``workers=N`` fans uncached sweep points out to a process pool (most
    useful on the emulation substrate, whose points cannot be batched).
    ``seeds`` replicates every point across scenario seeds, in which case
    each series entry is a ``(buffer_bdp, mean, ci95)`` triple; ``store``
    (or the ``REPRO_STORE`` env var) persists points across processes.
    """
    if metric not in set(AGGREGATE_FIGURES.values()):
        raise ValueError(f"unknown aggregate metric {metric!r}")
    buffers = tuple(buffers_bdp) if buffers_bdp is not None else DEFAULT_SWEEP_BUFFERS
    mixes = tuple(mixes) if mixes is not None else tuple(scenarios.CCA_MIXES)
    disciplines = tuple(disciplines) if disciplines is not None else scenarios.DISCIPLINES
    grid = GridSpec(
        mixes=mixes,
        buffers_bdp=buffers,
        disciplines=disciplines,
        substrate=substrate,
        short_rtt=short_rtt,
        duration_s=duration_s,
        dt=dt,
        seeds=seeds,
    )
    points = sweep.run_campaign(
        grid, executor=ExecutorPolicy(workers=workers), store=store
    ).points
    extract = sweep.series_ci if seeds is not None else sweep.series
    return {
        discipline: {mix: extract(points, metric, mix, discipline) for mix in mixes}
        for discipline in disciplines
    }


def figure_6(**kwargs: Any) -> dict[str, Any]:
    """Fig. 6: Jain fairness vs. buffer size."""
    return aggregate_figure("jain_fairness", **kwargs)


def figure_7(**kwargs: Any) -> dict[str, Any]:
    """Fig. 7: loss rate vs. buffer size."""
    return aggregate_figure("loss_percent", **kwargs)


def figure_8(**kwargs: Any) -> dict[str, Any]:
    """Fig. 8: buffer occupancy vs. buffer size."""
    return aggregate_figure("buffer_occupancy_percent", **kwargs)


def figure_9(**kwargs: Any) -> dict[str, Any]:
    """Fig. 9: bottleneck utilization vs. buffer size."""
    return aggregate_figure("utilization_percent", **kwargs)


def figure_10(**kwargs: Any) -> dict[str, Any]:
    """Fig. 10: jitter vs. buffer size."""
    return aggregate_figure("jitter_ms", **kwargs)


def figures_13_17(metric: str, **kwargs: Any) -> dict[str, Any]:
    """Figs. 13-17: the short-RTT (Appendix C) variant of an aggregate figure."""
    kwargs.setdefault("short_rtt", True)
    return aggregate_figure(metric, **kwargs)


def figure_8_insight5(
    buffers_bdp: Iterable[float] = (1.0, 3.0, 5.0, 7.0),
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
) -> dict[str, Any]:
    """Insight 5: BBRv2 bufferbloat in large drop-tail buffers.

    The paper traces the effect to the start-up estimate of ``inflight_hi``;
    the fluid model reproduces it when ``w_hi``'s initial condition grows
    with the buffer (what an unconstrained start-up would measure).  Returns
    buffer occupancy with the default and with buffer-dependent ``w_hi``.
    """
    grid = GridSpec(mixes=("BBRv2",), disciplines=("droptail",), duration_s=duration_s, dt=dt)
    rows = []
    for buffer_bdp in buffers_bdp:
        default_point = sweep.run_campaign(replace(grid, buffers_bdp=(buffer_bdp,))).points[0]
        distorted_point = sweep.run_campaign(
            replace(grid, buffers_bdp=(buffer_bdp,), whi_init_bdp=1.0 + float(buffer_bdp))
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

    Built on the campaign-facing :func:`~repro.analysis.analyze_network`
    dispatcher (one network per theorem regime), so this table exercises
    the same closed-form dispatch that the analytic sweep substrate and
    ``repro-bbr stability`` run at campaign scale: a deep buffer selects
    Theorems 1+2, a shallow one Theorem 3, and BBRv2's fair point
    Theorems 4+5.
    """
    rows = []
    for n in flow_counts:
        # Buffers picked inside each theorem's hypotheses: deep means
        # B >= d C (Thm 1), shallow B <= (3/5) d C (Thm 3), and BBRv2's
        # fair point needs only B >= (N-1)/(4N+1) d C < 1 BDP (Thm 4).
        deep = analyze_network(
            ("bbr1",) * n,
            reference_network(
                n, rtt_s=propagation_delay_s, capacity_mbps=capacity_mbps
            ),
        )
        shallow = analyze_network(
            ("bbr1",) * n,
            reference_network(
                n,
                rtt_s=propagation_delay_s,
                capacity_mbps=capacity_mbps,
                buffer_bdp=0.5,
            ),
        )
        fair_v2 = analyze_network(
            ("bbr2",) * n,
            reference_network(
                n, rtt_s=propagation_delay_s, capacity_mbps=capacity_mbps
            ),
        )
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
