"""Phase diagrams and prediction-vs-simulation residuals.

The report layer of the analytic campaign substrate: :func:`phase_grid`
computes stable/oscillatory phase diagrams over buffer x RTT x flow-count
grids straight from the equilibrium/stability theory
(:mod:`repro.analysis`), and :func:`validate_against_store` joins those
predictions against simulation rows persisted by ``run_campaign``
(pulled via ``SweepStore.records()``), emitting residual columns per
metric.  ``repro-bbr stability`` builds its table,
CSV and JSON output on these functions.

The analytic predictions are *equilibrium* statements while the
simulation metrics are 5-second time averages that include the start-up
transient, so agreement is judged against documented thresholds
(:data:`DEFAULT_THRESHOLDS`) rather than exact equality; see
``tests/test_analytic_campaign.py`` for the measured residuals that the
defaults are derived from.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from .. import units
from ..analysis import analyze_networks, analyze_scenarios, reference_network
from ..config import ScenarioConfig
from . import scenarios
from .store import SweepStore

#: Pure CCA mixes whose store rows a phase diagram can be validated
#: against (mixed-population rows have no single "version" axis).
MIX_VERSIONS = {"BBRv1": "bbr1", "BBRv2": "bbr2"}

#: Default phase-diagram axes: the paper's two BBR versions over a
#: buffer x RTT x flow-count grid spanning the shallow-to-deep regimes.
DEFAULT_VERSIONS = ("bbr1", "bbr2")
DEFAULT_FLOW_COUNTS = (2, 4, 10)
DEFAULT_RTTS_MS = (20.0, 35.0, 50.0)
DEFAULT_BUFFERS_BDP = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Documented agreement thresholds (absolute, in each metric's own unit —
#: percentage points) for :func:`agreement`.  The simulation averages
#: include the start-up transient (queue overshoot, estimator warm-up)
#: that the equilibrium predictions deliberately exclude, which dominates
#: the residuals; the values are calibrated against measured fluid
#: residuals on the BBRv1 deep-buffer and BBRv2 regimes in
#: ``tests/test_analytic_campaign.py``.
DEFAULT_THRESHOLDS: Mapping[str, float] = {
    "utilization_percent": 10.0,
    "loss_percent": 5.0,
    "buffer_occupancy_percent": 25.0,
}

#: The metric columns compared by :func:`validate_against_store`.
RESIDUAL_METRICS = tuple(DEFAULT_THRESHOLDS)


def phase_grid(
    versions: Sequence[str] = DEFAULT_VERSIONS,
    flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
    rtts_ms: Sequence[float] = DEFAULT_RTTS_MS,
    buffers_bdp: Sequence[float] = DEFAULT_BUFFERS_BDP,
    capacity_mbps: float = 100.0,
) -> list[dict]:
    """The full phase diagram over a version x flows x RTT x buffer grid.

    Every cell is analysed in one :func:`analyze_networks` call, so the
    cells that need the numerical fallback integrate together.
    """
    cells = [
        (version, num_flows, rtt_ms, buffer_bdp)
        for version in versions
        for num_flows in flow_counts
        for rtt_ms in rtts_ms
        for buffer_bdp in buffers_bdp
    ]
    points = analyze_networks(
        [
            (
                (version,) * num_flows,
                reference_network(
                    num_flows,
                    rtt_s=rtt_ms / 1e3,
                    capacity_mbps=capacity_mbps,
                    buffer_bdp=buffer_bdp,
                ),
            )
            for version, num_flows, rtt_ms, buffer_bdp in cells
        ]
    )
    rows = []
    for (version, num_flows, rtt_ms, buffer_bdp), point in zip(cells, points, strict=True):
        bdp_pkts = units.bdp_packets(point.capacity_pps, rtt_ms / 1e3)
        rows.append(
            {
                "version": version,
                "flows": num_flows,
                "rtt_ms": rtt_ms,
                "buffer_bdp": buffer_bdp,
                "regime": point.regime,
                "method": point.method,
                "theorems": point.theorems,
                "classification": point.classification,
                "max_re_lambda": point.max_real_part,
                "queue_bdp": point.queue_pkts / bdp_pkts,
                "loss_fraction": point.loss_fraction,
                "aggregate_rate_mbps": units.pps_to_mbps(point.aggregate_rate_pps),
            }
        )
    return rows


def json_safe(value):
    """Recursively replace NaN/inf floats with None for strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def validate_against_store(store: SweepStore, substrate: str | None = None) -> list[dict]:
    """Join analytic predictions against the store's simulation rows.

    Selects every schedule-free, droptail, dumbbell simulation record
    whose mix is a pure BBR version (see :data:`MIX_VERSIONS`), recomputes
    the analytic prediction for its exact scenario, and emits one residual
    row per record: the store coordinates, the predicted classification /
    regime, and ``predicted_* / measured_* / residual_*`` columns for each
    metric in :data:`RESIDUAL_METRICS`.  ``substrate`` restricts to one
    simulation substrate; analytic rows are never validated against
    themselves.
    """
    selected: list[tuple[dict, tuple]] = []
    configs: dict[tuple, ScenarioConfig] = {}
    for record in store.records():
        meta = record.get("meta", {})
        mix = meta.get("mix")
        if mix not in MIX_VERSIONS:
            continue
        row_substrate = meta.get("substrate")
        if row_substrate == "analytic":
            continue
        if substrate is not None and row_substrate != substrate:
            continue
        if meta.get("discipline") != "droptail":
            continue
        if meta.get("topology") is not None or meta.get("arrivals") is not None:
            continue
        # The equilibrium depends only on the network, not on the run
        # length, the integrator step or the seed: one prediction per network.
        memo_key = (mix, meta["buffer_bdp"], bool(meta.get("short_rtt")))
        if memo_key not in configs:
            configs[memo_key] = scenarios.aggregate_scenario(
                mix,
                buffer_bdp=meta["buffer_bdp"],
                discipline="droptail",
                short_rtt=bool(meta.get("short_rtt")),
                duration_s=meta.get("duration_s", 5.0),
                dt=meta.get("dt", scenarios.SWEEP_DT),
                whi_init_bdp=meta.get("whi_init_bdp"),
                seed=int(meta.get("seed", 1)),
            )
        selected.append((record, memo_key))
    predictions = dict(zip(configs, analyze_scenarios(list(configs.values())), strict=True))
    out: list[dict] = []
    for record, memo_key in selected:
        meta = record["meta"]
        mix = meta["mix"]
        row_substrate = meta["substrate"]
        point = predictions[memo_key]
        predicted = point.metrics().as_dict()
        measured = record["metrics"]
        row = {
            "mix": mix,
            "version": MIX_VERSIONS[mix],
            "buffer_bdp": meta["buffer_bdp"],
            "substrate": row_substrate,
            "seed": meta.get("seed", 1),
            "regime": point.regime,
            "classification": point.classification,
            "max_re_lambda": point.max_real_part,
        }
        for metric in RESIDUAL_METRICS:
            row[f"predicted_{metric}"] = predicted[metric]
            row[f"measured_{metric}"] = measured[metric]
            row[f"residual_{metric}"] = predicted[metric] - measured[metric]
        row["agrees"] = agreement(row)
        out.append(row)
    return out


def agreement(
    residual_row: Mapping, thresholds: Mapping[str, float] = DEFAULT_THRESHOLDS
) -> bool:
    """Whether every residual column is within its documented threshold."""
    return all(
        abs(residual_row[f"residual_{metric}"]) <= limit
        for metric, limit in thresholds.items()
    )
