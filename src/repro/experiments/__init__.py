"""Reproduction harness: canonical scenarios, sweeps, and per-figure regeneration."""

from . import backends, executor, figures, grid, presets, report, scenarios, sweep
from .executor import ExecutorPolicy
from .grid import GridSpec, PointSpec
from .presets import CampaignPreset, load_preset
from .scenarios import (
    BUFFER_SWEEP_BDP,
    CCA_MIXES,
    DISCIPLINES,
    TOPOLOGY_PRESETS,
    aggregate_scenario,
    competition_scenario,
    multi_dumbbell_scenario,
    parking_lot_scenario,
    topology_scenario,
    trace_validation_scenario,
)
from .sweep import (
    CampaignFailure,
    CampaignResult,
    SweepPoint,
    run_campaign,
    series,
)

__all__ = [
    "backends",
    "executor",
    "figures",
    "grid",
    "presets",
    "report",
    "scenarios",
    "sweep",
    "CampaignFailure",
    "CampaignPreset",
    "CampaignResult",
    "ExecutorPolicy",
    "GridSpec",
    "PointSpec",
    "load_preset",
    "run_campaign",
    "BUFFER_SWEEP_BDP",
    "CCA_MIXES",
    "DISCIPLINES",
    "TOPOLOGY_PRESETS",
    "aggregate_scenario",
    "competition_scenario",
    "multi_dumbbell_scenario",
    "parking_lot_scenario",
    "topology_scenario",
    "trace_validation_scenario",
    "SweepPoint",
    "series",
]
