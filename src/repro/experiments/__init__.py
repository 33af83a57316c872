"""Reproduction harness: canonical scenarios, sweeps, and per-figure regeneration.

The grid, preset, store-adjacent and reporting layers load with the package.
``sweep`` (the campaign engine, which imports every substrate) and
``figures`` load on first attribute access, as do the campaign names
re-exported from ``sweep`` (``run_campaign``, ``CampaignResult``, ...).
"""

import importlib
from typing import Any

from . import backends, executor, grid, presets, report, scenarios
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

#: Submodules imported on first attribute access (PEP 562).
_LAZY_SUBMODULES = ("figures", "sweep")

#: Names re-exported from :mod:`.sweep`, resolved on first access.
_SWEEP_NAMES = ("CampaignFailure", "CampaignResult", "SweepPoint", "run_campaign", "series")


def __getattr__(name: str) -> Any:
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _SWEEP_NAMES:
        return getattr(importlib.import_module(".sweep", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
