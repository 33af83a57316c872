"""repro — fluid models, packet-level emulation, and analysis of BBRv1/BBRv2.

This library reproduces "Model-Based Insights on the Performance, Fairness,
and Stability of BBR" (Scherrer, Legner, Perrig, Schmid; ACM IMC 2022):

* :mod:`repro.core` — the paper's fluid models of BBRv1, BBRv2, Reno and
  CUBIC plus the delay-differential-equation network model and integrator.
* :mod:`repro.emulation` — a packet-level discrete-event emulator standing
  in for the paper's mininet testbed.
* :mod:`repro.metrics` — traces and the aggregate metrics of the evaluation.
* :mod:`repro.analysis` — reduced models, equilibria and Lyapunov stability
  (Theorems 1-5).
* :mod:`repro.experiments` — scenario definitions, sweeps and per-figure
  regeneration of the paper's evaluation.

Quickstart::

    from repro.config import dumbbell_scenario
    from repro.core import simulate
    from repro.metrics import aggregate_metrics

    config = dumbbell_scenario(["bbr1"] * 5 + ["reno"] * 5, buffer_bdp=2.0)
    trace = simulate(config)
    print(aggregate_metrics(trace))

Only the light layers (``config``, ``topology``, ``units``) load with the
package.  ``analysis``, ``core``, ``emulation``, ``experiments`` and
``metrics`` load on first attribute access (``repro.core``) or explicit
import, so a command that only reads a store never imports numpy.
"""

import importlib
from types import ModuleType

from . import config, topology, units
from .config import (
    FlowConfig,
    FluidParams,
    LinkConfig,
    ScenarioConfig,
    TopologyConfig,
    dumbbell_scenario,
)

__version__ = "1.0.0"

#: Subpackages imported on first attribute access (PEP 562).
_LAZY_SUBPACKAGES = ("analysis", "core", "emulation", "experiments", "metrics")


def __getattr__(name: str) -> ModuleType:
    if name in _LAZY_SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "analysis",
    "config",
    "core",
    "emulation",
    "experiments",
    "metrics",
    "topology",
    "units",
    "FlowConfig",
    "FluidParams",
    "LinkConfig",
    "ScenarioConfig",
    "TopologyConfig",
    "dumbbell_scenario",
    "__version__",
]
