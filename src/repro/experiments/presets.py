"""YAML campaign presets: declarative service-grade campaign definitions.

A preset file declares everything a campaign needs — the full axis grid,
the substrate, the seed replication, the store backend and the executor
policy — so a multi-hour campaign is one reviewable artifact instead of a
shell history entry::

    # campaign.yaml
    name: emulation-grid
    substrate: emulation
    seeds: 5
    duration_s: 5.0
    grid:
      mixes: [BBRv1, BBRv1/RENO]
      buffers_bdp: [1, 2.5, 5]
      disciplines: [droptail, red]
    store:
      path: results.sqlite
      backend: sqlite
    executor:
      workers: 4
      retries: 1
      timeout_s: 300
      on_failure: skip

    $ repro-bbr campaign --preset campaign.yaml

Topology-level presets ride along (the ``topology`` section mirrors the
``--topology/--hops/...`` axis of PR 5) and churn workloads via the
``churn`` section.  Unknown keys anywhere in the file are hard errors —
a typoed ``buffers`` must not silently run the default grid.  The axes
parse into one :class:`~repro.experiments.grid.GridSpec`; CLI flags passed
alongside ``--preset`` override its fields.

Parsing uses :mod:`yaml` when available; the loader degrades to a clear
error (not an import-time crash) on environments without PyYAML.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .executor import ON_FAILURE_MODES, ExecutorPolicy
from .grid import GridSpec

try:  # pragma: no cover - exercised only on environments without PyYAML
    import yaml
except ImportError:  # pragma: no cover
    yaml = None  # type: ignore[assignment]

#: Top-level preset keys (besides the nested sections below).
TOP_LEVEL_KEYS = frozenset(
    {"name", "substrate", "seeds", "duration_s", "short_rtt", "grid",
     "topology", "churn", "store", "executor"}
)
GRID_KEYS = frozenset({"mixes", "buffers_bdp", "disciplines"})
TOPOLOGY_KEYS = frozenset(
    {"preset", "hops", "cross_flows", "hop_capacities", "hop_delays",
     "hop_disciplines"}
)
CHURN_KEYS = frozenset({"arrivals", "flow_size_dist", "load", "flows"})
STORE_KEYS = frozenset({"path", "backend", "fsync"})
EXECUTOR_KEYS = frozenset(
    {"workers", "retries", "backoff_s", "timeout_s", "on_failure",
     "heartbeat_s", "retry_failed"}
)


class PresetError(ValueError):
    """A campaign preset file is malformed (unknown keys, bad types, ...)."""


@dataclass(frozen=True)
class CampaignPreset:
    """One parsed campaign preset (see the module docstring for the format).

    ``grid`` is the campaign's :class:`~repro.experiments.grid.GridSpec`;
    the store and executor settings ride alongside.  Grid fields read
    straight through the preset (``preset.mixes`` is ``preset.grid.mixes``).
    """

    name: str = "campaign"
    grid: GridSpec = field(default_factory=lambda: GridSpec(substrate="emulation", seeds=5))
    store_path: str | None = None
    store_backend: str | None = None
    store_fsync: bool = True
    executor: ExecutorPolicy = field(default_factory=ExecutorPolicy)
    retry_failed: bool = True

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are not preset fields.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.grid, name)


def _require_mapping(value: Any, section: str) -> dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise PresetError(f"preset section {section!r} must be a mapping")
    return value


def _reject_unknown(data: dict[str, Any], allowed: frozenset[str], section: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise PresetError(
            f"unknown key(s) in preset {section}: {', '.join(unknown)} "
            f"(expected one of: {', '.join(sorted(allowed))})"
        )


def _str_list(value: Any, key: str) -> list[str] | None:
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise PresetError(f"preset key {key!r} must be a list of strings")
    return list(value)


def _float_list(value: Any, key: str) -> list[float] | None:
    if value is None:
        return None
    if not isinstance(value, list):
        raise PresetError(f"preset key {key!r} must be a list of numbers")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise PresetError(f"preset key {key!r} must be a list of numbers") from None


def parse_preset(data: Any, name: str = "campaign") -> CampaignPreset:
    """Build a :class:`CampaignPreset` from a decoded YAML document.

    Every section rejects unknown keys with a :class:`PresetError` naming
    the offender and the accepted spelling; semantic validation (substrate,
    per-hop lists, churn values, ...) is :class:`GridSpec`'s, so the rules
    live in exactly one place and surface here as a :class:`PresetError`.
    """
    doc = _require_mapping(data, "document")
    _reject_unknown(doc, TOP_LEVEL_KEYS, "document")
    grid = _require_mapping(doc.get("grid"), "grid")
    _reject_unknown(grid, GRID_KEYS, "'grid'")
    topo = _require_mapping(doc.get("topology"), "topology")
    _reject_unknown(topo, TOPOLOGY_KEYS, "'topology'")
    churn = _require_mapping(doc.get("churn"), "churn")
    _reject_unknown(churn, CHURN_KEYS, "'churn'")
    store = _require_mapping(doc.get("store"), "store")
    _reject_unknown(store, STORE_KEYS, "'store'")
    executor = _require_mapping(doc.get("executor"), "executor")
    _reject_unknown(executor, EXECUTOR_KEYS, "'executor'")

    seeds = doc.get("seeds", 5)
    if isinstance(seeds, bool) or not isinstance(seeds, int | list):
        raise PresetError("preset key 'seeds' must be an int count or a list of seeds")

    on_failure = executor.get("on_failure", "raise")
    if on_failure not in ON_FAILURE_MODES:
        raise PresetError(
            f"executor.on_failure must be one of {ON_FAILURE_MODES}, got {on_failure!r}"
        )
    try:
        policy = ExecutorPolicy(
            workers=executor.get("workers"),
            retries=int(executor.get("retries", 0)),
            backoff_s=float(executor.get("backoff_s", 0.5)),
            timeout_s=executor.get("timeout_s"),
            on_failure=on_failure,
            heartbeat_s=executor.get("heartbeat_s"),
        )
    except (TypeError, ValueError) as exc:
        raise PresetError(f"invalid executor policy: {exc}") from exc

    grid_axes = {
        "substrate": str(doc.get("substrate", "emulation")),
        "seeds": seeds,
        "duration_s": float(doc.get("duration_s", 5.0)),
        "short_rtt": bool(doc.get("short_rtt", False)),
        "mixes": _str_list(grid.get("mixes"), "grid.mixes"),
        "buffers_bdp": _float_list(grid.get("buffers_bdp"), "grid.buffers_bdp"),
        "disciplines": _str_list(grid.get("disciplines"), "grid.disciplines"),
        "topology": topo.get("preset"),
        "hops": int(topo.get("hops", 3)),
        "cross_flows": int(topo.get("cross_flows", 1)),
        "hop_capacities": _float_list(topo.get("hop_capacities"), "topology.hop_capacities"),
        "hop_delays": _float_list(topo.get("hop_delays"), "topology.hop_delays"),
        "hop_disciplines": _str_list(topo.get("hop_disciplines"), "topology.hop_disciplines"),
        "arrivals": churn.get("arrivals"),
        "flow_size_dist": churn.get("flow_size_dist"),
        "load": churn.get("load"),
        "flows": churn.get("flows"),
    }
    try:
        # Unset grid lists fall back to the GridSpec defaults.
        grid_spec = GridSpec(**{k: v for k, v in grid_axes.items() if v is not None})
    except ValueError as exc:
        raise PresetError(f"invalid campaign grid: {exc}") from exc

    return CampaignPreset(
        name=str(doc.get("name", name)),
        grid=grid_spec,
        store_path=store.get("path"),
        store_backend=store.get("backend"),
        store_fsync=bool(store.get("fsync", True)),
        executor=policy,
        retry_failed=bool(executor.get("retry_failed", True)),
    )


def load_preset(path: str | Path) -> CampaignPreset:
    """Load and validate a campaign preset YAML file."""
    if yaml is None:  # pragma: no cover - environment without PyYAML
        raise PresetError(
            "campaign presets require PyYAML, which is not installed in this "
            "environment"
        )
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise PresetError(f"cannot read preset file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise PresetError(f"preset file {path} is not valid YAML: {exc}") from exc
    return parse_preset(data, name=path.stem)
