"""One campaign grid, described once: from CLI flags or a preset to store keys.

A :class:`GridSpec` holds every axis of a campaign grid — CCA mixes x
buffers x queue disciplines x seeds, plus the substrate, the scenario
knobs, the topology/per-hop axis and the churn axis.  Its
``__post_init__`` validates and defaults the axes exactly once;
:meth:`GridSpec.points` then expands the grid into :class:`PointSpec`
values, and every layer consumes those:

* :meth:`PointSpec.config` builds the point's
  :class:`~repro.config.ScenarioConfig`;
* :attr:`PointSpec.key` is its content-addressed
  :func:`~repro.experiments.store.scenario_key` — the only key, which the
  persistent store files results under and a campaign deduplicates by;
* :meth:`PointSpec.meta` is the human-readable coordinate block stored
  next to the metrics;
* :meth:`PointSpec.coords` names the point in reports and failure rows.

Two points with equal keys are one scenario: schedule-free fluid and
analytic seed replicas alias by design (the model never consumes the
seed), and a ``"dumbbell"`` topology is the legacy grid.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..config import ARRIVAL_PROCESSES, SIZE_DISTRIBUTIONS, ScenarioConfig
from ..emulation.runner import RECORD_INTERVAL_S, SCHEDULER
from . import scenarios
from .store import scenario_key

#: ``"analytic"`` runs no simulation: each chunk of points is one
#: :func:`repro.analysis.analyze_scenarios` call (the substrate name is part
#: of every key, so analytic rows never alias simulation rows).
SUBSTRATES = ("fluid", "emulation", "analytic")

#: Defaults of the churn axis once ``arrivals`` switches it on.
DEFAULT_CHURN_SIZE_DIST = "pareto"
DEFAULT_CHURN_ONOFF_SIZE_DIST = "infinite"
DEFAULT_CHURN_LOAD = 0.5
DEFAULT_CHURN_FLOWS = 100


def seed_list(seeds: int | Sequence[int]) -> tuple[int, ...]:
    """Normalise the seeds axis: an int K means seeds 1..K."""
    if isinstance(seeds, bool):
        raise ValueError("seeds must be an int count or a sequence of seeds")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("seed count must be at least 1")
        return tuple(range(1, seeds + 1))
    out = tuple(int(s) for s in seeds)
    if not out:
        raise ValueError("at least one seed is required")
    if len(set(out)) != len(out):
        raise ValueError("seeds must be distinct")
    return out


def normalize_churn_axis(
    arrivals: str | None,
    flow_size_dist: str | None,
    load: float | None,
    flows: int | None,
) -> tuple[str | None, str | None, float | None, int | None]:
    """Validate and default the churn axis (``--arrivals/--flow-size-dist/...``).

    ``arrivals=None`` is the legacy long-lived-flow grid: the other three
    values are meaningless there and must be unset (so a stray ``--load``
    cannot silently do nothing).  With ``arrivals`` set, unset values are
    resolved to their defaults — on/off sources default to long-lived
    (``"infinite"``) sizes, arrival processes to the heavy-tailed bounded
    Pareto — so points alias identically whether the caller spelled the
    default out or not.
    """
    if arrivals is None:
        extras = {
            "flow_size_dist": flow_size_dist,
            "load": load,
            "flows": flows,
        }
        set_extras = [name for name, value in extras.items() if value is not None]
        if set_extras:
            raise ValueError(
                f"{', '.join(set_extras)} require(s) an arrival process; "
                "set arrivals (--arrivals) to enable the churn axis"
            )
        return None, None, None, None
    if arrivals not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {arrivals!r}; expected one of {ARRIVAL_PROCESSES}"
        )
    if flow_size_dist is None:
        flow_size_dist = (
            DEFAULT_CHURN_ONOFF_SIZE_DIST if arrivals == "onoff" else DEFAULT_CHURN_SIZE_DIST
        )
    if flow_size_dist not in SIZE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown size distribution {flow_size_dist!r}; "
            f"expected one of {SIZE_DISTRIBUTIONS}"
        )
    load = DEFAULT_CHURN_LOAD if load is None else float(load)
    if load <= 0:
        raise ValueError("load must be positive")
    flows = DEFAULT_CHURN_FLOWS if flows is None else int(flows)
    if flows < 1:
        raise ValueError("flows must be positive")
    return arrivals, flow_size_dist, load, flows


@dataclass(frozen=True)
class GridSpec:
    """Every axis of one campaign grid (see the module docstring).

    ``seeds=None`` is the single-seed grid (seed 1) reported as plain
    per-point rows; an int K (seeds 1..K) or an explicit seed sequence
    replicates every point and reports mean/std/95% CI summaries.
    ``topology`` selects a multi-bottleneck preset ("parking-lot" or
    "multi-dumbbell"; ``None``/"dumbbell" is the paper's dumbbell) with
    ``hops`` links and ``cross_flows`` cross/spanning flows, made
    heterogeneous by one ``hop_capacities``/``hop_delays``/
    ``hop_disciplines`` value per hop.  ``arrivals`` switches every point
    to a churn workload of ``flows`` flows at offered ``load`` with
    ``flow_size_dist`` sizes (see
    :func:`~repro.experiments.scenarios.churn_scenario`).

    Construction validates the whole grid and fills in defaults: the churn
    defaults, the per-hop checks, the per-hop discipline label (the single
    ``disciplines`` entry becomes e.g. ``"red/droptail"``) and
    ``topology="dumbbell"`` -> ``None``.  Malformed axes raise
    :class:`ValueError` before any point runs; scenario-level conflicts
    (churn or ``short_rtt`` on a topology preset, an unknown mix) raise
    from :meth:`PointSpec.config`.
    """

    mixes: tuple[str, ...] = tuple(scenarios.CCA_MIXES)
    buffers_bdp: tuple[float, ...] = scenarios.BUFFER_SWEEP_BDP
    disciplines: tuple[str, ...] = scenarios.DISCIPLINES
    seeds: int | tuple[int, ...] | None = None
    substrate: str = "fluid"
    short_rtt: bool = False
    duration_s: float = 5.0
    dt: float = scenarios.SWEEP_DT
    whi_init_bdp: float | None = None
    topology: str | None = None
    hops: int = 3
    cross_flows: int = 1
    hop_capacities: tuple[float, ...] | None = None
    hop_delays: tuple[float, ...] | None = None
    hop_disciplines: tuple[str, ...] | None = None
    arrivals: str | None = None
    flow_size_dist: str | None = None
    load: float | None = None
    flows: int | None = None

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ValueError(f"unknown substrate {self.substrate!r}")
        seeds = self.seeds
        if seeds is not None:
            replicas = seed_list(seeds)
            seeds = seeds if isinstance(seeds, int) else replicas
        topology = None if self.topology == "dumbbell" else self.topology
        if topology is not None and topology not in scenarios.TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology preset {topology!r}; "
                f"expected one of {scenarios.TOPOLOGY_PRESETS}"
            )
        arrivals, flow_size_dist, load, flows = normalize_churn_axis(
            self.arrivals, self.flow_size_dist, self.load, self.flows
        )
        if arrivals is not None and self.substrate == "analytic":
            raise ValueError(
                "the analytic substrate predicts steady states; churn workloads "
                "(arrivals/flow_size_dist/load/flows) have no equilibrium to analyze"
            )
        hop_capacities, hop_delays, hop_disciplines = scenarios.validate_hop_axis(
            self.hops, self.hop_capacities, self.hop_delays, self.hop_disciplines,
            preset=topology or "dumbbell",
        )
        disciplines = tuple(self.disciplines)
        if hop_disciplines is not None:
            # The per-hop list fixes every hop's discipline, so sweeping the
            # discipline axis would label identical runs droptail *and* red.
            if len(disciplines) > 1:
                raise ValueError(
                    "hop_disciplines fixes every hop's queue discipline; restrict "
                    "the sweep to a single disciplines value (e.g. --disciplines "
                    "droptail) instead of sweeping the discipline axis"
                )
            # The scenario ignores the swept discipline, so label rows and
            # meta by what actually runs (e.g. "red/droptail").
            disciplines = ("/".join(hop_disciplines),)
        normalised = {
            "mixes": tuple(self.mixes),
            "buffers_bdp": tuple(self.buffers_bdp),
            "disciplines": disciplines,
            "seeds": seeds,
            "topology": topology,
            "hop_capacities": hop_capacities,
            "hop_delays": hop_delays,
            "hop_disciplines": hop_disciplines,
            "arrivals": arrivals,
            "flow_size_dist": flow_size_dist,
            "load": load,
            "flows": flows,
        }
        for name, value in normalised.items():
            object.__setattr__(self, name, value)

    def points(self) -> Iterator[PointSpec]:
        """Every grid point, discipline-major, seeds innermost."""
        seeds = (1,) if self.seeds is None else seed_list(self.seeds)
        for discipline in self.disciplines:
            for mix in self.mixes:
                for buffer_bdp in self.buffers_bdp:
                    for seed in seeds:
                        yield PointSpec(self, mix, buffer_bdp, discipline, seed)

    def key_of(self, config: ScenarioConfig) -> str:
        """The stored scenario key of ``config`` on this grid's substrate."""
        return scenario_key(config, self.substrate)


@dataclass(frozen=True)
class PointSpec:
    """One (mix, buffer, discipline, seed) point of a :class:`GridSpec`."""

    grid: GridSpec
    mix: str
    buffer_bdp: float
    discipline: str
    seed: int = 1

    def config(self) -> ScenarioConfig:
        """The point's scenario (dumbbell, topology preset or churn workload)."""
        grid = self.grid
        if grid.arrivals is not None:
            if grid.topology is not None:
                raise ValueError(
                    "the churn axis (arrivals/flow_size_dist/load/flows) is only "
                    "defined for the dumbbell grid, not for multi-bottleneck "
                    "topology presets"
                )
            assert grid.flow_size_dist is not None
            assert grid.load is not None and grid.flows is not None
            return scenarios.churn_scenario(
                self.mix,
                num_flows=grid.flows,
                arrivals=grid.arrivals,
                load=grid.load,
                size_dist=grid.flow_size_dist,
                buffer_bdp=self.buffer_bdp,
                discipline=self.discipline,
                short_rtt=grid.short_rtt,
                duration_s=grid.duration_s,
                dt=grid.dt,
                whi_init_bdp=grid.whi_init_bdp,
                seed=self.seed,
            )
        if grid.topology is not None:
            if grid.short_rtt:
                raise ValueError("short_rtt is only defined for the dumbbell grid")
            return scenarios.topology_scenario(
                grid.topology,
                mix=self.mix,
                hops=grid.hops,
                cross_flows=grid.cross_flows,
                buffer_bdp=self.buffer_bdp,
                discipline=self.discipline,
                duration_s=grid.duration_s,
                dt=grid.dt,
                whi_init_bdp=grid.whi_init_bdp,
                seed=self.seed,
                hop_capacities=grid.hop_capacities,
                hop_delays=grid.hop_delays,
                hop_disciplines=grid.hop_disciplines,
            )
        return scenarios.aggregate_scenario(
            self.mix,
            buffer_bdp=self.buffer_bdp,
            discipline=self.discipline,
            short_rtt=grid.short_rtt,
            duration_s=grid.duration_s,
            dt=grid.dt,
            whi_init_bdp=grid.whi_init_bdp,
            seed=self.seed,
        )

    @cached_property
    def key(self) -> str:
        """The point's :func:`~repro.experiments.store.scenario_key`."""
        return self.grid.key_of(self.config())

    def coords(self) -> dict[str, Any]:
        """The point's grid coordinates (status reports, failure rows)."""
        return {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.grid.substrate,
            "seed": self.seed,
        }

    def meta(self) -> dict[str, Any]:
        """The coordinate block stored next to the point's metrics.

        Axes that do not apply to the point (topology on the dumbbell, the
        churn axis without arrivals, the emulator's sampling parameters on
        the deterministic substrates) are left out.
        """
        grid = self.grid
        meta: dict[str, Any] = {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": grid.substrate,
            "short_rtt": grid.short_rtt,
            "duration_s": grid.duration_s,
            "dt": grid.dt,
            "whi_init_bdp": grid.whi_init_bdp,
            "seed": self.seed,
        }
        if grid.topology is not None:
            meta.update(topology=grid.topology, hops=grid.hops, cross_flows=grid.cross_flows)
            for name in ("hop_capacities", "hop_delays", "hop_disciplines"):
                values = getattr(grid, name)
                if values is not None:
                    meta[name] = list(values)
        if grid.arrivals is not None:
            meta.update(
                arrivals=grid.arrivals,
                flow_size_dist=grid.flow_size_dist,
                load=grid.load,
                flows=grid.flows,
            )
        if grid.substrate == "emulation":
            # The emulator's sampling parameters, stored (and keyed, see
            # scenario_key) at the values every campaign runs with.
            meta.update(record_interval_s=RECORD_INTERVAL_S, scheduler=SCHEDULER)
        return meta
