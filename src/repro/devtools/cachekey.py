"""Cache-key completeness: every knob must reach the stored scenario key.

A single unhashed config field corrupts an entire stored campaign: two
semantically different scenarios alias onto one record and the store serves
one's metrics for the other.  This was fixed by hand twice (seed and
sampling parameters missing from the old in-memory sweep key, then per-hop
disciplines keyed under the wrong label).  This checker machine-checks the
invariant four ways:

* ``CACHE001`` — **mutation probing**: for every dataclass field of the
  config layer (:class:`~repro.config.ScenarioConfig` and everything it
  nests), build a mutated scenario and require
  :func:`~repro.experiments.store.scenario_key` to change.  Intentionally
  excluded (field, substrate) pairs live in :data:`ALLOWED_UNHASHED`, each
  with a justification.
* ``CACHE002`` — **grid coverage**: the same mutation probe over every
  field of :class:`~repro.experiments.grid.GridSpec` (the campaign grid
  the CLI, presets and the campaign engine share): mutating a field must
  change some point's scenario key on at least one substrate, or the field
  steers nothing the store can tell apart.
* ``CACHE003`` — a config field the probe generator cannot mutate: the
  probe table must grow with the config layer, so new fields cannot dodge
  the check by being unprobeable.
* ``CACHE004`` — **schema drift**: the hashed-field set (config fields +
  grid fields) is fingerprinted into the committed
  ``schema_fingerprint.json``; any drift without a matching
  ``SCHEMA_VERSION`` bump (and fingerprint regeneration via ``repro-bbr
  check --update-schema-fingerprint``) is flagged.

All entry points take the functions/classes under test as parameters so the
test suite can probe synthetic configs, grids and deliberately broken key
functions (see ``tests/test_devtools.py``).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any

from ..config import (
    FlowConfig,
    FlowSchedule,
    FluidParams,
    LinkConfig,
    ScenarioConfig,
    TopologyConfig,
)
from ..experiments import store as store_mod
from ..experiments.grid import SUBSTRATES, GridSpec
from ..experiments.scenarios import CCA_MIXES
from ..topology import parking_lot
from .base import CheckContext
from .findings import Finding

#: (class name, field name, substrate) triples deliberately excluded from
#: the stored scenario key, each with its committed justification.  Keep
#: this list short and honest: every entry is a place where two different
#: configs intentionally share one stored record.
ALLOWED_UNHASHED: dict[tuple[str, str, str], str] = {
    # The fluid model is deterministic and — without a random flow schedule
    # — never consumes the seed: seed replicas of a schedule-free fluid
    # point alias onto one computation and one stored record on purpose
    # (PR 3's documented design).  scenario_key keeps the seed hashed when
    # the schedule draws random arrivals/sizes (FlowSchedule.uses_seed).
    ("ScenarioConfig", "seed", "fluid"): (
        "fluid substrate is deterministic; seed replicas of schedule-free "
        "points deliberately share one stored record"
    ),
    # The analytic substrate computes equilibria symbolically/numerically
    # from the scenario alone and never draws randomness at all; it shares
    # the fluid substrate's seed normalisation so seed replicas of a
    # schedule-free analytic point resolve to one stored prediction.
    ("ScenarioConfig", "seed", "analytic"): (
        "analytic substrate is deterministic; seed replicas of schedule-free "
        "points deliberately share one stored record"
    ),
}

#: Committed fingerprint of the hashed-field set (next to this module).
FINGERPRINT_FILE = Path(__file__).with_name("schema_fingerprint.json")

#: The config dataclasses whose fields feed the scenario hash.
CONFIG_CLASSES: tuple[type, ...] = (
    ScenarioConfig,
    TopologyConfig,
    LinkConfig,
    FlowConfig,
    FluidParams,
    FlowSchedule,
)


def _dumbbell_base() -> ScenarioConfig:
    return ScenarioConfig(
        bottleneck=LinkConfig(capacity_mbps=100.0, delay_s=0.010, buffer_bdp=1.0),
        flows=(FlowConfig("bbr1"), FlowConfig("reno", access_delay_s=0.007)),
        duration_s=2.0,
    )


def _churn_base() -> ScenarioConfig:
    return dataclasses.replace(
        _dumbbell_base(),
        schedule=FlowSchedule(
            arrivals="poisson",
            arrival_rate_per_s=5.0,
            size_dist="pareto",
            max_size_packets=100.0,
        ),
    )


def _topology_base() -> ScenarioConfig:
    topo = parking_lot(hops=2, cross_flows=0, long_flows=2)
    return ScenarioConfig(
        bottleneck=None,
        flows=(FlowConfig("bbr1"), FlowConfig("cubic", access_delay_s=0.007)),
        duration_s=2.0,
        topology=topo,
    )


def _other(value: str, options: Sequence[str]) -> str:
    for option in options:
        if option != value:
            return option
    raise ValueError(f"no alternative to {value!r} in {options}")


def _generic_mutants(value: Any) -> Iterator[Any]:
    """Type-driven candidate replacement values for an unknown field."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield value + 1
    elif isinstance(value, float):
        yield value * 2.0 + 0.125
        yield value / 2.0 + 1e-6
    elif isinstance(value, str):
        yield value + "-mut"
        yield "mut"
    elif value is None:
        yield 1.0
        yield 1
        yield "mut"
    elif isinstance(value, tuple) and value:
        yield value + (value[-1],)
        yield value[:-1]


# Per-field mutators that the generic type probe cannot derive (validator
# constraints, cross-field invariants).  Keyed by (class name, field name);
# each takes the current field value and returns a mutated one.
_FIELD_MUTATORS: dict[tuple[str, str], Callable[[Any], Any]] = {
    ("ScenarioConfig", "bottleneck"): lambda link: dataclasses.replace(
        link, capacity_mbps=link.capacity_mbps * 2.0
    ),
    ("ScenarioConfig", "flows"): lambda flows: (
        dataclasses.replace(flows[0], cca=_other(flows[0].cca, ("bbr1", "reno", "cubic"))),
    ) + tuple(flows[1:]),
    ("ScenarioConfig", "fluid"): lambda fluid: dataclasses.replace(
        fluid, dt=fluid.dt * 2.0
    ),
    ("ScenarioConfig", "topology"): lambda topo: (
        # On the legacy dumbbell base the field is None: mutate by attaching
        # an explicit two-hop topology (paths sized for the two-flow base).
        parking_lot(hops=2, cross_flows=0, long_flows=2)
        if topo is None
        else topo.with_buffer(topo.links[0].buffer_bdp * 2.0)
    ),
    ("ScenarioConfig", "schedule"): lambda sched: (
        # The dumbbell base carries no schedule: mutate by attaching one
        # (seed-free, so the fluid seed exclusion stays exercised).
        FlowSchedule(arrivals="staggered", arrival_spacing_s=0.25)
        if sched is None
        else dataclasses.replace(sched, arrival_spacing_s=sched.arrival_spacing_s + 0.25)
    ),
    ("FlowSchedule", "arrivals"): lambda arrivals: _other(
        arrivals, ("staggered", "poisson")
    ),
    ("FlowSchedule", "size_dist"): lambda dist: _other(dist, ("infinite", "pareto")),
    ("LinkConfig", "discipline"): lambda disc: _other(disc, ("droptail", "red")),
    ("LinkConfig", "name"): lambda name: name + "-renamed",
    ("FlowConfig", "cca"): lambda cca: _other(cca, ("bbr1", "reno", "cubic")),
    ("FluidParams", "whi_init_bdp"): lambda whi: 1.5 if whi is None else whi * 2.0,
    ("TopologyConfig", "links"): lambda links: (
        dataclasses.replace(links[0], capacity_mbps=links[0].capacity_mbps * 2.0),
    ) + tuple(links[1:]),
    ("TopologyConfig", "paths"): lambda paths: ((paths[0][0],),) + tuple(paths[1:]),
    ("TopologyConfig", "reference"): lambda ref: _other(ref, ("hop-1", "hop-2")),
    # Grid fields (CACHE002); the topology base grid has hops=2.
    ("GridSpec", "mixes"): lambda mixes: (_other(mixes[0], tuple(CCA_MIXES)),) + mixes[1:],
    ("GridSpec", "buffers_bdp"): lambda buffers: tuple(b * 2.0 for b in buffers),
    ("GridSpec", "disciplines"): lambda discs: (_other(discs[0], ("droptail", "red")),),
    ("GridSpec", "seeds"): lambda seeds: (7,),
    ("GridSpec", "substrate"): lambda substrate: _other(substrate, SUBSTRATES),
    ("GridSpec", "topology"): lambda topo: _other(topo, ("parking-lot", "multi-dumbbell")),
    ("GridSpec", "hop_capacities"): lambda caps: (50.0, 100.0),
    ("GridSpec", "hop_delays"): lambda delays: (0.002, 0.004),
    ("GridSpec", "hop_disciplines"): lambda discs: ("red", "droptail"),
    ("GridSpec", "arrivals"): lambda arrivals: _other(arrivals, ("poisson", "staggered")),
    ("GridSpec", "flow_size_dist"): lambda dist: _other(dist, ("pareto", "infinite")),
}


def _mutants(cls_name: str, field_name: str, current: Any) -> list[Any]:
    """Candidate replacement values for one field (mutator, else by type)."""
    mutator = _FIELD_MUTATORS.get((cls_name, field_name))
    if mutator is None:
        return list(_generic_mutants(current))
    try:
        return [mutator(current)]
    except (ValueError, TypeError, AttributeError, KeyError):
        return []


@dataclasses.dataclass(frozen=True)
class Probe:
    """One nested dataclass instance reachable from a scenario config."""

    cls: type
    base: ScenarioConfig
    get: Callable[[ScenarioConfig], Any]
    set: Callable[[ScenarioConfig, Any], ScenarioConfig]


def default_probes(
    dumbbell: ScenarioConfig | None = None,
    topology: ScenarioConfig | None = None,
    churn: ScenarioConfig | None = None,
) -> list[Probe]:
    """The probe set covering every config dataclass the scenario key hashes."""
    dumbbell = dumbbell if dumbbell is not None else _dumbbell_base()
    topology = topology if topology is not None else _topology_base()
    churn = churn if churn is not None else _churn_base()
    return [
        Probe(type(dumbbell), dumbbell, lambda c: c, lambda c, v: v),
        Probe(
            LinkConfig,
            dumbbell,
            lambda c: c.bottleneck,
            lambda c, v: dataclasses.replace(c, bottleneck=v),
        ),
        Probe(
            FlowConfig,
            dumbbell,
            lambda c: c.flows[0],
            lambda c, v: dataclasses.replace(c, flows=(v,) + tuple(c.flows[1:])),
        ),
        Probe(
            FluidParams,
            dumbbell,
            lambda c: c.fluid,
            lambda c, v: dataclasses.replace(c, fluid=v),
        ),
        Probe(
            TopologyConfig,
            topology,
            lambda c: c.topology,
            lambda c, v: dataclasses.replace(c, topology=v),
        ),
        Probe(
            FlowSchedule,
            churn,
            lambda c: c.schedule,
            lambda c, v: dataclasses.replace(c, schedule=v),
        ),
    ]


def _key_location(key_fn: Callable[..., Any]) -> tuple[str, int]:
    try:
        path = inspect.getsourcefile(key_fn) or "<unknown>"
        line = inspect.getsourcelines(key_fn)[1]
    except (OSError, TypeError):
        return "<unknown>", 1
    return path, line


def _relpath(path: str, root: Path | None) -> str:
    if root is None:
        return path
    try:
        return Path(path).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path


def check_scenario_key_coverage(
    key_fn: Callable[..., str] = store_mod.scenario_key,
    probes: Sequence[Probe] | None = None,
    allowed_unhashed: Mapping[tuple[str, str, str], str] = ALLOWED_UNHASHED,
    root: Path | None = None,
) -> list[Finding]:
    """Mutation-probe every config field against the stored scenario key."""
    findings: list[Finding] = []
    path, line = _key_location(key_fn)
    path = _relpath(path, root)
    for probe in probes if probes is not None else default_probes():
        target = probe.get(probe.base)
        if target is None or not dataclasses.is_dataclass(target):
            continue
        for field in dataclasses.fields(target):
            current = getattr(target, field.name)
            mutated_config: ScenarioConfig | None = None
            for candidate in _mutants(probe.cls.__name__, field.name, current):
                try:
                    mutated = dataclasses.replace(target, **{field.name: candidate})
                    mutated_config = probe.set(probe.base, mutated)
                except (ValueError, TypeError, AttributeError, KeyError):
                    continue
                break
            if mutated_config is None:
                findings.append(
                    Finding(
                        rule="CACHE003",
                        path=path,
                        line=line,
                        message=(
                            f"no probe can mutate {probe.cls.__name__}."
                            f"{field.name}; the cache-key probe table must "
                            "cover every config field"
                        ),
                        hint=(
                            "add a mutator for the field to "
                            "repro.devtools.cachekey._FIELD_MUTATORS"
                        ),
                    )
                )
                continue
            for substrate in SUBSTRATES:
                justification = allowed_unhashed.get(
                    (probe.cls.__name__, field.name, substrate)
                )
                if justification is not None:
                    continue
                if key_fn(probe.base, substrate) == key_fn(mutated_config, substrate):
                    findings.append(
                        Finding(
                            rule="CACHE001",
                            path=path,
                            line=line,
                            message=(
                                f"{probe.cls.__name__}.{field.name} does not "
                                f"change the stored scenario key on the "
                                f"{substrate} substrate: two different "
                                "scenarios would alias onto one stored record"
                            ),
                            hint=(
                                "hash the field in scenario_key (bumping "
                                "SCHEMA_VERSION) or record the exclusion in "
                                "ALLOWED_UNHASHED with a justification"
                            ),
                        )
                    )
    return findings


def default_grid_bases(grid_cls: type[GridSpec] = GridSpec) -> list[GridSpec]:
    """One-point base grids: dumbbell, parking lot, churn (grid fields only
    reach the key in their own context, e.g. ``hops`` on a topology)."""
    dumbbell = grid_cls(
        mixes=("BBRv1",), buffers_bdp=(1.0,), disciplines=("droptail",), duration_s=2.0
    )
    return [
        dumbbell,
        replace(dumbbell, topology="parking-lot", hops=2),
        replace(dumbbell, arrivals="poisson", flows=5),
    ]


def _grid_keys(grid: GridSpec) -> frozenset[str]:
    return frozenset(point.key for point in grid.points())


def _changes_some_key(base: GridSpec, field_name: str, candidate: Any) -> bool:
    """Whether ``field_name := candidate`` changes a key on any substrate."""
    for substrate in SUBSTRATES:
        try:
            before = replace(base, substrate=substrate)
            after = replace(before, **{field_name: candidate})
            if _grid_keys(before) != _grid_keys(after):
                return True
        except (ValueError, TypeError):
            continue
    return False


def check_grid_key_coverage(
    grid_cls: type[GridSpec] = GridSpec,
    bases: Sequence[GridSpec] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Mutation-probe every :class:`GridSpec` field against the scenario key."""
    findings: list[Finding] = []
    path, line = _key_location(grid_cls)
    path = _relpath(path, root)
    bases = bases if bases is not None else default_grid_bases(grid_cls)
    for field in dataclasses.fields(grid_cls):
        if any(
            _changes_some_key(base, field.name, candidate)
            for base in bases
            for candidate in _mutants("GridSpec", field.name, getattr(base, field.name))
        ):
            continue
        findings.append(
            Finding(
                rule="CACHE002",
                path=path,
                line=line,
                message=(
                    f"{grid_cls.__name__}.{field.name} changes no point's stored "
                    "scenario key on any substrate: grids differing only in it "
                    "would alias onto the same stored records"
                ),
                hint=(
                    "thread the field into PointSpec.config(), or add a mutator "
                    "for it to repro.devtools.cachekey._FIELD_MUTATORS if the "
                    "generic probe values are invalid for it"
                ),
            )
        )
    return findings


def hashed_field_fingerprint(
    config_classes: Sequence[type] = CONFIG_CLASSES,
    grid_cls: type = GridSpec,
) -> str:
    """Stable fingerprint of the hashed-field set (config + grid fields)."""
    payload = {
        "config_fields": {
            cls.__name__: sorted(f.name for f in dataclasses.fields(cls))
            for cls in config_classes
        },
        # Grid fields ride along so a renamed/added campaign axis is
        # surfaced as schema drift (CACHE004) and consciously reviewed,
        # exactly like a new config field.
        "grid_fields": sorted(f.name for f in dataclasses.fields(grid_cls)),
    }
    return store_mod.stable_hash(payload)


def write_schema_fingerprint(path: Path = FINGERPRINT_FILE) -> dict[str, Any]:
    """Regenerate the committed fingerprint for the current SCHEMA_VERSION."""
    payload = {
        "schema_version": store_mod.SCHEMA_VERSION,
        "fingerprint": hashed_field_fingerprint(),
        "comment": (
            "Regenerate with 'repro-bbr check --update-schema-fingerprint' "
            "after bumping SCHEMA_VERSION in repro/experiments/store.py."
        ),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check_schema_fingerprint(
    path: Path = FINGERPRINT_FILE,
    schema_version: int | None = None,
    fingerprint: str | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Flag hashed-field-set drift that lacks a ``SCHEMA_VERSION`` bump."""
    schema_version = (
        schema_version if schema_version is not None else store_mod.SCHEMA_VERSION
    )
    fingerprint = fingerprint if fingerprint is not None else hashed_field_fingerprint()
    relpath = _relpath(str(path), root)
    if not path.exists():
        return [
            Finding(
                rule="CACHE004",
                path=relpath,
                line=1,
                message="no committed schema fingerprint for the hashed-field set",
                hint="run 'repro-bbr check --update-schema-fingerprint' and commit the file",
            )
        ]
    recorded = json.loads(path.read_text())
    if recorded.get("schema_version") != schema_version:
        return [
            Finding(
                rule="CACHE004",
                path=relpath,
                line=1,
                message=(
                    f"SCHEMA_VERSION is {schema_version} but the committed "
                    f"fingerprint records version {recorded.get('schema_version')}"
                ),
                hint=(
                    "after bumping SCHEMA_VERSION, regenerate the fingerprint "
                    "with 'repro-bbr check --update-schema-fingerprint'"
                ),
            )
        ]
    if recorded.get("fingerprint") != fingerprint:
        return [
            Finding(
                rule="CACHE004",
                path=relpath,
                line=1,
                message=(
                    "the hashed-field set changed (config or grid fields) "
                    "without a SCHEMA_VERSION bump: stored results "
                    "from the old schema would be served for new scenarios"
                ),
                hint=(
                    "bump SCHEMA_VERSION in repro/experiments/store.py, then "
                    "run 'repro-bbr check --update-schema-fingerprint'"
                ),
            )
        ]
    return []


class CacheKeyChecker:
    """Bundles the cache-key checks (CACHE001-004) behind the Checker interface."""

    name = "cache-keys"

    def run(self, context: CheckContext) -> list[Finding]:
        findings = check_scenario_key_coverage(root=context.root)
        findings += check_grid_key_coverage(root=context.root)
        findings += check_schema_fingerprint(root=context.root)
        return findings
