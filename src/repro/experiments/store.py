"""Persistent, content-addressed store for sweep/campaign results.

The paper's aggregate figures (Figs. 6-10, 13-17) average many randomized
runs; recomputing every sweep point inside every process made multi-seed
campaigns impractical.  This module persists each completed point to disk
the moment it finishes, keyed by a *stable content hash* of everything that
determines its result:

* the full :class:`~repro.config.ScenarioConfig` (topology, flows, fluid
  parameters, duration, **seed**),
* the substrate (``"fluid"`` or ``"emulation"``) and, for the emulator,
  its sampling parameters (:data:`~repro.emulation.runner.RECORD_INTERVAL_S`
  and :data:`~repro.emulation.runner.SCHEDULER`),
* and :data:`SCHEMA_VERSION`, bumped whenever the simulation code changes
  in a way that invalidates stored results.

Persistence is delegated to a pluggable :class:`StoreBackend`
(:mod:`repro.experiments.backends`): the single-file JSON-lines store
(bit-compatible with files written before the backend split) or a SQLite
store (WAL mode, UPSERT on key).  :meth:`SweepStore.records` is the one
read of all results; callers filter its list in Python.  Every record is
self-describing and last-write-wins on key collisions, so interrupted or
crashed sweeps resume without recomputing finished points.  Failed points
are recorded as structured *failure* rows (axis combo + error) that a
later successful run supersedes.  ``repro-bbr store merge SRC... DEST``
rewrites stores last-write-wins.

Select a store with the ``REPRO_STORE`` environment variable or the
``--store PATH`` CLI flag; the backend is inferred from the path (or
forced with a ``backend:`` prefix / the ``--backend`` flag)::

    REPRO_STORE=results.jsonl repro-bbr sweep --substrate emulation --seeds 5
    repro-bbr campaign --store results.sqlite --seeds 5
    repro-bbr campaign --store sqlite:results.out --workers 8
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from collections.abc import Mapping
from typing import Any

from ..config import ScenarioConfig
from ..emulation.runner import RECORD_INTERVAL_S, SCHEDULER
from ..metrics.aggregate import AggregateMetrics
from ..obs import TELEMETRY
from .backends import make_backend

#: Bump when simulator/emulator semantics change enough that previously
#: stored results are no longer comparable with freshly computed ones.
#: v2: the topology subsystem — ``ScenarioConfig`` grew ``topology`` (and
#: ``LinkConfig`` a ``name``), so every scenario hash changed; keys are now
#: topology-aware (a parking-lot point and a dumbbell point never collide).
#: v3: the fluid model attenuates multi-hop arrivals by upstream
#: loss/capacity and picks the effective (survival-scaled) bottleneck for
#: Eq. 17, so every multi-hop fluid result changed; v2 rows are skipped on
#: load rather than served stale.
#: v4: time-varying flow populations — ``ScenarioConfig`` grew a
#: ``schedule`` (:class:`~repro.config.FlowSchedule`), so every scenario
#: hash changed, and ``AggregateMetrics`` grew the churn columns (FCT
#: percentiles, active-set fairness, mean active flows); v3 rows are
#: skipped on load rather than served without the new columns.
#: (The PR-8 backend split changed *where* records live, not what they
#: mean: v4 rows written by the single-file store load unchanged.)
SCHEMA_VERSION = 4

#: Environment variable naming the default store file.
ENV_VAR = "REPRO_STORE"


def stable_hash(obj: Any) -> str:
    """A stable content hash of a JSON-serialisable object.

    Dictionaries are key-sorted and floats serialised by ``repr`` via
    ``json.dumps``, so the digest is reproducible across processes and
    platforms (unlike ``hash()``, which is salted per process).
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def scenario_key(config: ScenarioConfig, substrate: str) -> str:
    """Content-addressed key of one (scenario, substrate, sampling) point.

    The full scenario configuration — including the seed and every fluid
    parameter — is hashed together with the substrate, the emulator's
    sampling parameters and :data:`SCHEMA_VERSION`.  The fluid model is
    deterministic and does not consume the seed (or the emulator's sampling
    parameters) *unless* the flow schedule draws random arrivals or sizes,
    so for seed-free scenarios those are excluded from fluid keys: seed
    replicas of such a fluid point all resolve to one stored record.
    """
    scenario = dataclasses.asdict(config)
    payload = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "substrate": substrate,
    }
    if substrate == "emulation":
        payload["record_interval_s"] = RECORD_INTERVAL_S
        payload["scheduler"] = SCHEDULER
    elif config.schedule is None or not config.schedule.uses_seed:
        scenario.pop("seed", None)
    return stable_hash(payload)


class SweepStore:
    """A persistent store of computed sweep points over a pluggable backend.

    Each record carries the content-addressed ``key``, the stored
    :class:`~repro.metrics.aggregate.AggregateMetrics`, and a ``meta``
    mapping of human-readable coordinates (mix, buffer, discipline, seed,
    ...) so per-seed rows are recoverable without re-deriving hashes.
    ``put`` persists immediately — every completed point survives a crash
    of the surrounding sweep — and is safe under concurrent writer
    processes on all backends.  ``put_failure`` records a point the
    executor gave up on (axis combo + error); a later successful ``put``
    under the same key supersedes it.

    ``backend`` selects the storage strategy (``"jsonl"``/``"sqlite"``;
    default inferred from the path — see
    :func:`repro.experiments.backends.make_backend`); ``fsync=False``
    trades tail durability for append throughput.
    """

    def __init__(
        self,
        path: str | Path,
        backend: str | None = None,
        fsync: bool = True,
    ) -> None:
        self._backend = make_backend(path, SCHEMA_VERSION, backend=backend, fsync=fsync)
        self.path = self._backend.path
        self.hits = 0
        self.misses = 0

    @property
    def backend(self) -> str:
        """The storage backend kind (``jsonl``/``sqlite``)."""
        return self._backend.kind

    def __len__(self) -> int:
        return len(self._backend)

    def __contains__(self, key: str) -> bool:
        return key in self._backend

    def get(self, key: str) -> AggregateMetrics | None:
        """Fetch stored metrics by key, counting hits/misses."""
        record = self._backend.get(key)
        if record is None:
            self.misses += 1
            TELEMETRY.count("store.miss")
            return None
        self.hits += 1
        TELEMETRY.count("store.hit")
        return AggregateMetrics(**record["metrics"])

    def put(
        self,
        key: str,
        metrics: AggregateMetrics,
        meta: Mapping[str, Any] | None = None,
        runtime: Mapping[str, Any] | None = None,
    ) -> None:
        """Persist one completed point immediately.

        ``runtime`` is the optional per-point execution-metadata block
        (wall s, CPU s, peak RSS, substrate counters — see
        :class:`repro.obs.RuntimeCapture`).  It is *non-keyed*: it never
        participates in :func:`scenario_key`, so it neither invalidates
        old rows (no :data:`SCHEMA_VERSION` bump) nor makes two runs of
        one scenario distinct.
        """
        record: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "metrics": metrics.as_dict(),
            "meta": dict(meta) if meta else {},
        }
        if runtime:
            record["runtime"] = dict(runtime)
        self._backend.put(record)

    def put_failure(
        self,
        key: str,
        error: str,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one failed point (offending axis combo + error string)."""
        self._backend.put_failure(
            {
                "schema": SCHEMA_VERSION,
                "key": key,
                "kind": "failure",
                "error": error,
                "meta": dict(meta) if meta else {},
            }
        )

    def records(self) -> list[dict[str, Any]]:
        """All current-schema result records (failures excluded).

        The store's only read of every result; callers filter the list.
        """
        return self._backend.records()

    def failures(self) -> list[dict[str, Any]]:
        """Failure records not yet superseded by a successful result."""
        return self._backend.failures()

    def merge_from(self, source: SweepStore) -> tuple[int, int]:
        """Merge another store's records into this one (last-write-wins).

        Replays the source's result records and its not-yet-superseded
        failure rows through this store's backend, so the backends' own
        key semantics apply: a result overwrites any earlier result *or*
        failure under the same key, while a merged failure never shadows
        an existing result.  Backends may differ freely between the two
        stores.  Returns ``(results, failures)`` counts merged.

        Requires exclusive access to the destination (no concurrent
        campaign writers).
        """
        merged_results = 0
        merged_failures = 0
        with TELEMETRY.span("store.merge", backend=self.backend):
            for record in source.records():
                self._backend.put(dict(record))
                merged_results += 1
            for record in source.failures():
                self._backend.put_failure(dict(record))
                merged_failures += 1
        return merged_results, merged_failures

    def close(self) -> None:
        """Release backend resources (SQLite connection)."""
        self._backend.close()


def resolve_store(
    store: SweepStore | str | Path | bool | None,
    backend: str | None = None,
    fsync: bool = True,
) -> SweepStore | None:
    """Coerce a store argument into a :class:`SweepStore` (or ``None``).

    ``None`` falls back to the ``REPRO_STORE`` environment variable; when
    that is unset too, persistence is disabled.  ``False`` disables the
    store outright, ignoring the environment — used for process-pool
    workers, whose results the parent persists centrally.  ``backend``
    forces the storage backend for path-like arguments (paths may also
    carry a ``jsonl:``/``sqlite:`` prefix); ``fsync`` is
    forwarded to newly opened stores.
    """
    if store is False:
        return None
    if isinstance(store, SweepStore):
        return store
    if store is not None and store is not True:
        return SweepStore(store, backend=backend, fsync=fsync)
    env = os.environ.get(ENV_VAR)
    return SweepStore(env, backend=backend, fsync=fsync) if env else None
