"""Campaign engine for the aggregate-validation figures (Figs. 6-10, 13-17).

A campaign runs every point of a :class:`~repro.experiments.grid.GridSpec`
— CCA mix x buffer size x queue discipline x seed — on one substrate
("fluid", "emulation" or "analytic"), computes the aggregate metrics of
:mod:`repro.metrics.aggregate`, and returns tidy rows.  Because the five
aggregate figures of the paper all derive from the *same* runs, results
are cached at two levels:

* an in-process cache keyed by ``scenario_key`` (the point's
  content-addressed store key), and
* an optional persistent :class:`~repro.experiments.store.SweepStore`
  (``store=`` argument, ``--store PATH`` flag or ``REPRO_STORE`` env var):
  every point is persisted the moment it completes, so interrupted
  campaigns resume without recomputing finished points and results are
  shared across processes and ``--workers N`` pools.

The paper's aggregate figures average repeated randomized runs; the
``seeds`` axis replicates each point under K scenario seeds and aggregates
the per-seed :class:`~repro.metrics.aggregate.AggregateMetrics` into a
:class:`~repro.metrics.aggregate.MetricsSummary` (mean/std/95% CI)::

    # single-seed points
    points = run_campaign(GridSpec(substrate="emulation")).points
    # 5-seed replication with a persistent store
    summaries = run_campaign(
        GridSpec(substrate="emulation", seeds=5), store="results.jsonl"
    ).points

The grid is embarrassingly parallel and is exploited two ways:

* on the fluid substrate, all uncached points of a grid are integrated in
  lockstep through :func:`repro.core.simulator.simulate_many`, which stacks
  the independent scenarios into one batched system (the big win on a
  single core), and
* ``workers=N`` opts into a process pool that fans uncached points out to
  worker processes (useful on multi-core machines and for the emulation
  substrate, whose points cannot be batched).  Results are persisted one
  by one as they land, so a single failing point never discards completed
  results; failures are reported as :class:`CampaignFailure` rows or
  re-raised as :class:`SweepPointError` naming the failing (mix, buffer,
  discipline, seed) combination.  The CLI exposes all of this as
  ``repro-bbr sweep/figure/campaign`` with ``--workers N``, ``--seeds K``
  and ``--store PATH``.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..core.simulator import FluidSimulator, simulate_many
from ..emulation.runner import EmulationRunner
from ..metrics.aggregate import (
    AggregateMetrics,
    MetricsSummary,
    aggregate_metrics,
    summarize_metrics,
)
from ..obs import TELEMETRY, RuntimeCapture
from .backends import shard_of
from .executor import ExecutorPolicy, PointFailure, ResilientExecutor
from .grid import GridSpec, PointSpec
from .store import SweepStore, resolve_store

#: Upper bound on how many scenarios are stacked into one batched
#: integration (bounds the working-set memory of the recording buffers).
BATCH_CHUNK = 64


class SweepPointError(RuntimeError):
    """A sweep point failed; carries the failing grid coordinates."""

    def __init__(
        self,
        mix: str,
        buffer_bdp: float,
        discipline: str,
        seed: int,
        error: str | None = None,
    ) -> None:
        message = (
            f"sweep point failed: mix={mix!r}, buffer_bdp={buffer_bdp}, "
            f"discipline={discipline!r}, seed={seed}"
        )
        if error:
            message += f": {error}"
        super().__init__(message)
        self.mix = mix
        self.buffer_bdp = buffer_bdp
        self.discipline = discipline
        self.seed = seed
        self.error = error


@dataclass(frozen=True)
class SweepPoint:
    """One (mix, buffer, discipline, substrate, seed) result of a sweep."""

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str
    metrics: AggregateMetrics
    seed: int = 1
    #: Non-keyed execution metadata of the run that computed this point
    #: (wall/CPU seconds, peak RSS, substrate counters); ``None`` when the
    #: point was served from a cache or store.  Excluded from equality so
    #: identical results compare equal regardless of where they ran.
    runtime: dict | None = field(default=None, compare=False, repr=False)
    #: Analysis block of an analytic-substrate point (equilibrium regime,
    #: stability classification, max Re lambda, eigenvalues); ``None`` on
    #: the simulation substrates and for store-served rows.  Persisted in
    #: the store meta under ``"analysis"``; excluded from equality like
    #: ``runtime``.
    analysis: dict | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(
        cls,
        point: PointSpec,
        metrics: AggregateMetrics,
        runtime: dict | None = None,
        analysis: dict | None = None,
    ) -> SweepPoint:
        """The result row of ``point`` carrying ``metrics``."""
        return cls(
            mix=point.mix,
            buffer_bdp=point.buffer_bdp,
            discipline=point.discipline,
            substrate=point.grid.substrate,
            metrics=metrics,
            seed=point.seed,
            runtime=runtime,
            analysis=analysis,
        )

    def row(self) -> dict[str, float | str]:
        """Flatten into a CSV-friendly dictionary."""
        out: dict[str, float | str] = {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
            "seed": self.seed,
        }
        out.update(self.metrics.as_dict())
        return out


@dataclass(frozen=True)
class SummaryPoint:
    """One sweep point replicated across seeds, with mean/std/95% CI."""

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str
    summary: MetricsSummary
    seeds: tuple[int, ...]

    @property
    def metrics(self) -> AggregateMetrics:
        """The per-seed mean (lets summary points flow through :func:`series`)."""
        return self.summary.mean

    def row(self) -> dict[str, float | str]:
        """Flatten into a CSV-friendly dictionary of mean/std/CI columns."""
        out: dict[str, float | str] = {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
        }
        out.update(self.summary.as_dict())
        return out


@dataclass(frozen=True)
class CampaignFailure:
    """One grid point the executor gave up on (axis combo + error)."""

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str
    seed: int
    error: str
    attempts: int

    def row(self) -> dict[str, float | str | int]:
        """Flatten into a CSV-friendly dictionary."""
        return {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
            "seed": self.seed,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class CampaignResult:
    """The outcome of a campaign grid: completed points + reported failures.

    ``points`` holds one :class:`SweepPoint` per grid point for a
    single-seed grid (``GridSpec.seeds=None``) and one
    :class:`SummaryPoint` per (mix, buffer, discipline) otherwise;
    ``replicas`` always holds the completed per-seed points.
    """

    points: list[SweepPoint] | list[SummaryPoint]
    failures: list[CampaignFailure]
    replicas: list[SweepPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every grid point completed."""
        return not self.failures


#: In-process results by scenario key (the same key the store uses).
_CACHE: dict[str, SweepPoint] = {}


def clear_cache() -> None:
    """Drop all cached sweep points (mainly for tests)."""
    _CACHE.clear()


def validate_shard(
    shard_index: int | None, shard_count: int | None
) -> tuple[int | None, int | None]:
    """Validate the deterministic grid-partitioning axis.

    Both values must be set together; ``shard_index`` must lie in
    ``[0, shard_count)``.  Returns the normalised pair (``(None, None)``
    when sharding is off).
    """
    if (shard_index is None) != (shard_count is None):
        raise ValueError("shard_index and shard_count must be set together")
    if shard_index is None or shard_count is None:
        return None, None
    shard_index, shard_count = int(shard_index), int(shard_count)
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, shard_count): got index {shard_index} "
            f"with {shard_count} shard(s)"
        )
    return shard_index, shard_count


def shard_points(
    grid: GridSpec,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> Iterator[PointSpec]:
    """The grid's points in this shard (all of them when sharding is off).

    Sharding partitions by scenario-key hash, so K hosts can each run one
    shard against separate stores and ``repro-bbr store merge``
    reassembles the result set.
    """
    shard_index, shard_count = validate_shard(shard_index, shard_count)
    for point in grid.points():
        if shard_count is None or shard_of(point.key, shard_count) == shard_index:
            yield point


def distinct_points(
    grid: GridSpec,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> list[PointSpec]:
    """One point per distinct scenario key: the records the grid stores.

    Points that alias onto one key (fluid seed replicas of seed-free
    scenarios) collapse onto the first, so ``done + failed + remaining``
    adds up against the store.
    """
    out: dict[str, PointSpec] = {}
    for point in shard_points(grid, shard_index, shard_count):
        out.setdefault(point.key, point)
    return list(out.values())


def grid_point_keys(
    shard_index: int | None = None,
    shard_count: int | None = None,
    **axes: Any,
) -> list[tuple[dict, str]]:
    """Enumerate a grid's ``(coords, scenario_key)`` pairs without running it.

    ``axes`` are :class:`GridSpec` fields; the result has one entry per
    distinct stored record (see :func:`distinct_points`).
    """
    grid = GridSpec(**axes)
    return [(p.coords(), p.key) for p in distinct_points(grid, shard_index, shard_count)]


def compute_point(point: PointSpec) -> SweepPoint:
    """Compute one grid point from scratch (no cache, no store).

    The executor's unit of work: module-level so process pools can pickle
    it, and free of cache/store side effects so the parent owns every
    write.
    """
    grid = point.grid
    config = point.config()
    analysis_block: dict | None = None
    with RuntimeCapture() as rt:
        if grid.substrate == "analytic":
            # Lazy import: the analysis layer pulls in scipy, which the
            # simulation substrates never need.
            from .. import analysis as _analysis

            prediction = _analysis.analyze_scenario(config)
            metrics = prediction.metrics()
            analysis_block = prediction.as_meta()
            counters = {"flows": config.num_flows}
        else:
            if grid.substrate == "fluid":
                sim = FluidSimulator(config)
                trace = sim.run()
                counters = dict(sim.runtime)
            else:
                runner = EmulationRunner(
                    config, record_interval_s=grid.record_interval_s, scheduler=grid.scheduler
                )
                trace = runner.run()
                counters = runner.runtime_counters()
            metrics = aggregate_metrics(trace)
    return SweepPoint.of(point, metrics, runtime=rt.block(counters), analysis=analysis_block)


def _describe(point: PointSpec) -> str:
    return (
        f"mix={point.mix!r}, buffer_bdp={point.buffer_bdp}, "
        f"discipline={point.discipline!r}, seed={point.seed}"
    )


def _compute_args(point: PointSpec) -> tuple[tuple, dict]:
    return (point,), {}


def run_campaign(
    grid: GridSpec,
    *,
    store: SweepStore | str | bool | None = None,
    executor: ExecutorPolicy | None = None,
    workers: int | None = None,
    retry_failed: bool = True,
    trace: str | Path | None = None,
    prune_analytic: bool = False,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> CampaignResult:
    """Run (or resume) every point of ``grid``; return points *and* failures.

    ``store`` (or the ``REPRO_STORE`` env var; ``False`` disables it)
    persists each point as soon as it completes, so interrupted campaigns
    resume without recomputing finished points.  The fluid substrate is
    deterministic, so its seed replicas of seed-free scenarios alias onto
    a single computation (and a single store record).

    Execution goes through a
    :class:`~repro.experiments.executor.ResilientExecutor`: ``workers=N``
    (N > 1) fans uncached points out to a process pool, otherwise fluid
    grids run batched in-process via
    :func:`~repro.core.simulator.simulate_many` and the other substrates
    run serially.  ``executor`` supplies the full policy (retries with
    backoff, per-point timeouts, heartbeat logging, ``on_failure``), with
    ``workers`` filling its pool size when the policy leaves it unset.
    Under ``on_failure="raise"`` a point that exhausts its retries raises
    :class:`SweepPointError` *after* the rest of the grid has completed and
    persisted; under ``"skip"`` failed points are recorded in the store as
    failure rows and reported in :attr:`CampaignResult.failures`.  With
    ``retry_failed=False`` a warm re-run serves recorded failures from the
    store instead of recomputing them.

    ``trace`` names a JSON-lines span-log file: telemetry is enabled for
    the whole grid (workers included); tracing never changes results.

    ``prune_analytic`` runs an analytic pre-pass over the grid: points
    whose buffer provably never binds (see
    :func:`repro.analysis.buffer_never_binds`) share one computed primary
    per group, with the aliases materialised from it (occupancy rescaled)
    and recorded in the store with a ``pruned`` meta block.

    ``shard_index``/``shard_count`` restrict the run to one slice of the
    grid (see :func:`shard_points`).
    """
    tracing = TELEMETRY.tracing(trace) if trace is not None else contextlib.nullcontext()
    with tracing:
        if prune_analytic and grid.substrate == "emulation":
            raise ValueError(
                "prune_analytic applies to the fluid and analytic substrates; the "
                "trajectory-equivalence certificate is proven for the reduced "
                "fluid model, not the packet emulator"
            )
        points = list(shard_points(grid, shard_index, shard_count))
        store = resolve_store(store)
        # An explicit ``executor`` wins, with ``workers`` filling its pool
        # size when the policy leaves it unset.
        policy = executor if executor is not None else ExecutorPolicy(workers=workers)
        if policy.workers is None and workers is not None:
            policy = replace(policy, workers=workers)
        results, exec_failures = _campaign_points(
            grid, points, store, policy, retry_failed, prune_analytic
        )

    failures = [
        CampaignFailure(**f.task.coords(), error=f.error, attempts=f.attempts)
        for f in exec_failures
    ]
    if failures and policy.on_failure == "raise":
        first = failures[0]
        raise SweepPointError(
            first.mix, first.buffer_bdp, first.discipline, first.seed, error=first.error
        )
    replicas = [results[p] for p in points if p in results]
    if grid.seeds is None:
        return CampaignResult(points=replicas, failures=failures, replicas=replicas)
    groups: dict[tuple, list[PointSpec]] = {}
    for point in points:
        if point in results:
            groups.setdefault((point.discipline, point.mix, point.buffer_bdp), []).append(point)
    summaries = [
        SummaryPoint(
            mix=mix,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            substrate=grid.substrate,
            summary=summarize_metrics([results[p].metrics for p in members]),
            seeds=tuple(p.seed for p in members),
        )
        for (discipline, mix, buffer_bdp), members in groups.items()
    ]
    return CampaignResult(points=summaries, failures=failures, replicas=replicas)


def _campaign_points(
    grid: GridSpec,
    points: list[PointSpec],
    store: SweepStore | None,
    policy: ExecutorPolicy,
    retry_failed: bool,
    prune_analytic: bool,
) -> tuple[dict[PointSpec, SweepPoint], list[PointFailure]]:
    """Serve, compute and persist ``points``; the body of :func:`run_campaign`."""
    results: dict[PointSpec, SweepPoint] = {}
    pending: list[PointSpec] = []
    pending_keys: set[str] = set()
    duplicates: list[PointSpec] = []
    for point in points:
        key = point.key
        if key in _CACHE:
            results[point] = _CACHE[key]
        elif key in pending_keys:
            # Same key as an already-pending point (fluid seed replicas
            # alias deliberately): compute once, share the result.
            duplicates.append(point)
        else:
            metrics = store.get(key) if store is not None else None
            if metrics is not None:
                results[point] = _CACHE[key] = SweepPoint.of(point, metrics)
            else:
                pending.append(point)
                pending_keys.add(key)

    alias_of: dict[PointSpec, PointSpec] = {}
    if prune_analytic and pending:
        pending, alias_of = _prune(grid, pending, results)

    def persist(point: PointSpec, result: SweepPoint, extra_meta: dict | None = None) -> None:
        """Land one computed point: in-process cache + persistent store."""
        results[point] = _CACHE[point.key] = result
        if store is not None:
            meta = point.meta()
            if result.analysis is not None:
                meta["analysis"] = result.analysis
            if extra_meta:
                meta.update(extra_meta)
            store.put(point.key, result.metrics, meta=meta, runtime=result.runtime)

    exec_failures: list[PointFailure] = []

    # ``retry_failed=False`` resume semantics: points whose last attempt is
    # recorded as a *failure* row are reported again without recomputation,
    # so a warm re-run after a partial campaign recomputes nothing.
    if store is not None and not retry_failed and pending:
        recorded = {rec["key"]: rec for rec in store.failures()}
        fresh: list[PointSpec] = []
        for point in pending:
            record = recorded.get(point.key)
            if record is None:
                fresh.append(point)
            else:
                error = str(record.get("error") or "recorded failure")
                exec_failures.append(PointFailure(task=point, error=error, attempts=0))
        pending = fresh

    def execute(batch: list[PointSpec]) -> None:
        report = ResilientExecutor(policy).run(
            batch, compute_point, _compute_args, on_result=persist, describe=_describe
        )
        exec_failures.extend(report.failures)

    if pending and grid.substrate == "fluid" and not policy.pooled:
        # Batched path: stack each chunk into one lockstep integration (the
        # big single-core win).  A chunk that fails falls back to per-point
        # execution under the executor policy, which isolates and reports
        # the offending point(s) without discarding the healthy ones.
        for start in range(0, len(pending), BATCH_CHUNK):
            chunk = pending[start : start + BATCH_CHUNK]
            try:
                with RuntimeCapture() as capture:
                    traces = simulate_many([point.config() for point in chunk])
            except Exception:
                execute(chunk)
                continue
            # Lockstep chunks share one integration, so the measured cost
            # is amortised evenly over the chunk's points (``shared=``).
            chunk_runtime = capture.block(
                {"steps": int(round(grid.duration_s / grid.dt)) + 1, "lockstep": len(chunk)},
                shared=len(chunk),
            )
            for point, point_trace in zip(chunk, traces, strict=True):
                metrics = aggregate_metrics(point_trace)
                persist(point, SweepPoint.of(point, metrics, runtime=chunk_runtime))
    elif pending:
        # Pooled, or serial inline (retries, timeouts and skip semantics
        # still apply; no pool is spawned).
        execute(pending)

    # Materialise pruned aliases from their primaries: same metrics with
    # the occupancy column rescaled to the alias's own buffer, persisted
    # with a ``pruned`` meta block recording the aliasing.  A primary that
    # failed leaves its aliases uncomputed (and unrecorded) this run.
    for point, primary in alias_of.items():
        source = results.get(primary)
        if source is None:
            continue
        occupancy = source.metrics.buffer_occupancy_percent
        if math.isinf(point.buffer_bdp):
            occupancy = 0.0
        elif not math.isnan(occupancy):
            occupancy = min(100.0, occupancy * (primary.buffer_bdp / point.buffer_bdp))
        TELEMETRY.count("sweep.pruned_points")
        metrics = replace(source.metrics, buffer_occupancy_percent=occupancy)
        persist(
            point,
            SweepPoint.of(point, metrics, analysis=source.analysis),
            extra_meta={
                "pruned": {
                    "aliased_to": primary.key,
                    "primary_buffer_bdp": primary.buffer_bdp,
                    "reason": (
                        "buffer never binds: inflight is provably below every "
                        "buffer in the group, so the trajectory is identical "
                        "up to occupancy normalisation"
                    ),
                }
            },
        )

    for point in duplicates:
        # A duplicate's primary may itself have failed; it then simply has
        # no result to share.
        if point.key in _CACHE:
            results[point] = _CACHE[point.key]

    if store is not None:
        for failure in exec_failures:
            # Freshly attempted failures are recorded (axis combo + error)
            # so warm re-runs can skip them; attempts == 0 means the row is
            # already in the store (served by retry_failed=False above).
            if failure.attempts > 0:
                store.put_failure(failure.task.key, failure.error, meta=failure.task.meta())
    return results, exec_failures


def _prune(
    grid: GridSpec,
    pending: list[PointSpec],
    results: dict[PointSpec, SweepPoint],
) -> tuple[list[PointSpec], dict[PointSpec, PointSpec]]:
    """Analytic pre-pass pruner: ``(points still to compute, alias -> primary)``.

    Groups the pending points whose buffer provably never binds (see
    :func:`repro.analysis.buffer_never_binds`).  Within a group the
    trajectory — and hence every metric except the occupancy normalisation
    — is independent of the buffer size, so one member (the *primary*) is
    computed and the rest become aliases of it.
    """
    from .. import analysis as _analysis

    def certificate(point: PointSpec) -> str | None:
        config = point.config()
        if not _analysis.buffer_never_binds(config):
            return None
        # All group members share the scenario up to the buffer size; key
        # the group by the buffer-free scenario.
        return grid.key_of(config.with_buffer(float("inf")))

    certified: dict[str, list[PointSpec]] = {}
    kept: list[PointSpec] = []
    for point in pending:
        signature = certificate(point)
        if signature is None:
            kept.append(point)
        else:
            certified.setdefault(signature, []).append(point)
    # A point already resolved (cache/store) with the same certificate can
    # serve as the group's primary without computing anything.
    # (Infinite-buffer rows are excluded: their occupancy column cannot be
    # rescaled onto a finite alias.)
    resolved: dict[str, PointSpec] = {}
    for point in results:
        if math.isinf(point.buffer_bdp):
            continue
        signature = certificate(point)
        if signature is not None and signature not in resolved:
            resolved[signature] = point
    alias_of: dict[PointSpec, PointSpec] = {}
    for signature, group in certified.items():
        primary = resolved.get(signature)
        if primary is None:
            # Prefer the smallest finite buffer: its occupancy column
            # rescales to every larger alias without extrapolation.
            primary = min(group, key=lambda p: (math.isinf(p.buffer_bdp), p.buffer_bdp))
            kept.append(primary)
        for point in group:
            if point != primary:
                alias_of[point] = primary
    return kept, alias_of


def series(
    points: Iterable[SweepPoint | SummaryPoint], metric: str, mix: str, discipline: str
) -> list[tuple[float, float]]:
    """Extract one figure line: (buffer, metric value) for a mix and discipline.

    :class:`SummaryPoint` rows contribute their per-seed mean.
    """
    rows = [
        (p.buffer_bdp, float(p.metrics.as_dict()[metric]))
        for p in points
        if p.mix == mix and p.discipline == discipline
    ]
    return sorted(rows)


def series_ci(
    points: Iterable[SummaryPoint], metric: str, mix: str, discipline: str
) -> list[tuple[float, float, float]]:
    """Extract one mean ± CI figure line: (buffer, mean, ci95 half-width)."""
    rows = []
    for p in points:
        if p.mix != mix or p.discipline != discipline:
            continue
        if isinstance(p, SummaryPoint):
            rows.append(
                (
                    p.buffer_bdp,
                    float(p.summary.mean.as_dict()[metric]),
                    float(p.summary.ci95.as_dict()[metric]),
                )
            )
        else:
            rows.append((p.buffer_bdp, float(p.metrics.as_dict()[metric]), 0.0))
    return sorted(rows)
