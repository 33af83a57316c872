"""Campaign engine for the aggregate-validation figures (Figs. 6-10, 13-17).

A campaign runs every point of a :class:`~repro.experiments.grid.GridSpec`
— CCA mix x buffer size x queue discipline x seed — on one substrate
("fluid", "emulation" or "analytic"), computes the aggregate metrics of
:mod:`repro.metrics.aggregate`, and returns tidy rows.  Because the five
aggregate figures of the paper all derive from the *same* runs, they share
them through one persistent :class:`~repro.experiments.store.SweepStore`
(``store=`` argument, ``--store PATH`` flag or ``REPRO_STORE`` env var),
keyed by ``scenario_key`` (the point's content-addressed key): every point
is persisted the moment it completes, so a later campaign — in this
process or another, interrupted or not — is served the finished points
instead of recomputing them.  Without a store nothing is reused between
calls; within one call, points that share a key (fluid seed replicas,
hop-discipline aliases) are computed once.

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

The grid is embarrassingly parallel.  Every point the store does not serve
is computed inside a *chunk* (a tuple of points, see :func:`compute_chunk`),
run by a :class:`~repro.experiments.executor.ResilientExecutor`; only a
plain serial fluid grid (no retries, timeout or heartbeat) runs its chunks
inline.
Fluid chunks integrate in lockstep through
:func:`repro.core.simulator.simulate_many`, which stacks independent
scenarios into one batched system (the big single-core win), and analytic
chunks through :func:`repro.analysis.analyze_scenarios`, which integrates
their numerical points in one batched loop; a policy with ``workers=N``
splits the grid into about N chunks so each pool worker keeps that
batching.  Emulation chunks hold one point.  Results are persisted as they
land; a chunk that fails for good is split and re-run
point by point, so failures are reported as
:class:`CampaignFailure` rows or re-raised as :class:`SweepPointError`
naming the failing (mix, buffer, discipline, seed) combination.  The CLI
exposes all of this as ``repro-bbr campaign`` with ``--workers N``,
``--seeds K`` and ``--store PATH``.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .. import analysis
from ..core.simulator import simulate_many
from ..emulation.runner import EmulationRunner
from ..metrics.aggregate import (
    AggregateMetrics,
    MetricsSummary,
    aggregate_metrics,
    summarize_metrics,
)
from ..obs import TELEMETRY, RuntimeCapture
from .executor import ExecutorPolicy, PointFailure, ResilientExecutor
from .grid import (  # noqa: F401 -- the enumeration stays importable as sweep.*
    GridSpec,
    PointSpec,
    SweepPointError,
    distinct_points,
    grid_point_keys,
    shard_points,
    validate_shard,
)
from .store import SweepStore, resolve_store

#: Upper bound on how many scenarios are stacked into one batched
#: integration (bounds the working-set memory of the recording buffers).
BATCH_CHUNK = 64


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
    #: point was served from the store.  Excluded from equality so
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

    def labelled(self, point: PointSpec) -> SweepPoint:
        """This result served for ``point`` (e.g. a seed replica sharing its
        key): same metrics, runtime and analysis, ``point``'s coordinates."""
        served = SweepPoint.of(point, self.metrics, self.runtime, self.analysis)
        return self if served == self else served

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


def compute_chunk(chunk: tuple[PointSpec, ...]) -> list[SweepPoint]:
    """Compute one chunk of grid points from scratch (no store).

    The campaign's only unit of work: module-level so process pools can
    pickle it, and free of store side effects so the parent owns every
    write.  A fluid chunk is integrated in lockstep through
    :func:`~repro.core.simulator.simulate_many` and an analytic chunk is
    one :func:`~repro.analysis.analyze_scenarios` call; either way the
    measured cost is amortised evenly over its points (``shared=``).  An
    emulation chunk holds exactly one point.
    """
    grid = chunk[0].grid
    configs = [point.config() for point in chunk]
    if grid.substrate == "fluid":
        with RuntimeCapture() as rt:
            traces = simulate_many(configs)
        runtime = rt.block(
            {"steps": int(round(grid.duration_s / grid.dt)) + 1, "lockstep": len(chunk)},
            shared=len(chunk),
        )
        return [
            SweepPoint.of(point, aggregate_metrics(trace), runtime=runtime)
            for point, trace in zip(chunk, traces, strict=True)
        ]
    if grid.substrate == "analytic":
        with RuntimeCapture() as rt:
            predictions = analysis.analyze_scenarios(configs)
        return [
            SweepPoint.of(
                point,
                prediction.metrics(),
                runtime=rt.block(
                    {"flows": config.num_flows, "lockstep": len(chunk)}, shared=len(chunk)
                ),
                analysis=prediction.as_meta(),
            )
            for point, config, prediction in zip(chunk, configs, predictions, strict=True)
        ]
    (config,) = configs
    with RuntimeCapture() as rt:
        runner = EmulationRunner(config)
        metrics = aggregate_metrics(runner.run())
    return [SweepPoint.of(chunk[0], metrics, runtime=rt.block(runner.runtime_counters()))]


def _describe(chunk: tuple[PointSpec, ...]) -> str:
    point = chunk[0]
    text = (
        f"mix={point.mix!r}, buffer_bdp={point.buffer_bdp}, "
        f"discipline={point.discipline!r}, seed={point.seed}"
    )
    return text if len(chunk) == 1 else f"lockstep chunk of {len(chunk)} from ({text})"


def run_campaign(
    grid: GridSpec,
    *,
    store: SweepStore | str | bool | None = None,
    executor: ExecutorPolicy | None = None,
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

    Execution runs one :func:`compute_chunk` task per chunk of unserved
    points: fluid and analytic points form batched chunks of
    ``min(BATCH_CHUNK, ceil(pending / workers))``, emulation points one
    point per chunk, and ``ExecutorPolicy(workers=N)`` (N > 1) runs the
    chunks in a process pool.  ``executor`` supplies the full policy (pool
    size, retries per task with backoff, a per-point timeout that a chunk
    gets once per point it holds, heartbeat logging, ``on_failure``;
    default: serial, one attempt, raise).  The tasks go through a
    :class:`~repro.experiments.executor.ResilientExecutor`, except on a
    plain serial fluid grid (one attempt, no timeout, no heartbeat), whose
    chunks run inline.  A chunk that fails for good (inline: that raises)
    is split and its points re-run alone through the executor under the
    same policy.  Under
    ``on_failure="raise"`` a point that exhausts its retries raises
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
        policy = executor if executor is not None else ExecutorPolicy()
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
    # Points sharing a key (fluid seed replicas alias deliberately) are
    # served or computed once, through the first of them.
    firsts: dict[str, PointSpec] = {}
    for point in points:
        firsts.setdefault(point.key, point)
    pending: list[PointSpec] = []
    for key, point in firsts.items():
        metrics = store.get(key) if store is not None else None
        if metrics is None:
            pending.append(point)
        else:
            results[point] = SweepPoint.of(point, metrics)

    alias_of: dict[PointSpec, PointSpec] = {}
    if prune_analytic and pending:
        pending, alias_of = _prune(grid, pending, results)

    def persist(point: PointSpec, result: SweepPoint, extra_meta: dict | None = None) -> None:
        """Land one computed point: this call's results + the store."""
        results[point] = result
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

    def landed(chunk: tuple[PointSpec, ...], chunk_results: list[SweepPoint]) -> None:
        for point, result in zip(chunk, chunk_results, strict=True):
            persist(point, result)

    def execute(chunks: list[tuple[PointSpec, ...]]) -> list[PointFailure]:
        # ``timeout_s`` is a per-point budget: a chunk gets it once per point.
        chunk_policy = policy
        if policy.timeout_s is not None:
            width = max(len(chunk) for chunk in chunks)
            chunk_policy = replace(policy, timeout_s=policy.timeout_s * width)
        report = ResilientExecutor(chunk_policy).run(
            chunks, compute_chunk, on_result=landed, describe=_describe
        )
        return report.failures

    if pending:
        # Fluid and analytic points share batched chunks, spread evenly over
        # the pool's workers; emulation runs one point per chunk.
        width = 1
        if grid.substrate != "emulation":
            width = min(BATCH_CHUNK, math.ceil(len(pending) / (policy.workers or 1)))
        chunks = [tuple(pending[i : i + width]) for i in range(0, len(pending), width)]
        failed: list[tuple[PointSpec, ...]] = []
        if grid.substrate == "fluid" and not (
            policy.pooled or policy.retries or policy.timeout_s or policy.heartbeat_s
        ):
            # A plain serial fluid grid gives the executor nothing to
            # enforce, so its chunks run inline (perfbench's self-test pins
            # ``executor.tasks == 0`` here).  A chunk that raises is handed
            # to the executor point by point below, which records the
            # failure rows.
            for chunk in chunks:
                try:
                    chunk_results = compute_chunk(chunk)
                except Exception:
                    failed.append(chunk)
                    continue
                landed(chunk, chunk_results)
        else:
            for failure in execute(chunks):
                if len(failure.task) == 1:
                    exec_failures.append(replace(failure, task=failure.task[0]))
                else:
                    failed.append(failure.task)
        # A chunk that failed for good is split: its points re-run alone
        # under the same policy, which persists the healthy ones and pins
        # every failure on a single point.
        split = [(point,) for chunk in failed for point in chunk]
        if split:
            exec_failures.extend(replace(f, task=f.task[0]) for f in execute(split))

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

    for point in points:
        # A duplicate's first point may itself have failed; it then simply
        # has no result to share.
        first = firsts[point.key]
        if point is not first and first in results:
            results[point] = results[first].labelled(point)

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
    def certificate(point: PointSpec) -> str | None:
        config = point.config()
        if not analysis.buffer_never_binds(config):
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
    # A point already resolved (served by the store) with the same certificate can
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
