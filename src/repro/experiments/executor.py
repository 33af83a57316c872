"""Resilient execution of campaign grids: retry, timeout, crash isolation.

The sweep engine used to inline a :class:`~concurrent.futures.ProcessPoolExecutor`
that died with the first worker failure after draining.  This module owns
that machinery as a :class:`ResilientExecutor` driven by a declarative
:class:`ExecutorPolicy`:

* **per-point retry with backoff** — a failing point is retried up to
  ``retries`` times, with ``backoff_s * 2**(attempt-1)`` sleeps between
  rounds;
* **per-point timeout** — enforced *inside* the worker via ``SIGALRM``
  (so a runaway integration is actually interrupted, not just abandoned),
  surfacing as a retryable :class:`PointTimeout`;
* **skip-on-worker-crash** — a worker process that dies (segfault,
  ``os._exit``, OOM kill) breaks the whole pool, implicating every
  in-flight task.  Submission is windowed (at most ``workers`` outstanding
  futures), so at most ``workers`` tasks are implicated; those are re-run
  one at a time in single-worker pools, which pins the crash on the
  guilty task without charging innocent cohabitants an attempt.  With
  ``on_failure="skip"`` the executor completes the rest of the grid and
  reports the failures; with ``"raise"`` (the legacy contract) it still
  drains every task — persisting completed work — before the caller
  re-raises the first failure;
* **heartbeat progress logging** — a daemon thread snapshots a structured
  :class:`ProgressEvent` (done/failed/total plus retries, timeouts, worker
  crashes, in-flight window and queue depth) every ``heartbeat_s`` seconds,
  renders it through the shared :mod:`repro.obs.log` logger, and mirrors
  the counters into :data:`repro.obs.TELEMETRY` (``exec.*`` labels).

The executor is deliberately generic: it runs ``call(*args, **kwargs)``
per task and reports an :class:`ExecutionReport`; the sweep layer maps
tasks to grid coordinates, persists results as they land via the
``on_result`` callback, and records failures as structured store rows.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from ..obs import TELEMETRY
from ..obs import log as obs_log

ON_FAILURE_MODES = ("raise", "skip")


class PointTimeout(RuntimeError):
    """A point exceeded the policy's per-point timeout (retryable)."""


class WorkerCrash(RuntimeError):
    """A worker process died while computing a point (retryable)."""


@dataclasses.dataclass(frozen=True)
class ExecutorPolicy:
    """Declarative execution policy of a campaign run.

    ``workers=None``/``1`` runs points serially in-process (a crashing
    point then takes the campaign with it — only a process pool can
    survive hard crashes).  ``on_failure="raise"`` preserves the legacy
    contract (drain everything, then the caller raises on the first
    failure); ``"skip"`` completes the grid and reports failures so the
    campaign can exit nonzero *after* finishing everything computable.
    """

    workers: int | None = None
    retries: int = 0
    backoff_s: float = 0.5
    timeout_s: float | None = None
    on_failure: str = "raise"
    heartbeat_s: float | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1 (or None for serial)")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.on_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_MODES}, got {self.on_failure!r}"
            )
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive (or None)")

    @property
    def pooled(self) -> bool:
        """Whether points run in a process pool (workers > 1)."""
        return self.workers is not None and self.workers > 1


@dataclasses.dataclass(frozen=True)
class PointFailure:
    """One task the executor gave up on after exhausting its retries."""

    task: Any
    error: str
    attempts: int


@dataclasses.dataclass
class ExecutionReport:
    """Outcome of one :meth:`ResilientExecutor.run`."""

    results: dict[Hashable, Any] = dataclasses.field(default_factory=dict)
    failures: list[PointFailure] = dataclasses.field(default_factory=list)
    attempts: dict[Hashable, int] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def call_with_timeout(
    timeout_s: float | None,
    call: Callable[..., Any],
    args: tuple,
    kwargs: dict[str, Any],
) -> Any:
    """Run ``call`` under a ``SIGALRM`` deadline (worker-side enforcement).

    Module-level so process pools can pickle it.  Platforms without
    ``SIGALRM`` (and non-main threads) fall back to running untimed — the
    executor then still retries on real failures, it just cannot interrupt
    a hang.
    """
    if (
        timeout_s is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return call(*args, **kwargs)

    def _expired(signum: int, frame: Any) -> None:
        raise PointTimeout(f"point exceeded the per-point timeout of {timeout_s:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return call(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclasses.dataclass(frozen=True)
class ProgressEvent:
    """Structured snapshot of a running grid — the heartbeat's payload.

    The legacy one-line heartbeat text is now a pure rendering of this
    event (:meth:`render`), so any consumer — the stderr logger, the
    telemetry span log, a future TUI — sees the same numbers.
    """

    done: int
    failed: int
    total: int
    elapsed_s: float
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    inflight: int = 0
    queued: int = 0

    def render(self) -> str:
        text = (
            f"campaign heartbeat: {self.done}/{self.total} points done"
            f" ({self.failed} failed), {self.elapsed_s:.0f}s elapsed"
        )
        extras = []
        if self.inflight:
            extras.append(f"{self.inflight} in flight")
        if self.queued:
            extras.append(f"{self.queued} queued")
        if self.retries:
            extras.append(f"{self.retries} retries")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.crashes:
            extras.append(f"{self.crashes} worker crashes")
        if extras:
            text += ", " + ", ".join(extras)
        return text


class _Heartbeat:
    """Progress bookkeeping plus a daemon thread that reports it.

    All executor paths (serial, pooled, isolation re-runs) feed the same
    counters; the beat thread snapshots them as a :class:`ProgressEvent`,
    logs its rendering, writes the event to the telemetry span log when
    tracing, and mirrors the counts into ``exec.*`` telemetry labels.
    """

    def __init__(
        self,
        interval_s: float | None,
        total: int,
        log: Callable[[str], None],
    ) -> None:
        self._interval_s = interval_s
        self._total = total
        self._log = log
        self._done = 0
        self._failed = 0
        self._retries = 0
        self._timeouts = 0
        self._crashes = 0
        self._inflight = 0
        self._queued = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at = time.monotonic()

    def __enter__(self) -> _Heartbeat:
        if self._interval_s is not None:
            self._thread = threading.Thread(target=self._beat, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self._publish_telemetry()

    def advance(self, failed: bool = False) -> None:
        with self._lock:
            self._done += 1
            if failed:
                self._failed += 1

    def note_retry(self) -> None:
        with self._lock:
            self._retries += 1
        TELEMETRY.count("exec.retries")

    def note_timeout(self) -> None:
        with self._lock:
            self._timeouts += 1
        TELEMETRY.count("exec.timeouts")

    def note_crash(self) -> None:
        with self._lock:
            self._crashes += 1
        TELEMETRY.count("exec.worker_crashes")

    def set_window(self, inflight: int, queued: int) -> None:
        """Record the pooled submission window (in-flight futures, queue depth)."""
        with self._lock:
            self._inflight = inflight
            self._queued = queued
        TELEMETRY.gauge("exec.inflight", inflight)
        TELEMETRY.gauge("exec.queue_depth", queued)

    def snapshot(self) -> ProgressEvent:
        with self._lock:
            return ProgressEvent(
                done=self._done,
                failed=self._failed,
                total=self._total,
                elapsed_s=time.monotonic() - self._started_at,
                retries=self._retries,
                timeouts=self._timeouts,
                crashes=self._crashes,
                inflight=self._inflight,
                queued=self._queued,
            )

    def _publish_telemetry(self) -> None:
        if not TELEMETRY.enabled:
            return
        event = self.snapshot()
        TELEMETRY.count("exec.points_done", event.done)
        TELEMETRY.count("exec.points_failed", event.failed)
        if TELEMETRY.trace_path is not None:
            TELEMETRY.write_event(
                {"ev": "progress", "final": True, **dataclasses.asdict(event)}
            )

    def _beat(self) -> None:
        while not self._stop.wait(self._interval_s):
            event = self.snapshot()
            self._log(event.render())
            if TELEMETRY.enabled and TELEMETRY.trace_path is not None:
                TELEMETRY.write_event({"ev": "progress", **dataclasses.asdict(event)})


def _default_log(message: str) -> None:
    obs_log.info("executor.progress", message)


class ResilientExecutor:
    """Runs a task grid to completion under an :class:`ExecutorPolicy`."""

    def __init__(
        self,
        policy: ExecutorPolicy | None = None,
        log: Callable[[str], None] = _default_log,
    ) -> None:
        self.policy = policy if policy is not None else ExecutorPolicy()
        self._log = log

    def run(
        self,
        tasks: Sequence[Hashable],
        call: Callable[..., Any],
        task_args: Callable[[Any], tuple[tuple, dict[str, Any]]],
        on_result: Callable[[Any, Any], None] | None = None,
        describe: Callable[[Any], str] = repr,
    ) -> ExecutionReport:
        """Execute every task, retrying per policy; never loses a result.

        ``call`` must be a module-level callable (process pools pickle it);
        ``task_args`` maps a task to its ``(args, kwargs)``.  ``on_result``
        fires in the parent as each point lands — the sweep layer persists
        results there, so completed work survives any later failure.
        """
        policy = self.policy
        report = ExecutionReport(attempts=dict.fromkeys(tasks, 0))
        pending: list[Any] = list(tasks)
        round_index = 0
        with _Heartbeat(policy.heartbeat_s, len(tasks), self._log) as heartbeat:
            while pending:
                if round_index > 0:
                    delay = policy.backoff_s * (2 ** (round_index - 1))
                    if delay > 0:
                        time.sleep(delay)
                failed_round: list[tuple[Any, BaseException]] = []

                def landed(task: Any, result: Any) -> None:
                    report.results[task] = result
                    heartbeat.advance()
                    if on_result is not None:
                        on_result(task, result)

                deferred: list[Any] = []
                if policy.pooled:
                    crashed, deferred = self._run_pooled(
                        pending, call, task_args, landed, failed_round, report,
                        heartbeat,
                    )
                    # Workers that died broke the whole pool; re-run the
                    # implicated window one task per single-worker pool to
                    # pin the crash on the guilty task.
                    if crashed:
                        self._log(
                            f"worker pool died; re-running {len(crashed)} "
                            "implicated point(s) in isolation"
                        )
                    for task in crashed:
                        self._run_isolated(
                            task, call, task_args, landed, failed_round, report,
                            heartbeat,
                        )
                else:
                    for task in pending:
                        report.attempts[task] += 1
                        args, kwargs = task_args(task)
                        try:
                            result = call_with_timeout(
                                policy.timeout_s, call, args, kwargs
                            )
                        except Exception as exc:
                            failed_round.append((task, exc))
                            continue
                        landed(task, result)

                # Tasks the broken pool never started are re-run next
                # round at no attempt cost.
                pending = deferred
                for task, exc in failed_round:
                    if isinstance(exc, PointTimeout):
                        heartbeat.note_timeout()
                    if report.attempts[task] <= policy.retries:
                        heartbeat.note_retry()
                        self._log(
                            f"point {describe(task)} failed "
                            f"(attempt {report.attempts[task]}/"
                            f"{policy.retries + 1}): {exc}; retrying"
                        )
                        pending.append(task)
                    else:
                        heartbeat.advance(failed=True)
                        report.failures.append(
                            PointFailure(
                                task=task,
                                error=f"{type(exc).__name__}: {exc}",
                                attempts=report.attempts[task],
                            )
                        )
                        self._log(
                            f"point {describe(task)} failed permanently "
                            f"after {report.attempts[task]} attempt(s): {exc}"
                        )
                round_index += 1
        return report

    def _run_pooled(
        self,
        tasks: Sequence[Any],
        call: Callable[..., Any],
        task_args: Callable[[Any], tuple[tuple, dict[str, Any]]],
        landed: Callable[[Any, Any], None],
        failed_round: list[tuple[Any, BaseException]],
        report: ExecutionReport,
        heartbeat: _Heartbeat,
    ) -> tuple[list[Any], list[Any]]:
        """One pool round with windowed submission.

        At most ``workers`` futures are outstanding, so a dying worker
        (which breaks the pool and fails *every* outstanding future with
        :class:`BrokenProcessPool`) implicates a bounded window.  Returns
        ``(crashed, deferred)``: the implicated window goes to isolation
        rather than being charged an attempt, and tasks the broken pool
        never started are deferred to the next round at no cost.
        """
        policy = self.policy
        queue = list(tasks)
        crashed: list[Any] = []
        pool = ProcessPoolExecutor(max_workers=policy.workers)
        broken = False
        try:
            futures: dict[Future, Any] = {}

            def submit_next() -> None:
                task = queue.pop(0)
                args, kwargs = task_args(task)
                report.attempts[task] += 1
                futures[
                    pool.submit(call_with_timeout, policy.timeout_s, call, args, kwargs)
                ] = task

            while queue and len(futures) < (policy.workers or 1):
                submit_next()
            while futures:
                heartbeat.set_window(len(futures), len(queue))
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    task = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        # Not necessarily this task's fault: re-judge it
                        # in isolation without charging the attempt.
                        report.attempts[task] -= 1
                        crashed.append(task)
                        continue
                    except Exception as exc:
                        failed_round.append((task, exc))
                        continue
                    landed(task, result)
                while queue and not broken and len(futures) < (policy.workers or 1):
                    submit_next()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        heartbeat.set_window(0, len(queue))
        return crashed, queue

    def _run_isolated(
        self,
        task: Any,
        call: Callable[..., Any],
        task_args: Callable[[Any], tuple[tuple, dict[str, Any]]],
        landed: Callable[[Any, Any], None],
        failed_round: list[tuple[Any, BaseException]],
        report: ExecutionReport,
        heartbeat: _Heartbeat,
    ) -> None:
        """Re-run one crash-implicated task alone in a 1-worker pool."""
        args, kwargs = task_args(task)
        report.attempts[task] += 1
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                call_with_timeout, self.policy.timeout_s, call, args, kwargs
            )
            try:
                result = future.result()
            except BrokenProcessPool:
                heartbeat.note_crash()
                failed_round.append(
                    (task, WorkerCrash("worker process died computing this point"))
                )
                return
            except Exception as exc:
                failed_round.append((task, exc))
                return
        landed(task, result)
