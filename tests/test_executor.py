"""Tests of the resilient campaign executor."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.experiments.executor import (
    ExecutorPolicy,
    PointFailure,
    PointTimeout,
    ResilientExecutor,
    WorkerCrash,
    call_with_timeout,
)

# Module-level callables so pool workers can pickle them.


def _double(x: int) -> int:
    return 2 * x


def _fail_on_odd(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd input {x}")
    return 2 * x


def _die_on_three(x: int) -> int:
    if x == 3:
        os._exit(17)  # simulate a hard worker crash (segfault/OOM-kill)
    return 2 * x


def _sleep_long(x: int) -> int:  # pragma: no cover - killed by timeout
    time.sleep(60)
    return x


class TestPolicyValidation:
    def test_defaults_are_serial(self):
        policy = ExecutorPolicy()
        assert not policy.pooled
        assert policy.on_failure == "raise"

    def test_pooled_requires_more_than_one_worker(self):
        assert not ExecutorPolicy(workers=1).pooled
        assert ExecutorPolicy(workers=2).pooled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(workers=0),
            dict(retries=-1),
            dict(backoff_s=-0.1),
            dict(timeout_s=0),
            dict(heartbeat_s=0),
            dict(on_failure="explode"),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorPolicy(**kwargs)


class TestSerialExecution:
    def test_all_results_collected(self):
        executor = ResilientExecutor(ExecutorPolicy(), log=lambda _msg: None)
        report = executor.run([1, 2, 3], _double)
        assert report.ok
        assert report.results == {1: 2, 2: 4, 3: 6}
        assert report.failures == []
        assert all(report.attempts[t] == 1 for t in (1, 2, 3))

    def test_failures_recorded_not_raised(self):
        executor = ResilientExecutor(ExecutorPolicy(), log=lambda _msg: None)
        report = executor.run([1, 2, 3, 4], _fail_on_odd)
        assert not report.ok
        assert report.results == {2: 4, 4: 8}
        failed = {f.task: f for f in report.failures}
        assert set(failed) == {1, 3}
        assert "ValueError: odd input 1" in failed[1].error
        assert isinstance(failed[1], PointFailure)

    def test_retries_and_attempt_counting(self):
        attempts: dict[int, int] = {}

        def flaky(x: int) -> int:
            attempts[x] = attempts.get(x, 0) + 1
            if attempts[x] < 3:
                raise RuntimeError("transient")
            return x

        policy = ExecutorPolicy(retries=2, backoff_s=0.0)
        report = ResilientExecutor(policy, log=lambda _msg: None).run(
            [7], flaky
        )
        assert report.ok
        assert report.results == {7: 7}
        assert report.attempts[7] == 3

    def test_retries_exhausted(self):
        policy = ExecutorPolicy(retries=1, backoff_s=0.0)
        report = ResilientExecutor(policy, log=lambda _msg: None).run(
            [1], _fail_on_odd
        )
        assert not report.ok
        assert report.failures[0].attempts == 2

    def test_on_result_callback_fires_per_point(self):
        seen: list[tuple[int, int]] = []
        executor = ResilientExecutor(ExecutorPolicy(), log=lambda _msg: None)
        executor.run([1, 2], _double, on_result=lambda t, r: seen.append((t, r)))
        assert sorted(seen) == [(1, 2), (2, 4)]


class TestTimeouts:
    def test_call_with_timeout_passthrough(self):
        assert call_with_timeout(None, _double, 21) == 42
        assert call_with_timeout(5.0, _double, 21) == 42

    def test_call_with_timeout_raises(self):
        with pytest.raises(PointTimeout):
            call_with_timeout(0.2, time.sleep, 5)

    def test_previous_alarm_handler_restored(self):
        previous = signal.getsignal(signal.SIGALRM)
        call_with_timeout(1.0, _double, 1)
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_serial_timeout_becomes_failure(self):
        policy = ExecutorPolicy(timeout_s=0.2, backoff_s=0.0)
        report = ResilientExecutor(policy, log=lambda _msg: None).run(
            [1], _sleep_long
        )
        assert not report.ok
        assert "PointTimeout" in report.failures[0].error

    def test_pooled_timeout_becomes_failure(self):
        policy = ExecutorPolicy(workers=2, timeout_s=0.3, backoff_s=0.0)
        report = ResilientExecutor(policy, log=lambda _msg: None).run(
            [1, 2], _sleep_long
        )
        assert not report.ok
        assert len(report.failures) == 2
        assert all("PointTimeout" in f.error for f in report.failures)


class TestWorkerCrash:
    def test_crash_is_isolated_and_innocents_complete(self):
        policy = ExecutorPolicy(workers=2, backoff_s=0.0)
        messages: list[str] = []
        report = ResilientExecutor(policy, log=messages.append).run(
            [1, 2, 3, 4, 5], _die_on_three
        )
        assert not report.ok
        assert report.results == {1: 2, 2: 4, 4: 8, 5: 10}
        assert [f.task for f in report.failures] == [3]
        assert "WorkerCrash" in report.failures[0].error
        # Innocent points implicated by the pool collapse are re-run at no
        # attempt cost; only the guilty task is charged.
        assert all(report.attempts[t] == 1 for t in (1, 2, 4, 5))
        assert any("worker pool died" in m for m in messages)

    def test_crash_failure_is_worker_crash_error(self):
        policy = ExecutorPolicy(workers=2, backoff_s=0.0)
        report = ResilientExecutor(policy, log=lambda _msg: None).run(
            [3], _die_on_three
        )
        assert not report.ok
        assert "worker process died" in report.failures[0].error
        assert WorkerCrash.__name__ in report.failures[0].error


class TestHeartbeat:
    def test_heartbeat_logs_progress(self):
        messages: list[str] = []
        policy = ExecutorPolicy(heartbeat_s=0.05)

        def slowish(x: int) -> int:
            time.sleep(0.1)
            return x

        report = ResilientExecutor(policy, log=messages.append).run(
            [1, 2, 3], slowish
        )
        assert report.ok
        beats = [m for m in messages if "campaign heartbeat" in m]
        assert beats, messages
        assert any("/3 points" in m for m in beats)
