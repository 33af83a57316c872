"""Multi-process campaign stress tests: worker crashes, resume, all backends.

These are the service-grade guarantees of the campaign layer: a 4-worker
pool sharing one store survives a hard worker crash mid-grid, completes
the rest of the grid, records the failed point, loses no records, and a
warm re-run recomputes nothing it already has — on every store backend.

The pool uses the ``fork`` start method on Linux, so monkeypatched module
state and environment variables set in the parent are visible inside
workers, which is how the crash is injected.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import sweep
from repro.experiments.executor import ExecutorPolicy
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore

BACKEND_KINDS = ("jsonl", "sqlite")

FAST = dict(duration_s=0.5, dt=1e-3)
MIXES = ["BBRv1", "BBRv2"]
BUFFERS = [0.5, 1.0, 4.0]
GRID_POINTS = len(MIXES) * len(BUFFERS)

CRASH_MIX = "BBRv2"
CRASH_BUFFER = 4.0

_real_compute_chunk = sweep.compute_chunk


def _instrumented_compute_chunk(chunk):
    """compute_chunk wrapper: injectable crash + compute accounting.

    Controlled by environment variables (inherited by forked workers):
    ``REPRO_TEST_CRASH_TRIGGER`` — while this file exists, a chunk holding
    the crash point hard-kills its worker process;
    ``REPRO_TEST_COMPUTE_LOG`` — every point of every compute attempt
    appends one line here.
    """
    trigger = os.environ.get("REPRO_TEST_CRASH_TRIGGER")
    crash = any((p.mix, p.buffer_bdp) == (CRASH_MIX, CRASH_BUFFER) for p in chunk)
    if trigger and os.path.exists(trigger) and crash:
        os._exit(13)  # hard crash: no exception, no cleanup, pool breaks
    log = os.environ.get("REPRO_TEST_COMPUTE_LOG")
    if log:
        with open(log, "a") as handle:
            for point in chunk:
                handle.write(f"{point.mix}|{point.buffer_bdp}|{point.seed}\n")
    return _real_compute_chunk(chunk)


def _tripwire_compute_chunk(chunk):  # pragma: no cover
    raise AssertionError(
        "points recomputed on warm run: "
        + ", ".join(f"mix={p.mix!r} buffer_bdp={p.buffer_bdp}" for p in chunk)
    )


def _computes(log_path) -> list[str]:
    if not log_path.exists():
        return []
    return [line for line in log_path.read_text().splitlines() if line]


@pytest.fixture(autouse=True)
def _clear_cache():
    sweep.clear_cache()
    yield
    sweep.clear_cache()


def _store_path(tmp_path, kind: str):
    return tmp_path / {"jsonl": "c.jsonl", "sqlite": "c.sqlite"}[kind]


def _campaign(store, policy, retry_failed=True):
    grid = GridSpec(
        mixes=MIXES, buffers_bdp=BUFFERS, disciplines=["droptail"],
        substrate="fluid", seeds=1, **FAST,
    )
    return sweep.run_campaign(grid, store=store, executor=policy, retry_failed=retry_failed)


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestCrashSurvival:
    def test_campaign_survives_worker_crash_and_resumes(
        self, tmp_path, kind, monkeypatch
    ):
        path = _store_path(tmp_path, kind)
        trigger = tmp_path / "crash.trigger"
        trigger.touch()
        compute_log = tmp_path / "computes.log"
        monkeypatch.setenv("REPRO_TEST_CRASH_TRIGGER", str(trigger))
        monkeypatch.setenv("REPRO_TEST_COMPUTE_LOG", str(compute_log))
        monkeypatch.setattr(sweep, "compute_chunk", _instrumented_compute_chunk)
        policy = ExecutorPolicy(workers=4, backoff_s=0.0, on_failure="skip")

        # --- Cold run: one point hard-kills its worker mid-grid. ---
        store = SweepStore(path, backend=kind)
        result = _campaign(store, policy)
        assert not result.ok
        assert len(result.points) == GRID_POINTS - 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert (failure.mix, failure.buffer_bdp) == (CRASH_MIX, CRASH_BUFFER)
        assert "worker process died" in failure.error
        assert failure.attempts >= 1

        # Zero lost records: every healthy point landed, the crash is a
        # structured failure row, nothing was torn by the dying worker.
        store.close()
        reloaded = SweepStore(path, backend=kind)
        assert len(reloaded) == GRID_POINTS - 1
        stored_failures = reloaded.failures()
        assert len(stored_failures) == 1
        assert "worker process died" in stored_failures[0]["error"]

        # --- Warm re-run before the fix: failures re-reported, nothing
        # recomputed (retry_failed=False serves recorded failure rows). ---
        sweep.clear_cache()
        monkeypatch.setattr(sweep, "compute_chunk", _tripwire_compute_chunk)
        resumed = _campaign(reloaded, policy, retry_failed=False)
        assert not resumed.ok
        assert len(resumed.points) == GRID_POINTS - 1
        assert len(resumed.failures) == 1
        assert resumed.failures[0].attempts == 0  # reported, not re-attempted

        # --- "Fix the bug" (remove the trigger) and retry: only the one
        # failed point is recomputed, and it supersedes its failure row. ---
        trigger.unlink()
        sweep.clear_cache()
        monkeypatch.setattr(sweep, "compute_chunk", _instrumented_compute_chunk)
        before = len(_computes(compute_log))
        fixed = _campaign(reloaded, policy)
        assert fixed.ok
        assert len(fixed.points) == GRID_POINTS
        assert len(_computes(compute_log)) == before + 1
        assert reloaded.failures() == []
        reloaded.close()

        # --- Fully warm run: every point served from the store, zero
        # computation, correct hit/miss accounting. ---
        sweep.clear_cache()
        monkeypatch.setattr(sweep, "compute_chunk", _tripwire_compute_chunk)
        warm_store = SweepStore(path, backend=kind)
        warm = _campaign(warm_store, policy)
        assert warm.ok
        assert len(warm.points) == GRID_POINTS
        assert warm_store.hits == GRID_POINTS
        assert warm_store.misses == 0
        warm_store.close()

    def test_raise_mode_completes_grid_before_raising(
        self, tmp_path, kind, monkeypatch
    ):
        path = _store_path(tmp_path, kind)
        trigger = tmp_path / "crash.trigger"
        trigger.touch()
        monkeypatch.setenv("REPRO_TEST_CRASH_TRIGGER", str(trigger))
        monkeypatch.setattr(sweep, "compute_chunk", _instrumented_compute_chunk)
        policy = ExecutorPolicy(workers=4, backoff_s=0.0, on_failure="raise")
        store = SweepStore(path, backend=kind)
        with pytest.raises(sweep.SweepPointError) as excinfo:
            _campaign(store, policy)
        assert "worker process died" in str(excinfo.value)
        # The healthy grid still completed and persisted before the raise.
        store.close()
        reloaded = SweepStore(path, backend=kind)
        assert len(reloaded) == GRID_POINTS - 1
        assert len(reloaded.failures()) == 1
        reloaded.close()
