"""A lockstep chunk is the campaign's only unit of work.

Every uncached point is computed inside a chunk: fluid points share
lockstep chunks (one per pool worker), analytic points share batched
chunks the same way (``tests/test_analytic_batch.py``), and emulation runs
one point per chunk.  The chunks go through the resilient executor; only a plain
serial fluid grid runs its chunks inline.  These tests pin what that means
for stored rows, for failures inside a chunk, and for the timeout, which
a chunk gets once per point it holds.

Faults are injected through ``sweep.simulate_many``; pools fork on Linux, so
the patched module attribute is what pool workers call too.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import sweep
from repro.experiments.executor import ExecutorPolicy, ResilientExecutor
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore

FAST = dict(duration_s=0.5, dt=1e-3)
BAD_BUFFER = 2.0

_real_simulate_many = sweep.simulate_many


@pytest.fixture(autouse=True)
def _clear_cache():
    sweep.clear_cache()
    yield
    sweep.clear_cache()


def _grid(**axes) -> GridSpec:
    axes = {"mixes": ["BBRv1", "BBRv2"], "buffers_bdp": [1.0, 2.0], **axes}
    return GridSpec(disciplines=["droptail"], substrate="fluid", **FAST, **axes)


def _failing_on_bad_buffer(configs):
    if any(cfg.bottleneck.buffer_bdp == BAD_BUFFER for cfg in configs):
        raise RuntimeError("injected failure")
    return _real_simulate_many(configs)


def test_pooled_fluid_grid_runs_lockstep_chunks(tmp_path):
    grid = _grid(buffers_bdp=[0.5, 1.0, 2.0, 4.0])
    serial = sweep.run_campaign(grid, store=False).points
    sweep.clear_cache()
    store = SweepStore(tmp_path / "s.jsonl")
    pooled = sweep.run_campaign(grid, store=store, workers=2).points
    assert len(pooled) == len(serial) == 8
    # Two workers split the 8 points into two 4-wide lockstep chunks.
    for point in pooled:
        assert point.runtime["shared"] == point.runtime["counters"]["lockstep"] == 4
    for record in store.records():
        assert record["runtime"]["shared"] == record["runtime"]["counters"]["lockstep"] == 4
    # Lockstep integration is exact: the same metrics, bit for bit (float
    # repr round-trips exactly and spells NaN alike), as the serial 8-wide
    # batch.
    assert [repr(p.metrics.as_dict()) for p in pooled] == [
        repr(p.metrics.as_dict()) for p in serial
    ]


@pytest.mark.parametrize("workers", [None, 2])
def test_failing_point_spares_its_chunk_mates(tmp_path, monkeypatch, workers):
    # The failing chunk is split: its healthy points are persisted and the
    # one bad point gets the only failure row.
    monkeypatch.setattr(sweep, "simulate_many", _failing_on_bad_buffer)
    store = SweepStore(tmp_path / "s.jsonl")
    policy = ExecutorPolicy(workers=workers, backoff_s=0.0, on_failure="skip")
    grid = _grid(mixes=["BBRv1"], buffers_bdp=[0.5, 1.0, BAD_BUFFER, 4.0])
    result = sweep.run_campaign(grid, store=store, executor=policy)
    assert sorted(p.buffer_bdp for p in result.points) == [0.5, 1.0, 4.0]
    (failure,) = result.failures
    assert (failure.mix, failure.buffer_bdp, failure.seed) == ("BBRv1", BAD_BUFFER, 1)
    assert "injected failure" in failure.error
    assert len(store) == 3
    (row,) = store.failures()
    assert row["meta"]["buffer_bdp"] == BAD_BUFFER


def test_raise_mode_names_the_failing_point(monkeypatch):
    monkeypatch.setattr(sweep, "simulate_many", _failing_on_bad_buffer)
    with pytest.raises(sweep.SweepPointError) as excinfo:
        sweep.run_campaign(_grid(mixes=["BBRv2"]))
    assert (excinfo.value.mix, excinfo.value.buffer_bdp) == ("BBRv2", BAD_BUFFER)


def test_timeout_bounds_a_serial_lockstep_chunk(monkeypatch):
    widths: list[int] = []

    def slow_when_batched(configs):
        widths.append(len(configs))
        if len(configs) > 1:
            time.sleep(30)  # interrupted by the chunk's 4 x 0.5 s deadline
        return _real_simulate_many(configs)

    monkeypatch.setattr(sweep, "simulate_many", slow_when_batched)
    policy = ExecutorPolicy(timeout_s=0.5, backoff_s=0.0, on_failure="skip")
    start = time.monotonic()
    result = sweep.run_campaign(_grid(), store=False, executor=policy)
    assert time.monotonic() - start < 20
    # The 4-wide chunk overran, was split, and its points re-ran alone.
    assert widths == [4, 1, 1, 1, 1]
    assert result.ok and len(result.points) == 4
    assert all("shared" not in p.runtime for p in result.points)


def test_timeout_is_a_per_point_budget(monkeypatch):
    # A 4-wide chunk may take up to 4 x timeout_s: one that outlasts a
    # single point's budget but not its own finishes as one chunk.
    widths: list[int] = []

    def slower_than_one_point(configs):
        widths.append(len(configs))
        time.sleep(0.6)
        return _real_simulate_many(configs)

    monkeypatch.setattr(sweep, "simulate_many", slower_than_one_point)
    policy = ExecutorPolicy(timeout_s=0.5, backoff_s=0.0, on_failure="skip")
    result = sweep.run_campaign(_grid(), store=False, executor=policy)
    assert widths == [4]
    assert result.ok and all(p.runtime["shared"] == 4 for p in result.points)


@pytest.mark.parametrize(
    ("policy", "executor_runs"),
    [
        (ExecutorPolicy(on_failure="skip"), [4]),
        (ExecutorPolicy(retries=1, backoff_s=0.0, on_failure="skip"), [1, 4]),
        (ExecutorPolicy(heartbeat_s=60.0, on_failure="skip"), [1, 4]),
    ],
    ids=["inline", "retries", "heartbeat"],
)
def test_executor_runs_the_chunks_a_policy_constrains(monkeypatch, policy, executor_runs):
    # Inline and executor-run chunks give the same points and the same
    # single failure.  A plain serial fluid grid integrates its chunk
    # inline and hands only the split points to the executor; a policy
    # with something to enforce runs the chunk there too.
    runs: list[int] = []
    real_run = ResilientExecutor.run

    def counted_run(self, tasks, *args, **kwargs):
        runs.append(len(tasks))
        return real_run(self, tasks, *args, **kwargs)

    monkeypatch.setattr(ResilientExecutor, "run", counted_run)
    monkeypatch.setattr(sweep, "simulate_many", _failing_on_bad_buffer)
    grid = _grid(mixes=["BBRv1"], buffers_bdp=[0.5, 1.0, BAD_BUFFER, 4.0])
    result = sweep.run_campaign(grid, store=False, executor=policy)
    assert sorted(p.buffer_bdp for p in result.points) == [0.5, 1.0, 4.0]
    (failure,) = result.failures
    assert failure.buffer_bdp == BAD_BUFFER
    assert failure.error == "RuntimeError: injected failure"
    assert runs == executor_runs


def test_serial_emulation_grid_runs_through_the_executor(monkeypatch):
    # Only the plain serial fluid grid runs inline: other substrates send
    # every point to the executor, one point per task.
    runs: list[list[int]] = []
    real_run = ResilientExecutor.run

    def counted_run(self, tasks, *args, **kwargs):
        runs.append([len(task) for task in tasks])
        return real_run(self, tasks, *args, **kwargs)

    monkeypatch.setattr(ResilientExecutor, "run", counted_run)
    grid = GridSpec(
        mixes=["BBRv1"],
        buffers_bdp=[1.0, 2.0],
        disciplines=["droptail"],
        substrate="emulation",
        duration_s=0.2,
    )
    result = sweep.run_campaign(grid, store=False)
    assert result.ok and len(result.points) == 2
    assert runs == [[1, 1]]
