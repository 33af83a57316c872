"""Self-test of the campaign benchmark harness on a tiny grid.

Run with ``python -m pytest perfbench/``; the tiny fluid grid keeps the
whole file to a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

TINY = wl.Workload(
    name="tiny",
    why="self-test",
    substrate="fluid",
    mixes=("BBRv1", "BBRv2"),
    buffers=(1.0,),
    disciplines=("droptail",),
    duration_s=0.2,
)


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """Keep the harness's scratch files and reference inside ``tmp_path``."""
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(wl, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setattr(run, "calibrate", lambda: 1.0)
    run.REFERENCE.pop(TINY.name, None)
    yield tmp_path
    run.REFERENCE.pop(TINY.name, None)


def _spec_names(section: str) -> set[str]:
    return {m["name"] for m in run.benchmark_spec()[section]}


def test_tiny_grid_end_to_end_and_traced(isolated, capsys):
    run.update_reference(TINY)
    assert len(wl.load_reference(TINY)["points"]) == 2

    result = run.measure(TINY, seed=5, seconds=0.01, trace=False)
    assert result["correct"], capsys.readouterr().err
    assert result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == _spec_names("end_to_end")
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.measure(TINY, seed=5, seconds=0.01, trace=True)
    assert traced["correct"]
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    assert set(metrics) == _spec_names("per_layer")
    # One lockstep batch of both points: exact, seed-independent counts.
    assert metrics["core.lockstep_width"] == 2
    assert metrics["core.flow_steps"] == metrics["core.steps"] * 20
    assert metrics["executor.tasks"] == 0
    assert metrics["store.puts"] == 2 and metrics["store.hits"] == 0
    assert 0.5 < metrics["trace.attributed_share"] <= 1.05
    assert not (isolated / "work").exists() or not any((isolated / "work").iterdir())


def test_mismatch_is_counted_and_named(isolated, capsys):
    run.update_reference(TINY)
    path = wl.reference_path(TINY)
    reference = json.loads(path.read_text())
    label = "BBRv2|1|droptail|1"
    reference["points"][label]["metrics"]["jain_fairness"] += 0.01
    path.write_text(json.dumps(reference))

    result = run.measure(TINY, seed=0, seconds=0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] == 0.5
    assert f"incorrect point {label}: jain_fairness" in capsys.readouterr().err


def test_presets_are_seeded_permutations_of_one_grid():
    w = wl.WORKLOADS["fluid-lockstep"]
    assert w.preset(7) == w.preset(7)
    assert w.points(1) == w.points(2)
    a, b = w.preset(1)["grid"], w.preset(2)["grid"]
    assert a != b and sorted(a["mixes"]) == sorted(b["mixes"])
    emu = wl.WORKLOADS["emu-grid"]
    assert emu.scenario_seeds(0) == [1, 2, 3]
    assert set(emu.points(0)).isdisjoint(emu.points(1))


def test_invariant_fallback_for_unpinned_emulation_seeds():
    emu = wl.WORKLOADS["emu-grid"]
    labels = emu.points(10_000)
    good = {
        "metrics": {"loss_percent": 1.0, "utilization_percent": 99.0, "jain_fairness": 0.9},
        "runtime": {"counters": {"pkts_sent": 10, "pkts_delivered": 9}},
    }
    records = {label: good for label in labels}
    assert wl.check_outputs(emu, 10_000, records, {"points": {}}) == []
    bad = dict(good, metrics=dict(good["metrics"], jain_fairness=0.05))
    records[labels[0]] = bad
    del records[labels[1]]
    problems = dict(wl.check_outputs(emu, 10_000, records, {"points": {}}))
    assert "jain_fairness" in problems[labels[0]]
    assert problems[labels[1]] == "missing from the store"


def test_reference_comparison_treats_nan_as_equal():
    expected = {"metrics": {"fct_p50_s": math.nan, "loss_percent": 1.0}}
    record = {"metrics": {"fct_p50_s": math.nan, "loss_percent": 1.0 + 1e-12}}
    assert wl.compare_to_reference(record, expected, {"rtol": 1e-9}) is None
    record["metrics"]["fct_p50_s"] = 0.1
    assert wl.compare_to_reference(record, expected, {}) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fluid-lockstep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench-work").exists()
    assert Path(tmp_path / "perfbench" / "run.py").exists()
