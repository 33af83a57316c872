"""The benchmark records' one writer: each test owns the keys it last wrote."""

from __future__ import annotations

import json

import pytest

import conftest as bench_conftest

SHARED = "BENCH_shared.json"


@pytest.fixture
def write_as(tmp_path, monkeypatch):
    """``write_as(writer, section)``: a ``record_bench`` call from test ``writer``."""
    monkeypatch.setattr(bench_conftest, "BENCH_DIR", tmp_path)

    def write(writer: str, section: dict) -> dict:
        monkeypatch.setenv("PYTEST_CURRENT_TEST", f"benchmarks/test_a.py::{writer} (call)")
        bench_conftest.record_bench("shared", section)
        return json.loads((tmp_path / SHARED).read_text())

    return write


def test_record_bench_merges_sections(write_as, tmp_path):
    write_as("test_grid", {"grid": {"seeds": 3}, "speedup": 2.0})
    record = write_as("test_backends", {"backends": {"rows": 10}, "speedup": 4.0})

    assert [p.name for p in tmp_path.iterdir()] == [SHARED]
    assert record == {
        "grid": {"seeds": 3},
        "backends": {"rows": 10},
        "speedup": 4.0,
        bench_conftest.WRITERS_KEY: {
            "benchmarks/test_a.py::test_grid": ["grid", "speedup"],
            "benchmarks/test_a.py::test_backends": ["backends", "speedup"],
        },
    }


def test_a_dropped_key_leaves_and_other_writers_keys_stay(write_as):
    write_as("test_emulation", {"packets_per_second": 1, "speedup": 2.09})
    write_as("test_topology", {"topology": {"hops": 3}})
    record = write_as("test_emulation", {"packets_per_second": 2})

    assert "speedup" not in record
    assert record["packets_per_second"] == 2
    assert record["topology"] == {"hops": 3}


def test_a_key_another_writer_still_writes_stays(write_as):
    write_as("test_grid", {"speedup": 2.0})
    write_as("test_backends", {"speedup": 4.0})
    assert write_as("test_grid", {"grid": 1}) == {
        "speedup": 4.0,
        "grid": 1,
        bench_conftest.WRITERS_KEY: {
            "benchmarks/test_a.py::test_grid": ["grid"],
            "benchmarks/test_a.py::test_backends": ["speedup"],
        },
    }


def test_keys_of_an_untracked_record_are_dropped(write_as, tmp_path):
    (tmp_path / SHARED).write_text(json.dumps({"speedup": 2.09, "kept": 1}))
    assert write_as("test_emulation", {"kept": 2}) == {
        "kept": 2,
        bench_conftest.WRITERS_KEY: {"benchmarks/test_a.py::test_emulation": ["kept"]},
    }
