"""The benchmark records' one writer merges sections, never clobbers them."""

from __future__ import annotations

import json

import conftest as bench_conftest


def test_record_bench_merges_sections(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_conftest, "BENCH_DIR", tmp_path)
    bench_conftest.record_bench("shared", {"grid": {"seeds": 3}, "speedup": 2.0})
    bench_conftest.record_bench("shared", {"backends": {"rows": 10}, "speedup": 4.0})

    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_shared.json"]
    assert json.loads((tmp_path / "BENCH_shared.json").read_text()) == {
        "grid": {"seeds": 3},
        "backends": {"rows": 10},
        "speedup": 4.0,
    }
