"""Tests of the pluggable store backends (jsonl / sqlite)."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.backends import (
    RemovedBackendError,
    atomic_append,
    check_backend,
    infer_backend,
    make_backend,
    shard_of,
    split_backend_spec,
)
from repro.experiments.presets import PresetError, parse_preset
from repro.experiments.store import SCHEMA_VERSION, SweepStore, resolve_store
from repro.metrics.aggregate import AggregateMetrics

BACKEND_KINDS = ("jsonl", "sqlite")


def _metrics(value: float = 1.0) -> AggregateMetrics:
    return AggregateMetrics(
        jain_fairness=value,
        loss_percent=value * 2,
        buffer_occupancy_percent=value * 3,
        utilization_percent=value * 4,
        jitter_ms=value * 5,
    )


def _store_path(tmp_path, kind: str):
    return tmp_path / {"jsonl": "res.jsonl", "sqlite": "res.sqlite"}[kind]


@pytest.fixture(params=BACKEND_KINDS)
def kind(request):
    return request.param


@pytest.fixture
def store(tmp_path, kind):
    return SweepStore(_store_path(tmp_path, kind), backend=kind)


class TestRoundtrip:
    def test_put_get_roundtrip(self, store, kind):
        assert store.backend == kind
        store.put("k1", _metrics(1.0), meta={"mix": "BBRv1", "seed": 1})
        assert "k1" in store
        assert len(store) == 1
        assert store.get("k1") == _metrics(1.0)
        assert store.hits == 1 and store.misses == 0
        assert store.get("absent") is None
        assert store.misses == 1

    def test_persistence_across_reopen(self, tmp_path, kind):
        path = _store_path(tmp_path, kind)
        first = SweepStore(path, backend=kind)
        first.put("k1", _metrics(2.0), meta={"mix": "BBRv1"})
        first.close()
        second = SweepStore(path, backend=kind)
        assert second.get("k1") == _metrics(2.0)
        second.close()

    def test_last_write_wins(self, tmp_path, kind):
        path = _store_path(tmp_path, kind)
        store = SweepStore(path, backend=kind)
        store.put("k1", _metrics(1.0))
        store.put("k1", _metrics(9.0))
        assert store.get("k1") == _metrics(9.0)
        assert len(store) == 1
        store.close()
        reopened = SweepStore(path, backend=kind)
        assert reopened.get("k1") == _metrics(9.0)
        assert len(reopened) == 1
        reopened.close()

    def test_stale_schema_records_are_skipped(self, tmp_path, kind, monkeypatch):
        path = _store_path(tmp_path, kind)
        import repro.experiments.store as store_mod

        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        old = SweepStore(path, backend=kind)
        old.put("k1", _metrics(1.0))
        old.close()
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION)
        fresh = SweepStore(path, backend=kind)
        assert fresh.get("k1") is None
        assert len(fresh) == 0
        fresh.close()


class TestFailures:
    def test_failure_roundtrip_and_supersede(self, tmp_path, kind):
        path = _store_path(tmp_path, kind)
        store = SweepStore(path, backend=kind)
        store.put_failure("k1", "RuntimeError: boom", meta={"mix": "BBRv1", "seed": 2})
        assert "k1" not in store
        failures = store.failures()
        assert len(failures) == 1
        assert failures[0]["key"] == "k1"
        assert failures[0]["error"] == "RuntimeError: boom"
        assert failures[0]["meta"]["seed"] == 2
        # A successful result supersedes the failure...
        store.put("k1", _metrics(1.0))
        assert store.failures() == []
        assert store.get("k1") == _metrics(1.0)
        store.close()
        # ...including after a reopen replays the log.
        reopened = SweepStore(path, backend=kind)
        assert reopened.failures() == []
        assert reopened.get("k1") == _metrics(1.0)
        reopened.close()

    def test_late_failure_never_shadows_a_result(self, tmp_path, kind):
        # Failure written after the result (interleaved campaigns): the
        # result must win regardless of replay order.
        path = _store_path(tmp_path, kind)
        store = SweepStore(path, backend=kind)
        store.put("k1", _metrics(1.0))
        store.put_failure("k1", "late failure")
        assert store.failures() == []
        assert store.get("k1") == _metrics(1.0)
        store.close()
        reopened = SweepStore(path, backend=kind)
        assert reopened.failures() == []
        assert reopened.get("k1") == _metrics(1.0)
        reopened.close()


class TestRecords:
    def _populate(self, store):
        store.put("k1", _metrics(1.0), meta={"mix": "BBRv1", "seed": 1, "buffer_bdp": 1.0})
        store.put("k2", _metrics(2.0), meta={"mix": "BBRv1", "seed": 2, "buffer_bdp": 1.0})
        store.put(
            "k3",
            _metrics(3.0),
            meta={"mix": "RENO", "seed": 1, "buffer_bdp": 2.0, "topology": "parking-lot"},
        )

    def test_records_returns_full_records(self, store):
        self._populate(store)
        store.put(
            "k3", _metrics(5.0), meta={"mix": "RENO", "topology": "parking-lot"},
            runtime={"wall_s": 0.25},
        )
        records = store.records()
        assert isinstance(records, list)
        # Write order; an overwrite keeps the key's place.
        assert [r["key"] for r in records] == ["k1", "k2", "k3"]
        record = records[2]
        assert record["schema"] == SCHEMA_VERSION
        assert AggregateMetrics(**record["metrics"]) == _metrics(5.0)
        assert record["meta"] == {"mix": "RENO", "topology": "parking-lot"}
        assert record["runtime"] == {"wall_s": 0.25}

    def test_records_of_empty_store(self, store):
        assert store.records() == []
        store.put_failure("k9", "boom", meta={"mix": "BBRv1"})
        assert store.records() == []

    def test_records_excludes_failures(self, store):
        self._populate(store)
        store.put_failure("k9", "boom", meta={"mix": "BBRv1", "seed": 9})
        assert {r["key"] for r in store.records()} == {"k1", "k2", "k3"}
        store.put("k9", _metrics(9.0), meta={"mix": "BBRv1", "seed": 9})
        assert {r["key"] for r in store.records()} == {"k1", "k2", "k3", "k9"}


#: The SQLite schema written by earlier versions: nine ``meta`` fields
#: copied into nullable axis columns, with three indexes over them.
PARENT_SQLITE_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS results (
        key TEXT PRIMARY KEY,
        schema INTEGER NOT NULL,
        metrics TEXT NOT NULL,
        meta TEXT NOT NULL,
        runtime TEXT,
        mix TEXT, buffer_bdp REAL, discipline TEXT, substrate TEXT, seed INTEGER,
        short_rtt INTEGER, duration_s REAL, topology TEXT, arrivals TEXT
    )""",
    """CREATE TABLE IF NOT EXISTS failures (
        key TEXT PRIMARY KEY,
        schema INTEGER NOT NULL,
        error TEXT NOT NULL,
        meta TEXT NOT NULL
    )""",
    "CREATE INDEX IF NOT EXISTS idx_results_axes ON results "
    "(schema, substrate, mix, discipline, buffer_bdp, seed)",
    "CREATE INDEX IF NOT EXISTS idx_results_topology ON results (topology)",
    "CREATE INDEX IF NOT EXISTS idx_results_arrivals ON results (arrivals)",
)

OLD_META = {
    "mix": "BBRv1", "buffer_bdp": 1.0, "discipline": "droptail",
    "substrate": "fluid", "seed": 1, "short_rtt": False, "duration_s": 5.0,
}
OLD_RUNTIME = {"wall_s": 0.5}


class TestParentSchemaSqlite:
    """A SQLite store with the earlier axis columns behaves like a new one."""

    @staticmethod
    def _write_parent_file(path):
        conn = sqlite3.connect(path)
        for statement in PARENT_SQLITE_SCHEMA:
            conn.execute(statement)
        axis = [OLD_META.get(name) for name in (
            "mix", "buffer_bdp", "discipline", "substrate", "seed",
            "short_rtt", "duration_s", "topology", "arrivals",
        )]
        axis[5] = int(axis[5])  # booleans were stored as integers
        conn.execute(
            "INSERT INTO results (key, schema, metrics, meta, runtime, mix, "
            "buffer_bdp, discipline, substrate, seed, short_rtt, duration_s, "
            "topology, arrivals) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "old", SCHEMA_VERSION,
                json.dumps(_metrics(1.0).as_dict(), sort_keys=True),
                json.dumps(OLD_META, sort_keys=True),
                json.dumps(OLD_RUNTIME, sort_keys=True),
                *axis,
            ),
        )
        conn.execute(
            "INSERT INTO failures (key, schema, error, meta) VALUES (?, ?, ?, ?)",
            ("bad", SCHEMA_VERSION, "RuntimeError: boom", json.dumps({"mix": "RENO"})),
        )
        conn.commit()
        conn.close()

    @staticmethod
    def _write_new_file(path):
        store = SweepStore(path)
        store.put("old", _metrics(1.0), meta=OLD_META, runtime=OLD_RUNTIME)
        store.put_failure("bad", "RuntimeError: boom", meta={"mix": "RENO"})
        store.close()

    @staticmethod
    def _exercise(path):
        """Every read, an upsert and a merge; returns what each observed."""
        store = SweepStore(path)
        seen = {
            "get": store.get("old"),
            "in": ("old" in store, "bad" in store, "absent" in store),
            "len": len(store),
            "records": store.records(),
            "failures": store.failures(),
        }
        store.put("old", _metrics(2.0), meta={"mix": "BBRv2", "seed": 2})
        store.put("new", _metrics(3.0), meta={"mix": "BBRv1"})
        store.close()
        reopened = SweepStore(path)
        seen["after_put"] = (
            reopened.get("old"), len(reopened), reopened.records(), reopened.failures()
        )
        reopened.close()
        dest = path.with_name(path.stem + "-merged.jsonl")
        assert main(["store", "merge", str(path), str(dest)]) == 0
        merged = SweepStore(dest)
        seen["merged"] = (merged.records(), merged.failures(), dest.read_text())
        merged.close()
        return seen

    def test_parent_file_behaves_like_a_new_one(self, tmp_path):
        parent_path, new_path = tmp_path / "parent.sqlite", tmp_path / "new.sqlite"
        self._write_parent_file(parent_path)
        self._write_new_file(new_path)
        seen = self._exercise(parent_path)
        assert seen == self._exercise(new_path)

        assert seen["get"] == _metrics(1.0)
        assert seen["in"] == (True, False, False)
        assert seen["len"] == 1
        (record,) = seen["records"]
        assert (record["key"], record["meta"], record["runtime"]) == ("old", OLD_META, OLD_RUNTIME)
        (failure,) = seen["failures"]
        assert (failure["key"], failure["error"]) == ("bad", "RuntimeError: boom")
        got, count, records, failures = seen["after_put"]
        assert (got, count) == (_metrics(2.0), 2)
        assert [(r["key"], r["meta"]) for r in records] == [
            ("old", {"mix": "BBRv2", "seed": 2}), ("new", {"mix": "BBRv1"}),
        ]
        assert "runtime" not in records[0]  # the upsert replaced the old runtime
        assert [f["key"] for f in failures] == ["bad"]
        merged_records, merged_failures, _ = seen["merged"]
        assert merged_records == records
        assert merged_failures == failures
        # The earlier axis columns stay in place, unread.
        conn = sqlite3.connect(parent_path)
        columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
        conn.close()
        assert {"mix", "seed", "topology", "arrivals"} <= columns

    def test_new_file_has_only_the_record_columns(self, tmp_path):
        path = tmp_path / "new.sqlite"
        SweepStore(path).close()
        conn = sqlite3.connect(path)
        columns = [row[1] for row in conn.execute("PRAGMA table_info(results)")]
        indexes = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND sql IS NOT NULL"
        )]
        conn.close()
        assert columns == ["key", "schema", "metrics", "meta", "runtime"]
        assert indexes == []


class TestMergeRewrite:
    """``store merge SRC DEST`` into a fresh DEST rewrites a store with one
    record per key, last write winning — the replacement for compaction."""

    @pytest.fixture(params=BACKEND_KINDS)
    def dest_kind(self, request):
        return request.param

    @staticmethod
    def _dest_path(tmp_path, dest_kind):
        return tmp_path / {"jsonl": "rewritten.jsonl", "sqlite": "rewritten.sqlite"}[dest_kind]

    def test_rewrite_drops_superseded_and_stale(self, tmp_path, kind, dest_kind, monkeypatch):
        path = _store_path(tmp_path, kind)
        import repro.experiments.store as store_mod

        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        old = SweepStore(path, backend=kind)
        old.put("old-key", _metrics(1.0))
        old.close()
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION)
        source = SweepStore(path, backend=kind)
        source.put("k1", _metrics(1.0))
        source.put("k1", _metrics(2.0))
        source.put_failure("k2", "boom")
        source.put("k2", _metrics(3.0))
        dest_path = self._dest_path(tmp_path, dest_kind)
        dest = SweepStore(dest_path, backend=dest_kind)
        assert dest.merge_from(source) == (2, 0)
        source.close()
        dest.close()
        reopened = SweepStore(dest_path, backend=dest_kind)
        assert len(reopened) == 2
        assert reopened.get("k1") == _metrics(2.0)
        assert reopened.get("k2") == _metrics(3.0)
        assert "old-key" not in reopened
        assert reopened.failures() == []
        reopened.close()
        if dest_kind == "jsonl":
            lines = dest_path.read_text().splitlines()
            assert len(lines) == 2  # one line per surviving record

    def test_cli_rewrite_keeps_unsuperseded_failures(self, tmp_path, kind, dest_kind, capsys):
        path = _store_path(tmp_path, kind)
        source = SweepStore(path, backend=kind)
        source.put_failure("k1", "still broken", meta={"mix": "BBRv1"})
        source.put("k2", _metrics(2.0), meta={"mix": "BBRv2"})
        source.close()
        dest_path = self._dest_path(tmp_path, dest_kind)
        assert main(["store", "merge", str(path), str(dest_path)]) == 0
        assert "1 result(s), 1 failure(s)" in capsys.readouterr().out
        merged = SweepStore(dest_path, backend=dest_kind)
        (failure,) = merged.failures()
        assert failure["key"] == "k1"
        assert failure["error"] == "still broken"
        assert failure["meta"] == {"mix": "BBRv1"}
        assert merged.get("k2") == _metrics(2.0)
        merged.close()


class TestSharding:
    def test_shard_routing_is_stable(self):
        assert shard_of("some-key", 16) == shard_of("some-key", 16)
        assert 0 <= shard_of("some-key", 16) < 16

    def test_shard_routing_is_pinned(self):
        # ``--shard-index/--shard-count`` runs on different hosts or
        # versions must agree on the partition, so the hash is fixed.
        assert [shard_of(key, 16) for key in ("some-key", "a", "b", "c")] == [7, 2, 6, 3]
        assert [shard_of("some-key", count) for count in (1, 2, 3, 7)] == [0, 1, 2, 1]

    @given(st.text(max_size=40), st.integers(min_value=1, max_value=64))
    def test_every_key_lands_in_exactly_one_shard(self, key, count):
        owners = [index for index in range(count) if shard_of(key, count) == index]
        assert len(owners) == 1


class TestBackendSelection:
    def test_infer_from_suffix(self, tmp_path):
        assert infer_backend(tmp_path / "r.sqlite") == "sqlite"
        assert infer_backend(tmp_path / "r.db") == "sqlite"
        assert infer_backend(tmp_path / "r.jsonl") == "jsonl"
        assert infer_backend(tmp_path / "r.anything") == "jsonl"

    def test_backend_prefix_spec(self, tmp_path):
        assert split_backend_spec("sqlite:res.out") == ("sqlite", "res.out")
        assert split_backend_spec("plain.jsonl") == (None, "plain.jsonl")
        # Windows-style / odd prefixes fall through to a bare path.
        assert split_backend_spec("unknown:res") == (None, "unknown:res")
        store = SweepStore(str(tmp_path / "campaign") + "", backend=None)
        assert store.backend == "jsonl"
        prefixed = SweepStore(f"sqlite:{tmp_path / 'campaign.out'}")
        assert prefixed.backend == "sqlite"
        prefixed.close()

    def test_conflicting_prefix_and_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="conflicts"):
            make_backend(f"sqlite:{tmp_path / 'x'}", SCHEMA_VERSION, backend="jsonl")

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            make_backend(tmp_path / "x.jsonl", SCHEMA_VERSION, backend="mongodb")

    def test_check_backend(self):
        for kind in BACKEND_KINDS:
            check_backend(kind)
        with pytest.raises(ValueError, match="unknown store backend") as excinfo:
            check_backend("mongodb")
        assert not isinstance(excinfo.value, RemovedBackendError)
        with pytest.raises(RemovedBackendError):
            check_backend("sharded")


class TestRemovedShardedBackend:
    """Every spelling of the removed sharded backend fails loudly, with the
    migration recipe, instead of silently creating a new JSON-lines store."""

    def test_sharded_prefix(self, tmp_path, capsys):
        spec = f"sharded:{tmp_path / 'results.shards'}"
        with pytest.raises(RemovedBackendError, match="shard-"):
            SweepStore(spec)
        assert main(["sweep", "--mixes", "BBRv1", "--buffers", "1", "--store", spec]) == 2
        assert main(["campaign", "--mixes", "BBRv1", "--buffers", "1", "--store", spec]) == 2
        assert "concatenat" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mixes", "BBRv1", "--buffers", "1", "--store", "{spec}"],
            ["figure", "fig06_fairness", "--buffers", "1", "--store", "{spec}"],
            ["campaign", "--mixes", "BBRv1", "--buffers", "1", "--store", "{spec}"],
            ["status", "{spec}", "--mixes", "BBRv1", "--buffers", "1"],
            ["store", "summary", "{spec}"],
            ["store", "merge", "{spec}", "{other}"],
            ["store", "merge", "{other}", "{spec}"],
            ["stability", "--versions", "bbr1", "--flow-counts", "2",
             "--rtts-ms", "40", "--buffers", "1", "--store", "{spec}"],
        ],
        ids=["sweep", "figure", "campaign", "status", "store-summary",
             "store-merge-source", "store-merge-dest", "stability"],
    )
    def test_every_store_command_exits_2(self, tmp_path, capsys, argv):
        spec = f"sharded:{tmp_path / 'results.shards'}"
        other = str(tmp_path / "other.jsonl")
        args = [arg.format(spec=spec, other=other) for arg in argv]
        assert main(args) == 2
        assert "concatenat" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_backend_argument(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        with pytest.raises(RemovedBackendError):
            SweepStore(path, backend="sharded")
        with pytest.raises(RemovedBackendError):
            make_backend(path, SCHEMA_VERSION, backend="sharded")
        # The CLI no longer offers the choice at all.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--store", str(path), "--backend", "sharded"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not path.exists()

    def test_repro_store_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", f"sharded:{tmp_path / 'results.shards'}")
        with pytest.raises(RemovedBackendError):
            resolve_store(None)
        assert not any(tmp_path.iterdir())

    def test_preset_backend(self):
        doc = {"store": {"path": "results.shards", "backend": "sharded"}}
        with pytest.raises(PresetError, match="concatenat"):
            parse_preset(doc)

    def test_preset_path_prefix(self):
        doc = {"store": {"path": "sharded:results.shards"}}
        with pytest.raises(PresetError, match="concatenat"):
            parse_preset(doc)

    def test_existing_directory_store(self, tmp_path, capsys):
        shards = tmp_path / "results.shards"
        shards.mkdir()
        (shards / "shard-00.jsonl").write_text("")
        with pytest.raises(RemovedBackendError):
            SweepStore(shards)
        argv = ["--mixes", "BBRv1", "--buffers", "1", "--disciplines", "droptail"]
        assert main(["campaign", *argv, "--store", str(shards)]) == 2
        assert main(["status", str(shards), *argv]) == 2
        assert "concatenat" in capsys.readouterr().err


class TestCrashSafety:
    """Satellite: crash-safe appends + torn-tail and interleaving regressions."""

    def test_torn_tail_is_tolerated(self, tmp_path, kind):
        if kind == "sqlite":
            pytest.skip("sqlite handles torn writes via WAL, not line parsing")
        path = _store_path(tmp_path, kind)
        store = SweepStore(path, backend=kind)
        store.put("k1", _metrics(1.0))
        store.put("k2", _metrics(2.0))
        store.close()
        # Simulate a crash mid-append: torn partial JSON at the tail.
        with path.open("a") as handle:
            handle.write('{"schema": %d, "key": "torn", "metr' % SCHEMA_VERSION)
        reopened = SweepStore(path, backend=kind)
        assert len(reopened) == 2
        assert reopened.get("k1") == _metrics(1.0)
        assert "torn" not in reopened
        # Appending after the torn tail is fine: the torn line is skipped
        # forever, and every subsequent record loads normally because the
        # writer terminates each record with its own newline.
        reopened.put("k3", _metrics(3.0))
        reopened.close()
        final = SweepStore(path, backend=kind)
        assert final.get("k1") == _metrics(1.0)
        assert final.get("k3") == _metrics(3.0)
        final.close()

    def test_single_write_append(self, tmp_path):
        # atomic_append must issue exactly one os.write for the whole record
        # (the POSIX O_APPEND atomicity contract).
        calls: list[int] = []
        real_write = os.write

        def counting_write(fd, data):
            calls.append(len(data))
            return real_write(fd, data)

        line = '{"key": "k", "schema": 1}\n'
        import unittest.mock

        with unittest.mock.patch("os.write", counting_write):
            atomic_append(tmp_path / "t.jsonl", line)
        assert calls == [len(line.encode())]

    def test_interleaved_writer_processes_lose_nothing(self, tmp_path, kind):
        path = _store_path(tmp_path, kind)
        num_writers, per_writer = 4, 25
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_writer_main, args=(str(path), kind, w, per_writer)
            )
            for w in range(num_writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        store = SweepStore(path, backend=kind)
        assert len(store) == num_writers * per_writer
        for w in range(num_writers):
            for i in range(per_writer):
                got = store.get(f"w{w}-{i}")
                assert got is not None
                assert got.jain_fairness == float(w * 1000 + i)
        store.close()


def _writer_main(path: str, kind: str, writer: int, count: int) -> None:
    """Worker process: append `count` records under its own key space."""
    store = SweepStore(path, backend=kind)
    for i in range(count):
        store.put(
            f"w{writer}-{i}",
            _metrics(float(writer * 1000 + i)),
            meta={"mix": "BBRv1", "seed": writer},
        )
    store.close()
