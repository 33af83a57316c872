"""Pluggable storage backends for the campaign result store.

:class:`~repro.experiments.store.SweepStore` fronts one of two
:class:`StoreBackend` implementations, both persisting the same
self-describing records (content-addressed ``key``, ``schema``,
``metrics``, ``meta``; failure records additionally carry ``kind:
"failure"`` and ``error``):

* :class:`JsonlBackend` — the single-file JSON-lines store, kept
  bit-compatible with files written before the backend split.  Appends are
  crash-safe under concurrent writers: each record is serialised to one
  line and written with a single ``O_APPEND`` :func:`os.write` (plus an
  optional fsync), so two appenders can never interleave *within* a
  record — at worst a crash leaves one torn tail line, which the loader
  tolerates.
* :class:`SqliteBackend` — a SQLite database in WAL mode with a busy
  timeout, safe for concurrent writer processes.  ``put`` is an UPSERT on
  the key.

Both read all results through one method, :meth:`StoreBackend.records`,
which returns the current-schema result records as a list; callers
filter it in Python.

The sharded JSON-lines backend of earlier versions is gone: a
``sharded:`` spec or a store directory raises :class:`RemovedBackendError`
with the migration recipe.
"""

from __future__ import annotations

import json
import os
import sqlite3
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping
from hashlib import sha256
from pathlib import Path
from typing import Any

from ..obs import TELEMETRY

#: ``kind`` of a failure record; result records carry no ``kind`` field so
#: the single-file backend stays bit-compatible with pre-backend stores.
FAILURE_KIND = "failure"

class RemovedBackendError(ValueError):
    """A store spec names the removed sharded JSON-lines backend."""

    def __init__(self) -> None:
        super().__init__(
            "the sharded JSON-lines store backend was removed; migrate a "
            "sharded store by concatenating its shard files into one "
            "JSON-lines store, e.g. 'cat results.shards/shard-*.jsonl > "
            "results.jsonl' (the record format is unchanged and each key "
            "lived in one shard, so per-key write order survives)"
        )


def encode_record(record: Mapping[str, Any]) -> str:
    """Serialise one record to its canonical JSON line (sorted keys)."""
    return json.dumps(record, sort_keys=True) + "\n"


def atomic_append(path: Path, line: str, fsync: bool = True) -> None:
    """Append one record line with a single ``O_APPEND`` write.

    A single :func:`os.write` on an ``O_APPEND`` descriptor is atomic with
    respect to other appenders on POSIX regular files, so concurrent
    writers cannot interleave within a record.  A crash mid-write leaves
    at most one torn tail line, which :func:`iter_jsonl_records` skips.
    ``fsync=False`` trades durability of the last few records for append
    throughput (the OS still orders the appends).
    """
    data = line.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        written = os.write(fd, data)
        while written < len(data):  # pragma: no cover - signals/ENOSPC only
            written += os.write(fd, data[written:])
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def _heal_torn_tail(path: Path) -> None:
    """Terminate an unterminated last line left by a crashed writer.

    A writer that died mid-:func:`atomic_append` leaves a partial record
    with no trailing newline.  Readers skip the undecodable line, but a
    later append would glue its record onto the fragment and lose it.
    Appending a bare newline at load time fences the torn fragment into
    its own (skipped) line so subsequent appends start fresh.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return
    if size == 0:
        return
    with path.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            atomic_append(path, "\n", fsync=False)
            TELEMETRY.count("store.torn_tail_heals")


def iter_jsonl_records(path: Path) -> Iterator[dict[str, Any]]:
    """Yield parsed records from one JSON-lines file, skipping torn lines."""
    if not path.exists():
        return
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # tolerate a torn tail line from a crashed writer
            if isinstance(record, dict):
                yield record


def shard_of(key: str, num_shards: int) -> int:
    """Stable shard index of a key (platform-independent, unsalted)."""
    return int.from_bytes(sha256(key.encode()).digest()[:4], "big") % num_shards


class StoreBackend(ABC):
    """Persistence strategy behind :class:`~repro.experiments.store.SweepStore`.

    A backend stores two record families keyed by the content-addressed
    scenario key: *results* (completed points) and *failures* (points the
    executor gave up on, with the offending axis combo and error).  A
    result write supersedes any recorded failure under the same key.
    Only records of the current ``schema_version`` are served.
    """

    #: Short name used by the CLI/preset ``backend`` selector.
    kind: str

    def __init__(self, path: Path, schema_version: int) -> None:
        self.path = Path(path)
        self.schema_version = schema_version

    @abstractmethod
    def get(self, key: str) -> dict[str, Any] | None:
        """The current-schema result record under ``key`` (or ``None``)."""

    @abstractmethod
    def put(self, record: Mapping[str, Any]) -> None:
        """Persist one result record immediately (clears any failure)."""

    @abstractmethod
    def put_failure(self, record: Mapping[str, Any]) -> None:
        """Persist one failure record (superseded by a later result)."""

    @abstractmethod
    def records(self) -> list[dict[str, Any]]:
        """All current-schema result records."""

    @abstractmethod
    def failures(self) -> list[dict[str, Any]]:
        """All current-schema failure records not superseded by a result."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of current-schema result records."""

    @abstractmethod
    def __contains__(self, key: str) -> bool:
        """Whether a current-schema result record exists under ``key``."""

    def close(self) -> None:
        """Release any held resources (no-op for file backends)."""


class JsonlBackend(StoreBackend):
    """The single-file JSON-lines store: an append log plus an in-memory index."""

    kind = "jsonl"

    def __init__(self, path: Path, schema_version: int, fsync: bool = True) -> None:
        super().__init__(path, schema_version)
        self.fsync = fsync
        self._index: dict[str, dict[str, Any]] = {}
        self._failures: dict[str, dict[str, Any]] = {}
        _heal_torn_tail(self.path)
        for record in iter_jsonl_records(self.path):
            self._apply(record)

    def _apply(self, record: dict[str, Any]) -> None:
        """Replay one persisted record into the in-memory index."""
        if record.get("schema") != self.schema_version:
            return
        key = record.get("key")
        if not isinstance(key, str):
            return
        if record.get("kind") == FAILURE_KIND:
            # A failure never shadows a completed result for the same key
            # (a late failure line can appear after the result that
            # superseded an earlier one when two campaigns interleave).
            if key not in self._index:
                self._failures[key] = record
        else:
            # A completed result supersedes any recorded failure.
            self._index[key] = record
            self._failures.pop(key, None)

    def _append(self, record: Mapping[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with TELEMETRY.span("store.append", backend=self.kind):
            atomic_append(self.path, encode_record(record), fsync=self.fsync)

    def get(self, key: str) -> dict[str, Any] | None:
        return self._index.get(key)

    def put(self, record: Mapping[str, Any]) -> None:
        record = dict(record)
        self._append(record)
        self._index[record["key"]] = record
        self._failures.pop(record["key"], None)

    def put_failure(self, record: Mapping[str, Any]) -> None:
        record = dict(record)
        self._append(record)
        if record["key"] not in self._index:
            self._failures[record["key"]] = record

    def records(self) -> list[dict[str, Any]]:
        return list(self._index.values())

    def failures(self) -> list[dict[str, Any]]:
        return list(self._failures.values())

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index


class SqliteBackend(StoreBackend):
    """SQLite store: WAL mode, UPSERT on key.

    Databases written by earlier versions carry extra nullable axis
    columns and indexes on ``results``; they are never read or written
    here, so an upsert leaves them stale, which is harmless.
    """

    kind = "sqlite"

    def __init__(self, path: Path, schema_version: int, fsync: bool = True) -> None:
        super().__init__(path, schema_version)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            # NORMAL still syncs the WAL at checkpoints; FULL syncs every
            # commit (the analogue of the JSON-lines backends' per-record fsync).
            self._conn.execute(f"PRAGMA synchronous={'FULL' if fsync else 'NORMAL'}")
            self._create_tables()
        except sqlite3.DatabaseError as exc:
            # A text file behind a ``sqlite:`` prefix, or a truncated
            # database: bad input, not a crash.
            self._conn.close()
            raise ValueError(f"store {self.path} is not a usable SQLite database: {exc}") from None

    def _create_tables(self) -> None:
        self._conn.execute(
            """CREATE TABLE IF NOT EXISTS results (
                key TEXT PRIMARY KEY,
                schema INTEGER NOT NULL,
                metrics TEXT NOT NULL,
                meta TEXT NOT NULL,
                runtime TEXT
            )"""
        )
        # Databases created before the runtime block existed lack the
        # nullable column; add it in place so old rows load unchanged
        # (their runtime stays NULL — no SCHEMA_VERSION bump needed).
        existing = {
            row["name"] for row in self._conn.execute("PRAGMA table_info(results)")
        }
        if "runtime" not in existing:
            self._conn.execute("ALTER TABLE results ADD COLUMN runtime TEXT")
        self._conn.execute(
            """CREATE TABLE IF NOT EXISTS failures (
                key TEXT PRIMARY KEY,
                schema INTEGER NOT NULL,
                error TEXT NOT NULL,
                meta TEXT NOT NULL
            )"""
        )

    def _row_to_record(self, row: sqlite3.Row) -> dict[str, Any]:
        record = {
            "schema": row["schema"],
            "key": row["key"],
            "metrics": json.loads(row["metrics"]),
            "meta": json.loads(row["meta"]),
        }
        if row["runtime"] is not None:
            record["runtime"] = json.loads(row["runtime"])
        return record

    def get(self, key: str) -> dict[str, Any] | None:
        row = self._conn.execute(
            "SELECT key, schema, metrics, meta, runtime FROM results "
            "WHERE key = ? AND schema = ?",
            (key, self.schema_version),
        ).fetchone()
        return None if row is None else self._row_to_record(row)

    def put(self, record: Mapping[str, Any]) -> None:
        runtime = record.get("runtime")
        values = (
            record["key"],
            record["schema"],
            json.dumps(record["metrics"], sort_keys=True),
            json.dumps(record.get("meta", {}), sort_keys=True),
            None if runtime is None else json.dumps(runtime, sort_keys=True),
        )
        with TELEMETRY.span("store.append", backend=self.kind):
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO results (key, schema, metrics, meta, runtime) "
                    "VALUES (?, ?, ?, ?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET "
                    "schema = excluded.schema, metrics = excluded.metrics, "
                    "meta = excluded.meta, runtime = excluded.runtime",
                    values,
                )
                self._conn.execute(
                    "DELETE FROM failures WHERE key = ?", (record["key"],)
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def put_failure(self, record: Mapping[str, Any]) -> None:
        self._conn.execute(
            "INSERT INTO failures (key, schema, error, meta) VALUES (?, ?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET "
            "schema = excluded.schema, error = excluded.error, meta = excluded.meta",
            (
                record["key"],
                record["schema"],
                record.get("error", ""),
                json.dumps(record.get("meta", {}), sort_keys=True),
            ),
        )

    def records(self) -> list[dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT key, schema, metrics, meta, runtime FROM results "
            "WHERE schema = ? ORDER BY rowid",
            (self.schema_version,),
        )
        return [self._row_to_record(row) for row in rows]

    def failures(self) -> list[dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM failures WHERE schema = ? "
            "AND key NOT IN (SELECT key FROM results WHERE schema = ?)",
            (self.schema_version, self.schema_version),
        )
        return [
            {
                "schema": row["schema"],
                "key": row["key"],
                "kind": FAILURE_KIND,
                "error": row["error"],
                "meta": json.loads(row["meta"]),
            }
            for row in rows
        ]

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE schema = ?", (self.schema_version,)
        ).fetchone()
        return int(row[0])

    def __contains__(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE key = ? AND schema = ?",
            (key, self.schema_version),
        ).fetchone()
        return row is not None

    def close(self) -> None:
        self._conn.close()


BACKENDS: dict[str, type[StoreBackend]] = {
    backend.kind: backend for backend in (JsonlBackend, SqliteBackend)
}

#: Path suffixes implying the SQLite backend.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def split_backend_spec(spec: str) -> tuple[str | None, str]:
    """Split an explicit ``backend:path`` store spec (``"sqlite:res.db"``)."""
    head, sep, tail = spec.partition(":")
    if sep and head == "sharded":
        raise RemovedBackendError()
    if sep and head in BACKENDS:
        return head, tail
    return None, spec


def infer_backend(path: Path) -> str:
    """Pick a backend from a bare path (by suffix)."""
    return "sqlite" if path.suffix in SQLITE_SUFFIXES else "jsonl"


def check_backend(kind: str) -> None:
    """Reject a backend kind that does not exist."""
    if kind == "sharded":
        raise RemovedBackendError()
    if kind not in BACKENDS:
        raise ValueError(
            f"unknown store backend {kind!r}; expected one of {sorted(BACKENDS)}"
        )


def make_backend(
    path: str | Path,
    schema_version: int,
    backend: str | None = None,
    fsync: bool = True,
) -> StoreBackend:
    """Build the backend for a store path.

    ``backend`` forces a kind (``"jsonl"``/``"sqlite"``); string paths
    may carry the same prefix (``"sqlite:results.db"``, usable via
    ``--store`` and ``REPRO_STORE``).  Bare paths infer from the suffix:
    ``.sqlite``/``.sqlite3``/``.db`` → SQLite, anything else → the
    single-file JSON-lines store.  A directory is a store of the removed
    sharded backend and raises :class:`RemovedBackendError`.
    """
    if isinstance(path, str):
        prefix, path = split_backend_spec(path)
        if prefix is not None:
            if backend is not None and backend != prefix:
                raise ValueError(
                    f"store spec {prefix}:{path} conflicts with backend={backend!r}"
                )
            backend = prefix
    path = Path(path)
    if path.is_dir():
        raise RemovedBackendError()
    kind = backend if backend is not None else infer_backend(path)
    check_backend(kind)
    return BACKENDS[kind](path, schema_version, fsync=fsync)
