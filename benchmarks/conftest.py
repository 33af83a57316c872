"""Shared configuration of the benchmark harness.

Every benchmark regenerates the data behind one figure or table of the
paper and prints the reproduced series, so running

    pytest benchmarks/ --benchmark-only

prints the full set of reproduced results; each benchmark asserts the
shape the paper reports for its figure (figure numbers as in PAPER.md).

By default the aggregate sweeps use a reduced buffer grid (1, 4, 7 BDP) and
a slightly shortened trace duration so the whole suite completes in a few
minutes on a laptop; set ``REPRO_BENCH_FULL=1`` to run the paper's full
1-7 BDP grid and durations.  The aggregate figures of one session share
their grid runs through one temporary store (the ``sweep_store`` fixture).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from repro.experiments.store import SweepStore  # noqa: E402

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Buffer grid used by the aggregate-figure benchmarks.
BENCH_BUFFERS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0) if FULL else (1.0, 4.0, 7.0)
#: Duration of the aggregate scenarios.
BENCH_DURATION = 5.0 if FULL else 4.0
#: Duration of the single-flow trace validations.
TRACE_DURATION = 30.0 if FULL else 10.0
#: Integration step used by the benchmarks.
BENCH_DT = 2.5e-4
#: Directory of the ``BENCH_<name>.json`` records.  They are untracked
#: per-run output (the CI ``bench`` job uploads them as an artifact);
#: performance trajectories are measured by perfbench.
BENCH_DIR = Path(__file__).parent


#: Key of a ``BENCH_<name>.json`` record that maps each writer to its keys.
WRITERS_KEY = "_writers"


def record_bench(name: str, section: dict) -> None:
    """Write ``section``'s top-level keys into ``BENCH_<name>.json``.

    A record's writers are the tests that call this one helper, each named
    by its pytest node id, and each owns the keys of its last write.  A
    write replaces its writer's keys, so a key a benchmark stopped writing
    leaves the file, and keeps every other writer's, so running one
    benchmark alone never clobbers another's numbers.  Keys no writer owns
    (a record written before ownership was tracked) are dropped.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    try:
        results = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        results = {}
    writers = results.pop(WRITERS_KEY, {})
    writer = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
    writers[writer] = sorted(section)
    owned = {key for keys in writers.values() for key in keys}
    results = {key: value for key, value in results.items() if key in owned}
    results.update(section)
    results[WRITERS_KEY] = writers
    path.write_text(json.dumps(results, indent=2) + "\n")


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    """Keep benchmarks hermetic: never pick up an operator's REPRO_STORE file."""
    monkeypatch.delenv("REPRO_STORE", raising=False)


def run_once(benchmark, func, *args, **kwargs):
    """Run a benchmark exactly once (the figures are deterministic and heavy)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def sweep_store(tmp_path_factory):
    """The session's one store: each aggregate grid point is computed once."""
    store = SweepStore(tmp_path_factory.mktemp("sweep") / "points.jsonl", fsync=False)
    yield store
    store.close()


@pytest.fixture(scope="session")
def bench_buffers():
    return BENCH_BUFFERS


@pytest.fixture(scope="session")
def bench_duration():
    return BENCH_DURATION
