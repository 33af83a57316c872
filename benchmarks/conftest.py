"""Shared configuration of the benchmark harness.

Every benchmark regenerates the data behind one figure or table of the
paper and prints the reproduced series, so running

    pytest benchmarks/ --benchmark-only

produces the full set of reproduced results (recorded in EXPERIMENTS.md).

By default the aggregate sweeps use a reduced buffer grid (1, 4, 7 BDP) and
a slightly shortened trace duration so the whole suite completes in a few
minutes on a laptop; set ``REPRO_BENCH_FULL=1`` to run the paper's full
1-7 BDP grid and durations.
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


def record_bench(name: str, section: dict) -> None:
    """Merge ``section``'s top-level keys into ``BENCH_<name>.json``.

    Benchmarks that share a file each own their keys, so running one alone
    never clobbers another's numbers.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    try:
        results = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        results = {}
    results.update(section)
    path.write_text(json.dumps(results, indent=2) + "\n")


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    """Keep benchmarks hermetic: never pick up an operator's REPRO_STORE file."""
    monkeypatch.delenv("REPRO_STORE", raising=False)


def run_once(benchmark, func, *args, **kwargs):
    """Run a benchmark exactly once (the figures are deterministic and heavy)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def bench_buffers():
    return BENCH_BUFFERS


@pytest.fixture(scope="session")
def bench_duration():
    return BENCH_DURATION
