"""Shared helpers for the aggregate-figure benchmarks (Figs. 6-10, 13-17).

All five aggregate figures of a grid derive from the same runs; the
benchmarks pass the session's ``sweep_store`` fixture, so only the first
benchmark of the session that plots a grid pays its simulation cost and the
others are served from the store.
"""

from __future__ import annotations

from repro.experiments import figures, report
from repro.experiments.grid import GridSpec

from conftest import BENCH_BUFFERS, BENCH_DURATION


def run_aggregate(metric: str, store, **axes):
    """``metric``'s figure of the bench grid, ``axes`` overriding its defaults."""
    grid = GridSpec(**{"buffers_bdp": BENCH_BUFFERS, "duration_s": BENCH_DURATION, **axes})
    return figures.aggregate_figure(metric, grid, store=store)


def print_aggregate(title: str, data) -> None:
    print()
    for discipline, by_mix in data.items():
        print(report.series_table(f"{title} [{discipline}]", by_mix))
        print()


def series_value(data, discipline: str, mix: str, buffer_bdp: float) -> float:
    for x, y in data[discipline][mix]:
        if x == buffer_bdp:
            return y
    raise KeyError((discipline, mix, buffer_bdp))
