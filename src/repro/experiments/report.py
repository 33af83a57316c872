"""Rendering helpers for experiment results: ASCII tables and CSV files.

The repository has no plotting dependency, so every figure of the paper is
regenerated as a *data series* — rows of (x, y) values per line of the
figure — printed as an aligned text table and optionally written to CSV.
The benchmarks in ``benchmarks/`` print these tables and assert the shapes
the paper reports.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from .. import units


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], float_format: str = "{:.3f}"
) -> str:
    """Format rows as an aligned, pipe-separated text table."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_csv(path: str | Path, rows: Sequence[Mapping[str, object]]) -> Path:
    """Write a list of homogeneous dictionaries to a CSV file."""
    path = Path(path)
    if not rows:
        raise ValueError("cannot write an empty CSV")
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = list(rows[0].keys())
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def format_mean_ci(mean: float, ci: float, float_format: str = "{:.3f}") -> str:
    """Render a replicated value as ``mean ± ci`` (95% CI half-width)."""
    return f"{float_format.format(mean)} ± {float_format.format(ci)}"


def link_rows(metrics: Sequence) -> list[dict[str, object]]:
    """Flatten per-link aggregate metrics into display/CSV-friendly rows.

    ``metrics`` is a sequence of :class:`~repro.metrics.aggregate.LinkMetrics`
    (or anything with a compatible ``as_dict``); the internal packets/second
    capacity is rendered as Mbps, matching the paper's figures.
    """
    rows: list[dict[str, object]] = []
    for m in metrics:
        row = dict(m.as_dict())
        row["capacity_mbps"] = units.pps_to_mbps(float(row.pop("capacity_pps")))
        rows.append(row)
    if not rows:
        raise ValueError("at least one link is required")
    return rows


def link_table(metrics: Sequence) -> str:
    """Render per-link aggregate metrics (one row per queued link)."""
    rows = link_rows(metrics)
    return format_table(list(rows[0].keys()), [list(r.values()) for r in rows])


def series_table(
    title: str,
    series_by_label: Mapping[str, Sequence[tuple[float, ...]]],
    x_name: str = "buffer_bdp",
    y_format: str = "{:.3f}",
) -> str:
    """Render several series sharing the same x grid as one table.

    Entries may be ``(x, y)`` pairs or — for seed-replicated campaign
    results — ``(x, mean, ci95)`` triples, rendered as ``mean ± ci``.
    """
    labels = list(series_by_label)
    if not labels:
        raise ValueError("at least one series is required")
    x_values = [point[0] for point in series_by_label[labels[0]]]
    rows = []
    for i, x in enumerate(x_values):
        row: list[object] = [x]
        for label in labels:
            points = series_by_label[label]
            if i >= len(points):
                row.append(float("nan"))
                continue
            point = points[i]
            if len(point) >= 3:
                row.append(format_mean_ci(point[1], point[2], y_format))
            else:
                row.append(point[1])
        rows.append(row)
    table = format_table([x_name, *labels], rows, float_format=y_format)
    return f"{title}\n{table}"
