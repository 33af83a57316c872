"""Store introspection: counts, axis marginals and runtime percentiles.

A million-point campaign store must be inspectable without writing Python:
``repro-bbr store summary PATH`` renders — for any of the three backends,
through the uniform :meth:`~repro.experiments.store.SweepStore.select`
surface — the result/failure counts, the marginal distribution of every
grid axis (how many rows per mix, per buffer, per discipline, ...), and
percentiles of the per-point ``runtime`` block (wall/CPU seconds) grouped
by substrate.  ``repro-bbr status`` combines the same store view with a
grid definition to report done/failed/remaining.

Everything here is read-only and derives from stored records; rows written
before the runtime block existed simply do not contribute to the runtime
percentiles (the ``points`` count shows the coverage).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from .report import format_table
from .store import SweepStore

#: Grid axes whose marginal row counts the summary reports (in this order).
SUMMARY_AXES = (
    "substrate",
    "mix",
    "discipline",
    "buffer_bdp",
    "seed",
    "topology",
    "arrivals",
    "scheduler",
)

#: Runtime-block fields summarised as percentiles.
RUNTIME_FIELDS = ("wall_s", "cpu_s")

#: Reported percentile levels.
PERCENTILES = (50, 90, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Deterministic and dependency-free (matches numpy's default "linear"
    method); raises on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile level must be in [0, 100]")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _axis_marginals(records: list[dict[str, Any]]) -> dict[str, dict[str, int]]:
    """Row counts per (axis, value), for every axis present in any meta."""
    marginals: dict[str, dict[str, int]] = {}
    for record in records:
        meta = record.get("meta") or {}
        for axis in SUMMARY_AXES:
            if axis not in meta:
                continue
            counts = marginals.setdefault(axis, {})
            value = str(meta[axis])
            counts[value] = counts.get(value, 0) + 1
    return marginals


def _runtime_summary(records: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Runtime-block percentiles grouped by substrate."""
    samples: dict[str, dict[str, list[float]]] = {}
    for record in records:
        runtime = record.get("runtime")
        if not runtime:
            continue
        substrate = str((record.get("meta") or {}).get("substrate", "unknown"))
        buckets = samples.setdefault(substrate, {f: [] for f in RUNTIME_FIELDS})
        for fld in RUNTIME_FIELDS:
            value = runtime.get(fld)
            if value is not None:
                buckets[fld].append(float(value))
    out: dict[str, dict[str, Any]] = {}
    for substrate in sorted(samples):
        buckets = samples[substrate]
        entry: dict[str, Any] = {"points": max(len(v) for v in buckets.values())}
        for fld in RUNTIME_FIELDS:
            values = buckets[fld]
            if not values:
                continue
            entry[fld] = {
                **{f"p{q}": percentile(values, q) for q in PERCENTILES},
                "total": sum(values),
            }
        out[substrate] = entry
    return out


def summarize_store(store: SweepStore) -> dict[str, Any]:
    """One JSON-friendly summary of a result store.

    Keys: ``path``/``backend``, ``rows`` (result records), ``failures``
    (failure records not superseded by a success), ``axes`` (per-axis
    marginal row counts) and ``runtime`` (per-substrate wall/CPU-second
    percentiles of the stored runtime blocks).
    """
    records = store.records()
    failures = store.failures()
    return {
        "path": str(store.path),
        "backend": store.backend,
        "rows": len(records),
        "failures": len(failures),
        "axes": _axis_marginals(records),
        "runtime": _runtime_summary(records),
    }


def render_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_store` output as aligned text tables."""
    lines = [
        f"store {summary['path']} ({summary['backend']}): "
        f"{summary['rows']} results, {summary['failures']} failures"
    ]
    axes = summary.get("axes") or {}
    axis_rows = [
        [axis, value, count]
        for axis in SUMMARY_AXES
        if axis in axes
        for value, count in sorted(axes[axis].items())
    ]
    if axis_rows:
        lines.append("")
        lines.append(format_table(["axis", "value", "rows"], axis_rows))
    runtime = summary.get("runtime") or {}
    runtime_rows = []
    for substrate, entry in runtime.items():
        for fld in RUNTIME_FIELDS:
            stats = entry.get(fld)
            if not stats:
                continue
            runtime_rows.append(
                [
                    substrate,
                    fld,
                    entry["points"],
                    stats["p50"],
                    stats["p90"],
                    stats["p99"],
                    stats["total"],
                ]
            )
    if runtime_rows:
        lines.append("")
        lines.append(
            format_table(
                ["substrate", "metric", "points", "p50", "p90", "p99", "total"],
                runtime_rows,
            )
        )
    return "\n".join(lines)
