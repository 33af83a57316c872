"""Buffer-sizing study: how fairness, loss and queuing depend on buffer depth.

Reproduces a slice of the paper's Figs. 6-8 for a chosen set of CCA mixes:
the fluid model is swept over buffer sizes under drop-tail and RED queueing
and the resulting metrics are printed as tables and written to CSV.

Usage::

    python examples/buffer_sizing_study.py [output.csv]
"""

from __future__ import annotations

import sys

from repro.experiments import GridSpec, report, sweep


def main(csv_path: str | None = None) -> None:
    mixes = ["BBRv1", "BBRv2", "BBRv1/RENO", "BBRv2/RENO"]
    buffers = [1.0, 2.0, 4.0, 7.0]

    grid = GridSpec(mixes=mixes, buffers_bdp=buffers, disciplines=["droptail", "red"], duration_s=4.0)
    points = sweep.run_campaign(grid).points

    for metric, title in [
        ("jain_fairness", "Jain fairness (Fig. 6)"),
        ("loss_percent", "Loss [%] (Fig. 7)"),
        ("buffer_occupancy_percent", "Buffer occupancy [%] (Fig. 8)"),
    ]:
        for discipline in ("droptail", "red"):
            series = {
                mix: sweep.series(points, metric, mix, discipline) for mix in mixes
            }
            print(report.series_table(f"{title} [{discipline}]", series))
            print()

    if csv_path:
        rows = [point.row() for point in points]
        path = report.write_csv(csv_path, rows)
        print(f"Wrote the full sweep to {path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
