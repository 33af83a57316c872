"""Command-line interface: run scenarios and campaign grids.

Examples::

    repro-bbr trace bbr1 --discipline droptail --duration 10
    repro-bbr campaign --substrate fluid --buffers 1 4 7 --mixes BBRv1 BBRv1/RENO --seeds 1
    repro-bbr campaign --substrate fluid --buffers 1 4 7 --seeds 1 --per-seed-csv rows.csv
    repro-bbr campaign --substrate fluid --seeds 3 --csv summary.csv
    repro-bbr campaign --store results.jsonl --seeds 5 --workers 4
    repro-bbr campaign --store results.sqlite --workers 4 --skip-failures --retries 1
    repro-bbr campaign --store sqlite:results.out --heartbeat-s 30
    repro-bbr campaign --preset examples/presets/emulation-grid.yaml
    repro-bbr topology --preset parking-lot --hops 3
    repro-bbr topology --preset parking-lot --hops 3 --hop-capacities 100,50,25
    repro-bbr campaign --topology parking-lot --hops 3 --mixes BBRv1 --seeds 1
    repro-bbr campaign --topology parking-lot --hops 3 --hop-delays 0.002,0.02,0.002 --seeds 1
    repro-bbr campaign --arrivals poisson --flow-size-dist pareto --load 0.5 --flows 100 --seeds 1
    repro-bbr campaign --arrivals poisson --flows 1000 --seeds 3 --store churn.jsonl
    repro-bbr campaign --store results.sqlite --workers 4 --trace spans.jsonl
    repro-bbr trace export spans.jsonl --chrome
    repro-bbr store summary results.sqlite
    repro-bbr status results.sqlite --mixes BBRv1 --seeds 5
    repro-bbr status --preset examples/presets/fluid-quick.yaml
    repro-bbr campaign --substrate analytic --mixes BBRv1 BBRv2 --seeds 1 --store results.jsonl
    repro-bbr campaign --substrate fluid --prune-analytic --buffers 1 60 80 --mixes BBRv1 --seeds 1
    repro-bbr campaign --store shard0.jsonl --shard-index 0 --shard-count 2
    repro-bbr store merge shard0.jsonl shard1.jsonl merged.sqlite
    repro-bbr stability --flow-counts 2 10 --buffers 0.25 1 4 --json
    repro-bbr stability --store results.jsonl --csv phase.csv
    repro-bbr theorems
    repro-bbr check
    repro-bbr check --json
    repro-bbr check --update-schema-fingerprint

``campaign`` is the one command that runs a grid (CCA mix x buffer x
discipline x seed).  ``--seeds K`` (default 5) replicates every point under
K scenario seeds and reports mean ± 95% CI per point; ``--csv`` writes
those summary rows (one figure series is one of their columns) and
``--per-seed-csv`` the plain per-seed rows, so ``--seeds 1
--per-seed-csv FILE`` is the single-seed grid as plain rows.
``--store PATH`` (or the ``REPRO_STORE`` environment variable) persists
each completed point immediately, so an interrupted campaign resumes
without recomputing finished points.  The store backend (single-file JSON
lines or SQLite) is inferred from the path or forced with a ``jsonl:``/
``sqlite:`` prefix.
``--retries/--timeout-s/--backoff-s/--heartbeat-s/--skip-failures`` set
the executor policy: with ``--skip-failures``, points that exhaust their
retries are recorded as structured failure rows, the rest of the grid
completes, and the exit code is 1; ``--no-retry-failed`` serves those rows
from the store on warm re-runs instead of recomputing them.
``--preset FILE`` loads the whole campaign definition from a YAML preset
(see :mod:`repro.experiments.presets`) as the ``campaign``/``status``
defaults, so explicit flags (abbreviated ones too) override it and
``--store`` replaces the preset's whole store.

``--arrivals`` switches every grid point from the paper's long-lived flows
to a churn workload (time-varying flow population):
``staggered``/``poisson``/``onoff`` arrivals, ``--flow-size-dist``
``infinite``/``fixed``/``pareto`` flow sizes, ``--load`` offered load as a
fraction of bottleneck capacity and ``--flows`` flows in the schedule.
Churn runs additionally report flow-completion-time percentiles, the
time-weighted Jain index over the *active* flow set and the mean number of
concurrently active flows.

``topology`` runs one multi-bottleneck scenario (parking lot,
multi-dumbbell, or a one-hop dumbbell) on one or both substrates and
reports per-link utilization/loss/queue plus per-flow throughput;
``--topology PRESET`` on ``campaign``/``status`` swaps the whole grid onto
that topology family.  Chains may be heterogeneous:
``--hop-capacities``/``--hop-delays``/``--hop-disciplines`` take one
comma-separated value per hop (validated against ``--hops``).

``--substrate analytic`` swaps every grid point from simulation to the
paper's equilibrium/stability theory (:mod:`repro.analysis`): each point
stores the predicted metrics plus an ``analysis`` block (regime, theorems,
classification, eigenvalues).  ``--prune-analytic`` on ``campaign``
runs an analytic pre-pass over the grid and serves points
whose buffer provably never binds from one representative run (the alias
is recorded in the store's meta).  ``--shard-index I --shard-count K``
deterministically partitions any grid into K disjoint slices by stored
scenario key, so shards run on independent machines and their stores
merge back losslessly with ``store merge SRC... DEST`` (last-write-wins
in argument order; results supersede failure rows).  ``stability``
renders the analytic stable/oscillatory phase diagram over a buffer x
RTT x flow-count grid and — given ``--store`` — validates the
predictions against the store's simulation rows, exiting 1 on residuals
beyond the documented thresholds.

``campaign --trace FILE`` appends a JSON-lines telemetry span log (spans,
counters, executor progress — workers included) that ``trace export
--chrome`` converts for chrome://tracing; tracing never changes results.
``store summary PATH`` renders row/failure counts, per-axis marginals and
runtime percentiles of any store backend; ``status STORE`` compares a
campaign grid (flags or ``--preset``) against the store and reports
done/failed/remaining (exit 0 only when complete).  ``-v``/``-q`` (or
``REPRO_LOG_LEVEL``) tune the structured progress logging on stderr.

``check`` runs the domain static-analysis suite (:mod:`repro.devtools`):
determinism of the simulation kernels, ``derive_rng`` stream hygiene,
cache-key completeness by mutation probing, and the unit-suffix
conventions.  It exits 1 on findings (0 clean, 2 on usage errors) and is
a required CI job; deliberate exceptions live in
``src/repro/devtools/allowlist.txt``.

Imports follow the command.  This module loads only the light layers:
config, grid, presets, store and backends, report and logging.  Each
handler imports the layer it runs: :mod:`repro.core`, :mod:`repro.emulation`
and :mod:`repro.metrics` for ``trace`` and ``topology``,
:mod:`repro.experiments.sweep` (every substrate) for ``campaign``,
:mod:`repro.experiments.phase` (and :mod:`repro.analysis`) for
``stability``, :mod:`repro.experiments.figures` for ``theorems`` and
:mod:`repro.devtools` for ``check``.  So ``status`` and ``store`` never
import numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
from collections.abc import Sequence
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import units
from .config import ARRIVAL_PROCESSES, SIZE_DISTRIBUTIONS
from .experiments import presets, report, scenarios
from .experiments.backends import split_backend_spec
from .experiments.executor import ExecutorPolicy
from .experiments.grid import GridSpec, SweepPointError, distinct_points
from .experiments.store import ENV_VAR, SweepStore, resolve_store
from .obs import log as obs_log

if TYPE_CHECKING:
    from .experiments.sweep import SummaryPoint

#: CCAs of the single-flow trace-validation scenarios.
TRACE_CCAS = ("reno", "cubic", "bbr1", "bbr2")


def _add_trace_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="run a single-flow trace-validation scenario, or export a "
        "telemetry span log",
    )
    trace_sub = parser.add_subparsers(dest="trace_command", required=True)
    for cca in TRACE_CCAS:
        sub = trace_sub.add_parser(cca, help=f"run the {cca} trace-validation scenario")
        # ``cca`` is never set by the subparser action itself, so the
        # legacy ``repro-bbr trace bbr1`` surface keeps parsing unchanged.
        sub.set_defaults(cca=cca)
        sub.add_argument("--discipline", choices=list(scenarios.DISCIPLINES), default="droptail")
        sub.add_argument("--duration", type=float, default=10.0)
        sub.add_argument("--substrate", choices=["fluid", "emulation"], default="fluid")
        sub.add_argument("--buffer-bdp", type=float, default=1.0)
    export = trace_sub.add_parser(
        "export",
        help="convert a --trace span log into another format",
    )
    export.add_argument("span_log", metavar="SPANLOG", help="JSON-lines span log written by --trace")
    export.add_argument(
        "--chrome",
        action="store_true",
        help="emit a chrome://tracing / Perfetto trace-event JSON document",
    )
    export.add_argument(
        "-o",
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="output path (default: SPANLOG with a .chrome.json suffix)",
    )


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help="compute only the I-th of --shard-count deterministic grid "
        "slices (0-based; partitioned by stored scenario key)",
    )
    parser.add_argument(
        "--shard-count",
        type=int,
        default=None,
        metavar="K",
        help="partition the grid into K disjoint slices; disjoint shard "
        "stores merge back with 'repro-bbr store merge'",
    )


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    """``-v``/``--quiet`` verbosity flags (also honoured before the command)."""
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log debug-level progress events to stderr",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress logging (errors only)",
    )


def _comma_list(text: str) -> tuple[str, ...]:
    """Split a comma-separated CLI list, tolerating stray whitespace."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _add_hop_list_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hop-capacities",
        type=_comma_list,
        default=None,
        metavar="MBPS,...",
        help="per-hop capacities in Mbps (comma list, one value per --hops)",
    )
    parser.add_argument(
        "--hop-delays",
        type=_comma_list,
        default=None,
        metavar="SECONDS,...",
        help="per-hop one-way propagation delays in seconds (comma list)",
    )
    parser.add_argument(
        "--hop-disciplines",
        type=_comma_list,
        default=None,
        metavar="DISC,...",
        help="per-hop queue disciplines (comma list of droptail/red)",
    )


def _add_topology_axis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        choices=list(scenarios.TOPOLOGY_PRESETS),
        default=None,
        help="swap every grid point onto a multi-bottleneck topology preset",
    )
    parser.add_argument(
        "--hops",
        type=int,
        default=3,
        help="chain length (parking-lot) or dumbbell count (multi-dumbbell)",
    )
    parser.add_argument(
        "--cross-flows",
        type=int,
        default=1,
        help="cross flows per hop (parking-lot) or spanning flows (multi-dumbbell)",
    )
    _add_hop_list_flags(parser)


def _add_churn_axis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arrivals",
        choices=list(ARRIVAL_PROCESSES),
        default=None,
        help="switch every grid point to a churn workload with this arrival process",
    )
    parser.add_argument(
        "--flow-size-dist",
        choices=list(SIZE_DISTRIBUTIONS),
        default=None,
        help="flow-size distribution of the churn workload "
        "(default: pareto; infinite for --arrivals onoff)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=None,
        metavar="FRACTION",
        help="offered load as a fraction of bottleneck capacity (default: 0.5)",
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=None,
        metavar="N",
        help="number of flows in the churn schedule (default: 100)",
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The grid axes shared by ``campaign`` and ``status``."""
    parser.add_argument(
        "--substrate", choices=["fluid", "emulation", "analytic"], default="emulation"
    )
    parser.add_argument(
        "--buffers", type=float, nargs="+", default=list(scenarios.BUFFER_SWEEP_BDP)
    )
    parser.add_argument("--mixes", nargs="+", default=list(scenarios.CCA_MIXES))
    parser.add_argument("--disciplines", nargs="+", default=list(scenarios.DISCIPLINES))
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--short-rtt", action="store_true")


def _add_campaign_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "campaign",
        help="run (or resume) a seed-replicated sweep over the full grid and export it",
    )
    _add_grid_flags(parser)
    parser.add_argument(
        "--csv", type=str, default=None, help="write the mean/std/CI summary rows to this CSV file"
    )
    parser.add_argument(
        "--per-seed-csv",
        type=str,
        default=None,
        help="write the raw per-seed rows to this CSV file",
    )
    parser.add_argument(
        "--preset",
        type=str,
        default=None,
        metavar="FILE",
        help="load the campaign definition (grid, substrate, seeds, store "
        "backend, executor policy) from this YAML preset; explicitly passed "
        "flags override the preset",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=5,
        metavar="K",
        help="replicate every point under K scenario seeds and report mean ± 95%% CI",
    )
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="PATH",
        help="persistent result store (defaults to $REPRO_STORE); the backend "
        "is inferred from the path unless a jsonl:/sqlite: prefix forces it",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan uncached grid points out to N worker processes",
    )
    _add_topology_axis_flags(parser)
    _add_churn_axis_flags(parser)
    parser.add_argument(
        "--prune-analytic",
        action="store_true",
        help="analytic grid pre-pass: serve points whose buffer provably "
        "never binds from one representative run (aliases recorded in "
        "the store meta)",
    )
    _add_shard_flags(parser)
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry each failing task (one point, or one fluid lockstep chunk) "
            "up to N times with exponential backoff"
        ),
    )
    parser.add_argument(
        "--backoff-s",
        type=float,
        default=None,
        metavar="S",
        help="base backoff between retry rounds in seconds (default: 0.5)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        metavar="S",
        help=(
            "per-point wall-clock timeout in seconds; a fluid lockstep chunk "
            "gets it once per point it holds (default: none)"
        ),
    )
    parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=None,
        metavar="S",
        help="log campaign progress every S seconds",
    )
    parser.add_argument(
        "--skip-failures",
        action="store_true",
        help="record points that exhaust their retries as failure rows and "
        "complete the rest of the grid (exit 1) instead of raising",
    )
    parser.add_argument(
        "--no-retry-failed",
        action="store_true",
        help="serve previously recorded failure rows from the store instead "
        "of recomputing them (warm re-runs recompute nothing)",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help="append a JSON-lines telemetry span log (spans, counters, "
        "executor progress) to FILE; convert it with "
        "'repro-bbr trace export FILE --chrome'",
    )
    _add_logging_flags(parser)


def _add_topology_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "topology",
        help="run one multi-bottleneck scenario and report per-link/per-flow results",
    )
    parser.add_argument(
        "--preset", choices=list(scenarios.TOPOLOGY_PRESETS), default="parking-lot"
    )
    parser.add_argument(
        "--hops",
        type=int,
        default=3,
        help="chain length (parking-lot) or dumbbell count (multi-dumbbell)",
    )
    parser.add_argument(
        "--cross-flows",
        type=int,
        default=1,
        help="cross flows per hop (parking-lot) or spanning flows (multi-dumbbell)",
    )
    _add_hop_list_flags(parser)
    parser.add_argument("--mix", choices=sorted(scenarios.CCA_MIXES), default="BBRv1")
    parser.add_argument(
        "--cross-cca",
        choices=["reno", "cubic", "bbr1", "bbr2"],
        default="cubic",
        help="CCA of the cross/spanning flows",
    )
    parser.add_argument(
        "--substrate", choices=["fluid", "emulation", "both"], default="both"
    )
    parser.add_argument("--buffer-bdp", type=float, default=1.0)
    parser.add_argument(
        "--discipline", choices=list(scenarios.DISCIPLINES), default="droptail"
    )
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="write the per-link and per-flow rows to this CSV file",
    )


def _add_store_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "store",
        help="inspect a persistent result store without running anything",
    )
    store_sub = parser.add_subparsers(dest="store_command", required=True)
    summary = store_sub.add_parser(
        "summary",
        help="row/failure counts, per-axis marginals and runtime percentiles",
    )
    summary.add_argument("path", metavar="STORE", help="store path (any backend)")
    summary.add_argument(
        "--json", action="store_true", help="emit the summary as a JSON document"
    )
    merge = store_sub.add_parser(
        "merge",
        help="merge one or more source stores into a destination store "
        "(last-write-wins in argument order; results supersede failures)",
    )
    merge.add_argument(
        "stores",
        nargs="+",
        metavar="SRC... DEST",
        help="source store paths followed by the destination (backends may "
        "differ freely; force one with a backend: prefix)",
    )


def _add_status_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "status",
        help="report done/failed/remaining points of a campaign grid "
        "against its store",
    )
    parser.add_argument(
        "store",
        nargs="?",
        default=None,
        metavar="STORE",
        help="store path (defaults to the --preset's store)",
    )
    parser.add_argument(
        "--preset",
        type=str,
        default=None,
        metavar="FILE",
        help="campaign YAML preset defining the grid (and default store)",
    )
    _add_grid_flags(parser)
    parser.add_argument(
        "--seeds",
        type=int,
        default=5,
        metavar="K",
        help="seed replication of the grid being checked (default: 5)",
    )
    _add_topology_axis_flags(parser)
    _add_churn_axis_flags(parser)
    _add_shard_flags(parser)
    parser.add_argument(
        "--json", action="store_true", help="emit the status as a JSON document"
    )


def _add_stability_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "stability",
        help="analytic stable/oscillatory phase diagram over a buffer x RTT "
        "x flow-count grid, optionally validated against a store",
    )
    parser.add_argument(
        "--versions",
        nargs="+",
        choices=list(scenarios.PHASE_VERSIONS),
        default=list(scenarios.PHASE_VERSIONS),
    )
    parser.add_argument(
        "--flow-counts",
        type=int,
        nargs="+",
        default=list(scenarios.PHASE_FLOW_COUNTS),
        metavar="N",
    )
    parser.add_argument(
        "--rtts-ms",
        type=float,
        nargs="+",
        default=list(scenarios.PHASE_RTTS_MS),
        metavar="MS",
    )
    parser.add_argument(
        "--buffers",
        type=float,
        nargs="+",
        default=list(scenarios.PHASE_BUFFERS_BDP),
        metavar="BDP",
    )
    parser.add_argument("--capacity-mbps", type=float, default=100.0)
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="PATH",
        help="validate the predictions against this store's simulation rows "
        "(exit 1 when any row disagrees beyond the documented thresholds)",
    )
    parser.add_argument(
        "--substrate",
        choices=["fluid", "emulation"],
        default=None,
        help="restrict validation to one simulation substrate",
    )
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="write the phase-diagram rows to this CSV file",
    )
    parser.add_argument(
        "--validation-csv",
        type=str,
        default=None,
        help="write the prediction-vs-simulation residual rows to this CSV file",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the phase diagram and validation as a JSON document",
    )


def _add_theorem_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser("theorems", help="print the Theorem 1-5 summary table")
    parser.add_argument("--flows", type=int, nargs="+", default=[2, 5, 10, 50])
    parser.add_argument("--delay", type=float, default=0.035)


def _add_check_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "check",
        help="run the domain static-analysis suite (determinism, RNG streams, "
        "cache keys, units)",
    )
    parser.add_argument(
        "--root",
        type=str,
        default=None,
        help="repository root to scan (default: auto-detected from the package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as a JSON document"
    )
    parser.add_argument(
        "--update-schema-fingerprint",
        action="store_true",
        help="regenerate the committed hashed-field-set fingerprint "
        "(run after bumping SCHEMA_VERSION)",
    )


def build_parser(preset: presets.CampaignPreset | None = None) -> argparse.ArgumentParser:
    """Build the top-level argument parser.

    ``preset`` becomes the ``campaign``/``status`` defaults, so argparse's
    own precedence applies: an explicitly passed flag beats the preset.
    """
    parser = argparse.ArgumentParser(
        prog="repro-bbr",
        description="Reproduction of the IMC 2022 BBR fluid-model paper",
    )
    _add_logging_flags(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_trace_parser(subparsers)
    _add_campaign_parser(subparsers)
    _add_topology_parser(subparsers)
    _add_store_parser(subparsers)
    _add_status_parser(subparsers)
    _add_stability_parser(subparsers)
    _add_theorem_parser(subparsers)
    _add_check_parser(subparsers)
    if preset is not None:
        defaults = _preset_defaults(preset)
        for command in ("campaign", "status"):
            subparsers.choices[command].set_defaults(**defaults)
    return parser


def _run_trace_export(args: argparse.Namespace) -> int:
    from .obs import export_chrome

    span_log = Path(args.span_log)
    if not span_log.exists():
        raise FileNotFoundError(f"span log {args.span_log} not found")
    if not args.chrome:
        raise ValueError("select an export format (currently only --chrome)")
    count, out_path = export_chrome(span_log, args.output)
    print(f"wrote {out_path} ({count} trace events)")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        return _run_trace_export(args)
    from .core.simulator import simulate
    from .emulation.runner import emulate
    from .metrics.aggregate import aggregate_metrics

    # The paper's single-flow trace-validation scenario (Sec. 4.2), matching
    # the help text: 31.2 ms RTT and fair-share initial window for the
    # loss-based CCAs (the fluid models have no slow-start phase).
    config = scenarios.trace_validation_scenario(
        args.cca,
        discipline=args.discipline,
        duration_s=args.duration,
        buffer_bdp=args.buffer_bdp,
    )
    trace = simulate(config) if args.substrate == "fluid" else emulate(config)
    metrics = aggregate_metrics(trace)
    rows = [[key, value] for key, value in metrics.as_dict().items()]
    print(report.format_table(["metric", "value"], rows))
    return 0


def _summary_display_rows(points: Sequence[SummaryPoint]) -> list[dict[str, object]]:
    """Compact mean ± CI table rows for seed-replicated sweep points."""
    rows: list[dict[str, object]] = []
    for point in points:
        row: dict[str, object] = {
            "mix": point.mix,
            "buffer_bdp": point.buffer_bdp,
            "discipline": point.discipline,
            "substrate": point.substrate,
            "seeds": point.summary.num_seeds,
        }
        means = point.summary.mean.as_dict()
        cis = point.summary.ci95.as_dict()
        for name in means:
            row[name] = report.format_mean_ci(means[name], cis[name])
        rows.append(row)
    return rows


#: :class:`GridSpec` fields whose CLI flag dest is spelled differently.
_DEST_OF_GRID_FIELD = {"buffers_bdp": "buffers", "duration_s": "duration"}
_GRID_FIELD_OF_DEST = {dest: name for name, dest in _DEST_OF_GRID_FIELD.items()}
_GRID_FIELDS = {f.name for f in fields(GridSpec)}


def _preset_defaults(preset: presets.CampaignPreset) -> dict[str, object]:
    """The ``campaign``/``status`` flag defaults a YAML preset stands for.

    The preset's store is one ``[backend:]path`` spec, so an explicit
    ``--store`` replaces it wholesale, backend included.  ``fsync`` has no
    flag: a preset's ``store.fsync`` applies to whichever store is opened.
    """
    policy = preset.executor
    store = preset.store_path
    if store is not None and preset.store_backend is not None:
        store = f"{preset.store_backend}:{split_backend_spec(store)[1]}"
    return {
        **{
            _DEST_OF_GRID_FIELD.get(name, name): getattr(preset.grid, name)
            for name in _GRID_FIELDS
        },
        "workers": policy.workers,
        "retries": policy.retries,
        "backoff_s": policy.backoff_s,
        "timeout_s": policy.timeout_s,
        "heartbeat_s": policy.heartbeat_s,
        "skip_failures": policy.on_failure == "skip",
        "no_retry_failed": not preset.retry_failed,
        "store": store,
        "fsync": preset.store_fsync,
    }


def _hop_floats(values: tuple[str, ...] | None, flag: str) -> tuple[float, ...] | None:
    if values is None:
        return None
    try:
        return tuple(float(v) for v in values)
    except ValueError:
        raise ValueError(
            f"{flag} expects a comma list of numbers, got {','.join(values)!r}"
        ) from None


def _grid_from_args(args: argparse.Namespace) -> GridSpec:
    """The :class:`GridSpec` named by the grid flags (and a preset's defaults).

    Raises :class:`ValueError` on a malformed grid.
    """
    values = {
        _GRID_FIELD_OF_DEST.get(dest, dest): value
        for dest, value in vars(args).items()
        if _GRID_FIELD_OF_DEST.get(dest, dest) in _GRID_FIELDS
    }
    values["hop_capacities"] = _hop_floats(values["hop_capacities"], "--hop-capacities")
    values["hop_delays"] = _hop_floats(values["hop_delays"], "--hop-delays")
    return GridSpec(**values)


def _campaign_policy(args: argparse.Namespace) -> ExecutorPolicy:
    """The executor policy of the flags; an unset flag keeps the policy default."""
    given = {
        name: getattr(args, name)
        for name in ("workers", "retries", "backoff_s", "timeout_s", "heartbeat_s")
        if getattr(args, name) is not None
    }
    return ExecutorPolicy(**given, on_failure="skip" if args.skip_failures else "raise")


def _run_campaign(args: argparse.Namespace) -> int:
    from .experiments import sweep

    grid = _grid_from_args(args)
    store = resolve_store(args.store, fsync=getattr(args, "fsync", True))
    if store is None:
        obs_log.warning(
            "campaign.store_missing",
            "no --store/REPRO_STORE configured; campaign results will "
            "not be persisted or resumable",
        )
    result = sweep.run_campaign(
        grid,
        store=store,
        executor=_campaign_policy(args),
        retry_failed=not args.no_retry_failed,
        trace=args.trace,
        prune_analytic=args.prune_analytic,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
    )
    points, failures = result.points, result.failures
    rows = [point.row() for point in points]
    if not rows and not failures:
        if args.shard_count is not None:
            # Hash partitioning can leave a worker's slice empty on small
            # grids; that is a completed (trivial) campaign, not an error.
            print(
                f"shard {args.shard_index}/{args.shard_count} contains "
                "no grid points"
            )
            return 0
        print(
            "campaign produced no points; check --mixes/--buffers/--disciplines",
            file=sys.stderr,
        )
        return 1
    if rows:
        display = _summary_display_rows(points)
        print(report.format_table(list(display[0].keys()), [list(r.values()) for r in display]))
    if args.csv and rows:
        path = report.write_csv(args.csv, rows)
        print(f"wrote {path}")
    if args.per_seed_csv:
        if store is not None:
            # Exactly the stored records of this grid — one row per distinct
            # key, the points ``status`` counts — since the store may hold
            # other campaigns too.  The point's own coordinates, not the
            # stored meta, which may carry nested analysis/pruned blocks.
            records = {record["key"]: record for record in store.records()}
            per_seed = [
                {**p.meta(), **records[p.key]["metrics"]}
                for p in distinct_points(grid, args.shard_index, args.shard_count)
                if p.key in records
            ]
        else:
            per_seed = [point.row() for point in result.replicas]
        path = report.write_csv(args.per_seed_csv, per_seed)
        print(f"wrote {path}")
    if store is not None:
        print(f"store: {store.path} ({len(store)} points)")
    if failures:
        # The grid completed; report what the executor gave up on and exit
        # nonzero so CI/schedulers notice without losing the finished work.
        failure_rows = [f.row() for f in failures]
        obs_log.error("campaign.failures", f"{len(failures)} point(s) failed:")
        print(
            report.format_table(
                list(failure_rows[0].keys()),
                [list(r.values()) for r in failure_rows],
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def _topology_flow_rows(config, trace, substrate: str) -> list[dict[str, object]]:
    """Per-flow rows of one topology run (throughput, RTT, path)."""
    topo = config.effective_topology()
    rows: list[dict[str, object]] = []
    for i, flow in enumerate(trace.flows):
        rtt = flow.rtt[flow.rtt > 0]
        rows.append(
            {
                "substrate": substrate,
                "flow": f"flow-{i}",
                "cca": flow.cca,
                "path": ">".join(topo.paths[i]),
                "throughput_mbps": units.pps_to_mbps(flow.mean_goodput()),
                "mean_rtt_ms": 1000.0 * float(rtt.mean()) if len(rtt) else 0.0,
            }
        )
    return rows


def _run_topology(args: argparse.Namespace) -> int:
    from .core.simulator import simulate
    from .emulation.runner import emulate
    from .metrics.aggregate import link_metrics

    config = scenarios.topology_scenario(
        args.preset,
        mix=args.mix,
        hops=args.hops,
        cross_flows=args.cross_flows,
        cross_cca=args.cross_cca,
        buffer_bdp=args.buffer_bdp,
        discipline=args.discipline,
        duration_s=args.duration,
        seed=args.seed,
        hop_capacities=_hop_floats(args.hop_capacities, "--hop-capacities"),
        hop_delays=_hop_floats(args.hop_delays, "--hop-delays"),
        hop_disciplines=args.hop_disciplines,
    )
    substrates = ["fluid", "emulation"] if args.substrate == "both" else [args.substrate]
    csv_rows: list[dict[str, object]] = []
    for substrate in substrates:
        trace = simulate(config) if substrate == "fluid" else emulate(config)
        metrics = link_metrics(trace)
        link_rows = [
            {"substrate": substrate, **row} for row in report.link_rows(metrics)
        ]
        flow_rows = _topology_flow_rows(config, trace, substrate)
        print(f"{args.preset} (hops={args.hops}, cross_flows={args.cross_flows}) "
              f"[{substrate}] — per-link")
        print(report.link_table(metrics))
        print()
        print(f"{args.preset} [{substrate}] — per-flow")
        print(report.format_table(list(flow_rows[0].keys()),
                                  [list(r.values()) for r in flow_rows]))
        print()
        for row in link_rows:
            csv_rows.append({"kind": "link", **row})
        for row in flow_rows:
            csv_rows.append({"kind": "flow", **row})
    if args.csv:
        # One file, two row kinds: normalise to the union of the columns.
        fields: list[str] = []
        for row in csv_rows:
            for name in row:
                if name not in fields:
                    fields.append(name)
        normalised = [{name: row.get(name, "") for name in fields} for row in csv_rows]
        path = report.write_csv(args.csv, normalised)
        print(f"wrote {path}")
    return 0


def _open_existing_store(spec: str) -> SweepStore:
    """Open a store for read-only introspection; refuse to create one.

    Opening a missing path would silently create an empty store (SQLite
    even writes a file), which turns a typo into "0 results".
    """
    _, raw = split_backend_spec(spec)
    if not Path(raw).exists():
        raise FileNotFoundError(f"store {raw} not found")
    return SweepStore(spec)


def _run_store_merge(args: argparse.Namespace) -> int:
    if len(args.stores) < 2:
        raise ValueError("store merge needs at least one SRC and a DEST")
    *sources, dest = args.stores
    dest_path = Path(split_backend_spec(dest)[1]).resolve()
    for spec in sources:
        if Path(split_backend_spec(spec)[1]).resolve() == dest_path:
            raise ValueError(f"destination {dest} is also a merge source")
    dest_store = SweepStore(dest)
    try:
        for spec in sources:
            src_store = _open_existing_store(spec)
            try:
                results, failures = dest_store.merge_from(src_store)
            finally:
                src_store.close()
            print(f"merged {spec}: {results} result(s), {failures} failure(s)")
        print(
            f"store: {dest_store.path} ({len(dest_store)} points, "
            f"{len(dest_store.failures())} open failures)"
        )
    finally:
        dest_store.close()
    return 0


def _run_store(args: argparse.Namespace) -> int:
    if args.store_command == "merge":
        return _run_store_merge(args)
    from .experiments.summary import render_summary, summarize_store

    store = _open_existing_store(args.path)
    try:
        summary = summarize_store(store)
    finally:
        store.close()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _run_status(args: argparse.Namespace) -> int:
    if args.store is None:
        raise ValueError("no store to check; pass STORE or a --preset naming one")
    grid = distinct_points(_grid_from_args(args), args.shard_index, args.shard_count)
    store = _open_existing_store(args.store)
    try:
        failed_keys = {record["key"] for record in store.failures()}
        done: list[dict] = []
        failed: list[dict] = []
        remaining: list[dict] = []
        for point in grid:
            if point.key in store:
                done.append(point.coords())
            elif point.key in failed_keys:
                failed.append(point.coords())
            else:
                remaining.append(point.coords())
        store_path = str(store.path)
    finally:
        store.close()
    if args.json:
        print(
            json.dumps(
                {
                    "store": store_path,
                    "grid": len(grid),
                    "done": len(done),
                    "failed": len(failed),
                    "remaining": len(remaining),
                    "failed_points": failed,
                    "remaining_points": remaining,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"store {store_path}: {len(grid)} grid point(s) — "
            f"{len(done)} done, {len(failed)} failed, {len(remaining)} remaining"
        )
        for title, coords_list in (("failed", failed), ("remaining", remaining)):
            # Keep the text report readable for huge grids; --json has it all.
            if coords_list and len(coords_list) <= 20:
                print(f"\n{title}:")
                print(
                    report.format_table(
                        list(coords_list[0].keys()),
                        [list(c.values()) for c in coords_list],
                    )
                )
    # Scripting-friendly: 0 only when the grid is fully computed.
    return 0 if not failed and not remaining else 1


def _detect_repo_root() -> str:
    """The repository root containing this installed/served package.

    With the repo's ``src`` layout, the package lives at
    ``<root>/src/repro``; fall back to the current directory when the
    package is imported from elsewhere (e.g. an installed wheel).
    """
    package_dir = Path(__file__).resolve().parent
    candidate = package_dir.parent.parent
    if (candidate / "src" / "repro").is_dir():
        return str(candidate)
    return "."


def _run_check(args: argparse.Namespace) -> int:
    from . import devtools
    from .devtools.cachekey import write_schema_fingerprint

    if args.update_schema_fingerprint:
        payload = write_schema_fingerprint()
        print(
            f"wrote schema fingerprint for SCHEMA_VERSION "
            f"{payload['schema_version']}: {payload['fingerprint'][:16]}..."
        )
        return 0
    root = args.root if args.root is not None else _detect_repo_root()
    findings, warnings = devtools.run_check(root)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in findings],
                    "count": len(findings),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            "no findings"
            if not findings
            else f"{len(findings)} finding(s) across "
            f"{len({f.path for f in findings})} file(s)"
        )
        print(f"repro-bbr check: {summary}")
    return 1 if findings else 0


def _run_stability(args: argparse.Namespace) -> int:
    from .experiments import phase

    rows = phase.phase_grid(
        versions=args.versions,
        flow_counts=args.flow_counts,
        rtts_ms=args.rtts_ms,
        buffers_bdp=args.buffers,
        capacity_mbps=args.capacity_mbps,
    )
    validation: list[dict] = []
    if args.store:
        store = _open_existing_store(args.store)
        try:
            validation = phase.validate_against_store(
                store, substrate=args.substrate
            )
        finally:
            store.close()
    disagreements = [row for row in validation if not row["agrees"]]
    if args.json:
        print(
            json.dumps(
                phase.json_safe(
                    {
                        "phase": rows,
                        "validation": validation,
                        "thresholds": dict(phase.DEFAULT_THRESHOLDS),
                        "disagreements": len(disagreements),
                    }
                ),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(report.format_table(list(rows[0].keys()), [list(r.values()) for r in rows]))
        if validation:
            limits = ", ".join(
                f"|{metric}| <= {limit}"
                for metric, limit in phase.DEFAULT_THRESHOLDS.items()
            )
            print()
            print(f"validation against store rows (residual thresholds: {limits}):")
            print(
                report.format_table(
                    list(validation[0].keys()),
                    [list(r.values()) for r in validation],
                )
            )
    if args.csv:
        path = report.write_csv(args.csv, rows)
        print(f"wrote {path}")
    if args.validation_csv and validation:
        path = report.write_csv(args.validation_csv, validation)
        print(f"wrote {path}")
    if args.store and not validation:
        print(
            "no validatable simulation rows in the store (needs pure-BBR "
            "droptail dumbbell records)",
            file=sys.stderr,
        )
    if disagreements:
        obs_log.error(
            "stability.disagreements",
            f"{len(disagreements)} store row(s) disagree with the analytic "
            "prediction beyond the documented thresholds",
        )
        return 1
    return 0


def _run_theorems(args: argparse.Namespace) -> int:
    from .experiments import figures

    rows = figures.theorem_table(flow_counts=args.flows, propagation_delay_s=args.delay)
    if not rows:
        print("no theorem rows produced; check --flows", file=sys.stderr)
        return 1
    print(report.format_table(list(rows[0].keys()), [list(r.values()) for r in rows]))
    return 0


def _store_spec(args: argparse.Namespace) -> str:
    """The store (or stores) a command was pointed at, for error messages."""
    return (
        getattr(args, "store", None)
        or getattr(args, "path", None)
        or " ".join(getattr(args, "stores", ()))
        or os.environ.get(ENV_VAR, "")
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if getattr(args, "quiet", False):
        obs_log.set_level("quiet")
    elif getattr(args, "verbose", False):
        obs_log.set_level("debug")
    handlers = {
        "trace": _run_trace,
        "campaign": _run_campaign,
        "topology": _run_topology,
        "store": _run_store,
        "status": _run_status,
        "stability": _run_stability,
        "theorems": _run_theorems,
        "check": _run_check,
    }
    # The one error policy of every command: a point that failed for good
    # exits 1; bad input (ValueError, including PresetError,
    # RemovedBackendError and a store that is not a database; an SQLite
    # error a store raises after it opened) or a missing file exits 2; a
    # reader that closed stdout early exits 141.
    try:
        # ``topology --preset`` names a topology shape, not a YAML file.
        if args.command in ("campaign", "status") and args.preset:
            args = build_parser(presets.load_preset(args.preset)).parse_args(argv)
        code = handlers[args.command](args)
        # Flush here, not at interpreter exit, so a closed pipe lands below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # ``... | head``: point stdout at devnull so the exit-time flush
        # cannot raise again (the idiom of the Python signal docs), and exit
        # 128 + SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except SweepPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sqlite3.DatabaseError as exc:
        print(
            f"error: store {_store_spec(args)} is not a usable SQLite database: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
