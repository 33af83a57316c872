"""Command-line interface: run scenarios, sweeps, figures, and campaigns.

Examples::

    repro-bbr trace bbr1 --discipline droptail --duration 10
    repro-bbr sweep --substrate fluid --buffers 1 4 7 --mixes BBRv1 BBRv1/RENO
    repro-bbr sweep --substrate emulation --seeds 5 --store results.jsonl
    repro-bbr figure fig06_fairness --seeds 3 --csv fig06.csv
    repro-bbr campaign --store results.jsonl --seeds 5 --workers 4
    repro-bbr campaign --store results.sqlite --workers 4 --skip-failures --retries 1
    repro-bbr campaign --store sqlite:results.out --heartbeat-s 30
    repro-bbr campaign --preset examples/presets/emulation-grid.yaml
    repro-bbr topology --preset parking-lot --hops 3
    repro-bbr topology --preset parking-lot --hops 3 --hop-capacities 100,50,25
    repro-bbr sweep --topology parking-lot --hops 3 --mixes BBRv1
    repro-bbr sweep --topology parking-lot --hops 3 --hop-delays 0.002,0.02,0.002
    repro-bbr sweep --arrivals poisson --flow-size-dist pareto --load 0.5 --flows 100
    repro-bbr campaign --arrivals poisson --flows 1000 --seeds 3 --store churn.jsonl
    repro-bbr campaign --store results.sqlite --workers 4 --trace spans.jsonl
    repro-bbr trace export spans.jsonl --chrome
    repro-bbr store summary results.sqlite
    repro-bbr status results.sqlite --mixes BBRv1 --seeds 5
    repro-bbr status --preset examples/presets/fluid-quick.yaml
    repro-bbr sweep --substrate analytic --mixes BBRv1 BBRv2 --store results.jsonl
    repro-bbr sweep --prune-analytic --buffers 1 60 80 --mixes BBRv1
    repro-bbr campaign --store shard0.jsonl --shard-index 0 --shard-count 2
    repro-bbr store merge shard0.jsonl shard1.jsonl merged.sqlite
    repro-bbr stability --flow-counts 2 10 --buffers 0.25 1 4 --json
    repro-bbr stability --store results.jsonl --csv phase.csv
    repro-bbr theorems
    repro-bbr check
    repro-bbr check --json
    repro-bbr check --update-schema-fingerprint

``--seeds K`` replicates every sweep point under K scenario seeds and
reports mean ± 95% CI per point; ``--store PATH`` (or the ``REPRO_STORE``
environment variable) persists each completed point immediately, so an
interrupted sweep or campaign resumes without recomputing finished points.
The store backend (single-file JSON lines or SQLite) is inferred from
the path or forced with ``--backend``/a ``backend:`` prefix.
``campaign`` adds the service-grade executor policy
(``--retries/--timeout-s/--backoff-s/--heartbeat-s/--skip-failures``):
with ``--skip-failures``, points that exhaust their retries are recorded
as structured failure rows, the rest of the grid completes, and the exit
code is 1; ``--no-retry-failed`` serves those rows from the store on warm
re-runs instead of recomputing them.  ``--preset FILE`` loads the whole
campaign definition from a YAML preset (see
:mod:`repro.experiments.presets`), with explicit flags overriding it.

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
``--topology PRESET`` on ``sweep``/``campaign`` swaps the whole grid onto
that topology family.  Chains may be heterogeneous:
``--hop-capacities``/``--hop-delays``/``--hop-disciplines`` take one
comma-separated value per hop (validated against ``--hops``).

``--substrate analytic`` swaps every grid point from simulation to the
paper's equilibrium/stability theory (:mod:`repro.analysis`): each point
stores the predicted metrics plus an ``analysis`` block (regime, theorems,
classification, eigenvalues).  ``--prune-analytic`` on ``sweep`` /
``campaign`` runs an analytic pre-pass over the grid and serves points
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
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import fields, replace
from pathlib import Path

from . import units
from .config import ARRIVAL_PROCESSES, SIZE_DISTRIBUTIONS
from .core.simulator import simulate
from .emulation.runner import emulate
from .experiments import figures, phase, presets, report, scenarios, sweep
from .experiments.backends import BACKENDS, split_backend_spec
from .experiments.executor import ExecutorPolicy
from .experiments.grid import GridSpec
from .experiments.store import SweepStore, resolve_store
from .experiments.summary import render_summary, summarize_store
from .metrics.aggregate import aggregate_metrics, link_metrics
from .obs import export_chrome
from .obs import log as obs_log

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


def _add_backend_flag(
    parser: argparse.ArgumentParser,
    help: str = "force the store backend (default: inferred from the path)",
) -> None:
    parser.add_argument("--backend", choices=sorted(BACKENDS), default=None, help=help)


def _add_replication_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="K",
        help="replicate every point under K scenario seeds and report mean ± 95%% CI",
    )
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="PATH",
        help="persistent result store (defaults to $REPRO_STORE); the backend "
        "is inferred from the path unless --backend (or a backend: prefix) "
        "forces it",
    )
    _add_backend_flag(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan uncached sweep points out to N worker processes",
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


def _add_prune_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prune-analytic",
        action="store_true",
        help="analytic grid pre-pass: serve points whose buffer provably "
        "never binds from one representative run (aliases recorded in "
        "the store meta)",
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


def _add_grid_flags(
    parser: argparse.ArgumentParser, substrate: str, buffers: Sequence[float]
) -> None:
    """The grid axes shared by ``sweep``, ``campaign`` and ``status``."""
    parser.add_argument(
        "--substrate", choices=["fluid", "emulation", "analytic"], default=substrate
    )
    parser.add_argument("--buffers", type=float, nargs="+", default=list(buffers))
    parser.add_argument("--mixes", nargs="+", default=list(scenarios.CCA_MIXES))
    parser.add_argument("--disciplines", nargs="+", default=list(scenarios.DISCIPLINES))
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--short-rtt", action="store_true")


def _add_sweep_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser("sweep", help="run the aggregate-validation sweep")
    _add_grid_flags(parser, "fluid", figures.DEFAULT_SWEEP_BUFFERS)
    parser.add_argument("--csv", type=str, default=None, help="write results to this CSV file")
    _add_replication_flags(parser)
    _add_topology_axis_flags(parser)
    _add_churn_axis_flags(parser)
    _add_prune_flag(parser)
    _add_shard_flags(parser)
    _add_logging_flags(parser)


def _add_figure_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser("figure", help="regenerate one aggregate figure")
    parser.add_argument("name", choices=sorted(figures.AGGREGATE_FIGURES))
    parser.add_argument("--substrate", choices=["fluid", "emulation"], default="fluid")
    parser.add_argument("--buffers", type=float, nargs="+", default=list(figures.DEFAULT_SWEEP_BUFFERS))
    parser.add_argument("--mixes", nargs="+", default=None)
    parser.add_argument("--disciplines", nargs="+", default=None)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--short-rtt", action="store_true")
    parser.add_argument("--csv", type=str, default=None, help="write the figure rows to this CSV file")
    _add_replication_flags(parser)


def _add_campaign_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "campaign",
        help="run (or resume) a seed-replicated sweep over the full grid and export it",
    )
    _add_grid_flags(parser, "emulation", scenarios.BUFFER_SWEEP_BDP)
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
    _add_replication_flags(parser)
    _add_topology_axis_flags(parser)
    _add_churn_axis_flags(parser)
    _add_prune_flag(parser)
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
    parser.set_defaults(seeds=5)


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
    _add_backend_flag(summary)
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
    _add_backend_flag(
        merge, help="force the destination backend (default: inferred from the path)"
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
    _add_backend_flag(parser)
    _add_grid_flags(parser, "emulation", scenarios.BUFFER_SWEEP_BDP)
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
        choices=list(phase.DEFAULT_VERSIONS),
        default=list(phase.DEFAULT_VERSIONS),
    )
    parser.add_argument(
        "--flow-counts",
        type=int,
        nargs="+",
        default=list(phase.DEFAULT_FLOW_COUNTS),
        metavar="N",
    )
    parser.add_argument(
        "--rtts-ms",
        type=float,
        nargs="+",
        default=list(phase.DEFAULT_RTTS_MS),
        metavar="MS",
    )
    parser.add_argument(
        "--buffers",
        type=float,
        nargs="+",
        default=list(phase.DEFAULT_BUFFERS_BDP),
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
    _add_backend_flag(parser)
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


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bbr",
        description="Reproduction of the IMC 2022 BBR fluid-model paper",
    )
    _add_logging_flags(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_trace_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_figure_parser(subparsers)
    _add_campaign_parser(subparsers)
    _add_topology_parser(subparsers)
    _add_store_parser(subparsers)
    _add_status_parser(subparsers)
    _add_stability_parser(subparsers)
    _add_theorem_parser(subparsers)
    _add_check_parser(subparsers)
    return parser


def _run_trace_export(args: argparse.Namespace) -> int:
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


def _summary_display_rows(points: Sequence[sweep.SummaryPoint]) -> list[dict[str, object]]:
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


def _run_aggregate_sweep(args: argparse.Namespace) -> int:
    points = sweep.run_campaign(
        _grid_from_args(args),
        workers=args.workers,
        store=resolve_store(args.store, backend=args.backend),
        prune_analytic=args.prune_analytic,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
    ).points
    rows = [point.row() for point in points]
    if not rows:
        if args.shard_count is not None:
            # An empty shard is a legitimate outcome of hash partitioning
            # on a small grid: this worker simply has nothing to do.
            print(
                f"shard {args.shard_index}/{args.shard_count} contains "
                "no grid points"
            )
            return 0
        print(
            "sweep produced no points; check --mixes/--buffers/--disciplines",
            file=sys.stderr,
        )
        return 1
    display = _summary_display_rows(points) if args.seeds is not None else rows
    print(report.format_table(list(display[0].keys()), [list(r.values()) for r in display]))
    if args.csv:
        path = report.write_csv(args.csv, rows)
        print(f"wrote {path}")
    return 0


def _figure_rows(
    name: str, metric: str, data: dict[str, dict[str, list[tuple[float, ...]]]]
) -> list[dict[str, object]]:
    """Flatten one aggregate figure into CSV-friendly rows."""
    rows: list[dict[str, object]] = []
    for discipline, by_mix in data.items():
        for mix, entries in by_mix.items():
            for entry in entries:
                row: dict[str, object] = {
                    "figure": name,
                    "discipline": discipline,
                    "mix": mix,
                    "buffer_bdp": entry[0],
                }
                if len(entry) >= 3:
                    row[f"{metric}_mean"] = entry[1]
                    row[f"{metric}_ci95"] = entry[2]
                else:
                    row[metric] = entry[1]
                rows.append(row)
    return rows


def _run_figure(args: argparse.Namespace) -> int:
    metric = figures.AGGREGATE_FIGURES[args.name]
    data = figures.aggregate_figure(
        metric,
        substrate=args.substrate,
        buffers_bdp=args.buffers,
        mixes=args.mixes,
        disciplines=args.disciplines,
        duration_s=args.duration,
        short_rtt=args.short_rtt,
        workers=args.workers,
        seeds=args.seeds,
        store=resolve_store(args.store, backend=args.backend),
    )
    rows = _figure_rows(args.name, metric, data)
    if not rows:
        print(
            "figure produced no points; check --mixes/--buffers/--disciplines",
            file=sys.stderr,
        )
        return 1
    for discipline, by_mix in data.items():
        print(report.series_table(f"{args.name} [{discipline}]", by_mix))
        print()
    if args.csv:
        path = report.write_csv(args.csv, rows)
        print(f"wrote {path}")
    return 0


#: CLI flag dests whose :class:`GridSpec` field is spelled differently.
_GRID_FIELD_OF_DEST = {"buffers": "buffers_bdp", "duration": "duration_s"}
_GRID_FIELDS = {f.name for f in fields(GridSpec)}


def _hop_floats(values: tuple[str, ...] | None, flag: str) -> tuple[float, ...] | None:
    if values is None:
        return None
    try:
        return tuple(float(v) for v in values)
    except ValueError:
        raise ValueError(
            f"{flag} expects a comma list of numbers, got {','.join(values)!r}"
        ) from None


def _grid_from_args(
    args: argparse.Namespace, preset: presets.CampaignPreset | None = None
) -> GridSpec:
    """The :class:`GridSpec` named by the grid flags, layered over ``preset``.

    With a preset, only explicitly passed flags override its grid.  A flag
    counts as explicit when it appears in the raw argv (stashed by
    :func:`main`) — so ``--substrate emulation`` overrides a preset's
    ``substrate: fluid`` even though emulation is the parser default — or,
    for namespaces built without the argv stash, when its value differs
    from the parser default.  Raises :class:`ValueError` on a malformed
    grid.
    """
    values = {
        _GRID_FIELD_OF_DEST.get(dest, dest): value
        for dest, value in vars(args).items()
        if _GRID_FIELD_OF_DEST.get(dest, dest) in _GRID_FIELDS
    }
    values["hop_capacities"] = _hop_floats(values["hop_capacities"], "--hop-capacities")
    values["hop_delays"] = _hop_floats(values["hop_delays"], "--hop-delays")
    if preset is None:
        return GridSpec(**values)
    passed = {
        token[2:].split("=", 1)[0].replace("-", "_")
        for token in getattr(args, "_argv", None) or []
        if token.startswith("--")
    }
    defaults = vars(build_parser().parse_args([args.command]))
    explicit = {
        _GRID_FIELD_OF_DEST.get(dest, dest)
        for dest in defaults
        if dest in passed or getattr(args, dest, None) != defaults[dest]
    }
    return replace(preset.grid, **{k: v for k, v in values.items() if k in explicit})


def _campaign_policy(
    args: argparse.Namespace, preset: presets.CampaignPreset | None
) -> ExecutorPolicy:
    """The effective executor policy: preset base, explicit flags override."""
    base = preset.executor if preset is not None else ExecutorPolicy()
    return replace(
        base,
        workers=args.workers if args.workers is not None else base.workers,
        retries=args.retries if args.retries is not None else base.retries,
        backoff_s=args.backoff_s if args.backoff_s is not None else base.backoff_s,
        timeout_s=args.timeout_s if args.timeout_s is not None else base.timeout_s,
        on_failure="skip" if args.skip_failures else base.on_failure,
        heartbeat_s=(
            args.heartbeat_s if args.heartbeat_s is not None else base.heartbeat_s
        ),
    )


def _store_of(
    args: argparse.Namespace, preset: presets.CampaignPreset | None
) -> tuple[str | None, str | None, bool]:
    """The ``(spec, backend, fsync)`` of the store named by ``--store``/``--backend``.

    Without ``--store``, the preset's store is used.  An explicit ``--store``
    replaces the preset's store wholesale: its backend then comes from
    ``--backend`` or path inference, never from the preset (which described
    a different file).
    """
    if preset is None or args.store is not None:
        return args.store, args.backend, True
    backend = args.backend if args.backend is not None else preset.store_backend
    return preset.store_path, backend, preset.store_fsync


def _run_campaign(args: argparse.Namespace) -> int:
    preset = presets.load_preset(args.preset) if args.preset else None
    grid = _grid_from_args(args, preset)
    policy = _campaign_policy(args, preset)
    retry_failed = not args.no_retry_failed and (
        preset.retry_failed if preset is not None else True
    )
    store_spec, backend, fsync = _store_of(args, preset)
    store = resolve_store(store_spec, backend=backend, fsync=fsync)
    if store is None:
        obs_log.warning(
            "campaign.store_missing",
            "no --store/REPRO_STORE configured; campaign results will "
            "not be persisted or resumable",
        )
    result = sweep.run_campaign(
        grid,
        store=store,
        executor=policy,
        retry_failed=retry_failed,
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
            # other campaigns too.
            records = {record["key"]: record for record in store.records()}
            per_seed = [
                {**records[p.key]["meta"], **records[p.key]["metrics"]}
                for p in sweep.distinct_points(grid, args.shard_index, args.shard_count)
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


def _open_existing_store(spec: str, backend: str | None) -> SweepStore:
    """Open a store for read-only introspection; refuse to create one.

    Opening a missing path would silently create an empty store (SQLite
    even writes a file), which turns a typo into "0 results".
    """
    _, raw = split_backend_spec(spec)
    if not Path(raw).exists():
        raise FileNotFoundError(f"store {raw} not found")
    return SweepStore(spec, backend=backend)


def _run_store_merge(args: argparse.Namespace) -> int:
    if len(args.stores) < 2:
        raise ValueError("store merge needs at least one SRC and a DEST")
    *sources, dest = args.stores
    dest_path = Path(split_backend_spec(dest)[1]).resolve()
    for spec in sources:
        if Path(split_backend_spec(spec)[1]).resolve() == dest_path:
            raise ValueError(f"destination {dest} is also a merge source")
    dest_store = SweepStore(dest, backend=args.backend)
    try:
        for spec in sources:
            src_store = _open_existing_store(spec, None)
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
    store = _open_existing_store(args.path, args.backend)
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
    preset = presets.load_preset(args.preset) if args.preset else None
    store_spec, backend, _ = _store_of(args, preset)
    if store_spec is None:
        raise ValueError("no store to check; pass STORE or a --preset naming one")
    grid = sweep.distinct_points(
        _grid_from_args(args, preset), args.shard_index, args.shard_count
    )
    store = _open_existing_store(store_spec, backend)
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
    rows = phase.phase_grid(
        versions=args.versions,
        flow_counts=args.flow_counts,
        rtts_ms=args.rtts_ms,
        buffers_bdp=args.buffers,
        capacity_mbps=args.capacity_mbps,
    )
    validation: list[dict] = []
    if args.store:
        store = _open_existing_store(args.store, args.backend)
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
    rows = figures.theorem_table(flow_counts=args.flows, propagation_delay_s=args.delay)
    if not rows:
        print("no theorem rows produced; check --flows", file=sys.stderr)
        return 1
    print(report.format_table(list(rows[0].keys()), [list(r.values()) for r in rows]))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    args._argv = raw  # lets --preset merging see which flags were passed
    if getattr(args, "quiet", False):
        obs_log.set_level("quiet")
    elif getattr(args, "verbose", False):
        obs_log.set_level("debug")
    handlers = {
        "trace": _run_trace,
        "sweep": _run_aggregate_sweep,
        "figure": _run_figure,
        "campaign": _run_campaign,
        "topology": _run_topology,
        "store": _run_store,
        "status": _run_status,
        "stability": _run_stability,
        "theorems": _run_theorems,
        "check": _run_check,
    }
    # The one error policy of every command: a point that failed for good
    # exits 1; bad input (ValueError, including PresetError and
    # RemovedBackendError) or a missing file exits 2.
    try:
        return handlers[args.command](args)
    except sweep.SweepPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
