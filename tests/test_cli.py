"""Tests of the command-line interface."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import sweep as sweep_module
from repro.experiments.store import SCHEMA_VERSION, SweepStore

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_trace_defaults(self):
        args = cli.build_parser().parse_args(["trace", "bbr1"])
        assert args.cca == "bbr1"
        assert args.discipline == "droptail"
        assert args.substrate == "fluid"

    def test_campaign_grid_arguments(self):
        args = cli.build_parser().parse_args(
            ["campaign", "--buffers", "1", "4", "--mixes", "BBRv1", "--disciplines", "droptail"]
        )
        assert args.buffers == [1.0, 4.0]
        assert args.mixes == ["BBRv1"]

    @pytest.mark.parametrize("argv", [["sweep"], ["figure", "fig06_fairness"]])
    def test_removed_grid_commands_rejected(self, argv, capsys):
        # ``campaign`` is the only command that runs a grid.
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command_has_a_backend_flag(self):
        # A store's backend is part of its spec (``jsonl:``/``sqlite:``
        # prefix or path suffix), never a separate flag.
        def walk(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from walk(sub)

        for parser in walk(cli.build_parser()):
            assert "--backend" not in parser._option_string_actions, parser.prog

    def test_workers_flag_parsed(self):
        args = cli.build_parser().parse_args(["campaign", "--workers", "4"])
        assert args.workers == 4

    def test_workers_default_is_none(self):
        assert cli.build_parser().parse_args(["campaign"]).workers is None

    def test_seeds_and_store_flags_parsed(self):
        args = cli.build_parser().parse_args(
            ["campaign", "--seeds", "3", "--store", "s.jsonl", "--csv", "f.csv"]
        )
        assert args.seeds == 3 and args.store == "s.jsonl" and args.csv == "f.csv"

    def test_campaign_defaults(self):
        args = cli.build_parser().parse_args(["campaign"])
        assert args.substrate == "emulation"
        assert args.seeds == 5
        assert args.buffers == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert args.store is None and args.csv is None and args.per_seed_csv is None

    def test_topology_defaults(self):
        args = cli.build_parser().parse_args(["topology"])
        assert args.preset == "parking-lot"
        assert args.hops == 3
        assert args.cross_flows == 1
        assert args.substrate == "both"

    def test_topology_preset_choices(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["topology", "--preset", "ring"])

    def test_campaign_topology_axis_parsed(self):
        args = cli.build_parser().parse_args(
            ["campaign", "--topology", "parking-lot", "--hops", "4", "--cross-flows", "2"]
        )
        assert args.topology == "parking-lot"
        assert args.hops == 4 and args.cross_flows == 2
        assert cli.build_parser().parse_args(["status"]).topology is None

    def test_hop_list_flags_parsed(self):
        for command in (
            ["campaign", "--topology", "parking-lot"],
            ["status", "--topology", "parking-lot"],
            ["topology", "--preset", "parking-lot"],
        ):
            args = cli.build_parser().parse_args(
                command
                + [
                    "--hops", "3",
                    "--hop-capacities", "100,50, 25",
                    "--hop-delays", "0.002,0.006,0.002",
                    "--hop-disciplines", "red,droptail,red",
                ]
            )
            assert args.hop_capacities == ("100", "50", "25")
            assert args.hop_delays == ("0.002", "0.006", "0.002")
            assert args.hop_disciplines == ("red", "droptail", "red")

    def test_hop_list_flags_default_none(self):
        args = cli.build_parser().parse_args(["campaign"])
        assert args.hop_capacities is None
        assert args.hop_delays is None
        assert args.hop_disciplines is None


class TestHopAxisValidation:
    """Malformed heterogeneous hop lists must exit non-zero with a clear
    message, not crash deep inside numpy broadcasting."""

    def test_length_mismatch_exits_nonzero(self, capsys):
        code = cli.main(
            ["topology", "--preset", "parking-lot", "--hops", "3",
             "--hop-capacities", "100,50", "--substrate", "fluid"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "hop_capacities lists 2 values but hops=3" in captured.err

    def test_nonpositive_capacity_exits_nonzero(self, capsys):
        code = cli.main(
            ["topology", "--preset", "parking-lot", "--hops", "2",
             "--hop-capacities", "100,-5", "--substrate", "fluid"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "must be positive" in captured.err

    def test_nonpositive_delay_exits_nonzero(self, capsys):
        code = cli.main(
            ["topology", "--preset", "parking-lot", "--hops", "2",
             "--hop-delays", "0.01,0", "--substrate", "fluid"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "must be positive" in captured.err

    def test_non_numeric_exits_nonzero(self, capsys):
        code = cli.main(
            ["topology", "--preset", "parking-lot", "--hops", "2",
             "--hop-capacities", "100,fast", "--substrate", "fluid"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "--hop-capacities" in captured.err

    def test_unknown_discipline_exits_nonzero(self, capsys):
        code = cli.main(
            ["topology", "--preset", "parking-lot", "--hops", "2",
             "--hop-disciplines", "red,codel", "--substrate", "fluid"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "hop_disciplines" in captured.err

    def test_hop_lists_need_multi_bottleneck_preset(self, capsys):
        code = cli.main(
            ["campaign", "--seeds", "1", "--mixes", "BBRv1", "--buffers", "1",
             "--hop-capacities", "100,50,25"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "multi-bottleneck" in captured.err
        code = cli.main(
            ["campaign", "--mixes", "BBRv1", "--buffers", "1",
             "--hop-delays", "0.01,0.01,0.01"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "multi-bottleneck" in captured.err

    def test_hop_disciplines_with_discipline_sweep_exits_nonzero(self, capsys):
        code = cli.main(
            ["campaign", "--seeds", "1", "--mixes", "BBRv1", "--buffers", "1",
             "--topology", "parking-lot", "--hops", "2",
             "--hop-disciplines", "red,red"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "single disciplines value" in captured.err

    def test_campaign_passes_hop_axis_through(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(
            ["campaign", "--seeds", "1", "--mixes", "BBRv1", "--topology", "parking-lot",
             "--hops", "2", "--hop-capacities", "100,50",
             "--hop-delays", "0.004,0.006", "--hop-disciplines", "red,red",
             "--disciplines", "droptail"]
        )
        capsys.readouterr()
        grid = calls["grid"]
        assert grid.hop_capacities == (100.0, 50.0)
        assert grid.hop_delays == (0.004, 0.006)
        assert grid.hop_disciplines == ("red", "red")


def _capture_run_campaign(monkeypatch):
    calls = {}

    def fake_run_campaign(grid, **kwargs):
        calls.update(kwargs, grid=grid)
        return sweep_module.CampaignResult(points=[], failures=[])

    monkeypatch.setattr(sweep_module, "run_campaign", fake_run_campaign)
    return calls


class TestWorkersPlumbing:
    """--workers must actually reach run_campaign (it used to be dead code)."""

    def test_campaign_passes_workers(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(["campaign", "--seeds", "1", "--mixes", "BBRv1", "--workers", "3"])
        capsys.readouterr()
        assert calls["executor"].workers == 3

    def test_campaign_passes_topology_axis(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(
            ["campaign", "--seeds", "1", "--mixes", "BBRv1",
             "--topology", "multi-dumbbell", "--hops", "2"]
        )
        capsys.readouterr()
        assert calls["grid"].topology == "multi-dumbbell"
        assert calls["grid"].hops == 2 and calls["grid"].cross_flows == 1


class TestEmptyResults:
    def test_theorems_with_no_rows_exits_nonzero(self, monkeypatch, capsys):
        from repro.experiments import figures as figures_module

        monkeypatch.setattr(figures_module, "theorem_table", lambda **k: [])
        code = cli.main(["theorems"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no theorem rows" in captured.err

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "1"]])
    def test_campaign_with_no_points_exits_nonzero(self, seeds, monkeypatch, capsys):
        _capture_run_campaign(monkeypatch)
        code = cli.main(["campaign", *seeds, "--mixes", "BBRv1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no points" in captured.err


@pytest.mark.parametrize("substrate", ["fluid", "emulation"])
def test_unknown_mix_exits_2_with_message(substrate, capsys):
    code = cli.main(
        ["campaign", "--seeds", "1", "--substrate", substrate,
         "--mixes", "NOPE", "--buffers", "1", "--duration", "0.2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: unknown CCA mix 'NOPE'" in captured.err


@pytest.mark.parametrize(
    "argv", [["trace", "bbr1", "--duration", "-1"], ["theorems", "--flows", "0"]]
)
def test_invalid_value_exits_2_with_one_line_error(argv, capsys):
    # Regression: these commands used to die with a ValueError traceback.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestExecution:
    def test_theorems_command(self, capsys):
        assert cli.main(["theorems", "--flows", "2", "5"]) == 0
        out = capsys.readouterr().out
        assert "thm3_loss_fraction" in out
        assert "True" in out

    def test_trace_command_fluid(self, capsys):
        assert cli.main(["trace", "bbr2", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "utilization_percent" in out

    def test_single_seed_campaign_with_per_seed_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code = cli.main(
            [
                "campaign",
                "--substrate",
                "fluid",
                "--seeds",
                "1",
                "--buffers",
                "1",
                "--mixes",
                "BBRv1",
                "--disciplines",
                "droptail",
                "--duration",
                "1.0",
                "--per-seed-csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "jain_fairness" in out

    def test_topology_command_both_substrates(self, capsys):
        code = cli.main(
            [
                "topology",
                "--preset",
                "parking-lot",
                "--hops",
                "3",
                "--duration",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Per-link and per-flow tables for both substrates.
        for substrate in ("fluid", "emulation"):
            assert f"[{substrate}] — per-link" in out
            assert f"[{substrate}] — per-flow" in out
        assert "hop-1" in out and "hop-3" in out
        assert "utilization_percent" in out and "throughput_mbps" in out
        assert "hop-1>hop-2>hop-3" in out

    def test_topology_command_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "topo.csv"
        code = cli.main(
            [
                "topology",
                "--preset",
                "multi-dumbbell",
                "--hops",
                "2",
                "--substrate",
                "fluid",
                "--duration",
                "0.5",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "kind" in header and "link" in header and "throughput_mbps" in header
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"link", "flow"}

    def test_campaign_command_with_seeds_reports_ci(self, tmp_path, capsys):
        code = cli.main(
            [
                "campaign",
                "--substrate",
                "emulation",
                "--seeds",
                "2",
                "--store",
                str(tmp_path / "store.jsonl"),
                "--buffers",
                "1",
                "--mixes",
                "BBRv1",
                "--disciplines",
                "droptail",
                "--duration",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "±" in out
        assert "jain_fairness" in out

    def test_campaign_command_runs_and_exports(self, tmp_path, capsys):
        store_path = tmp_path / "campaign.jsonl"
        argv = [
            "campaign",
            "--substrate",
            "emulation",
            "--seeds",
            "2",
            "--store",
            str(store_path),
            "--buffers",
            "1",
            "--mixes",
            "BBRv1",
            "--disciplines",
            "droptail",
            "--duration",
            "0.5",
            "--csv",
            str(tmp_path / "summary.csv"),
            "--per-seed-csv",
            str(tmp_path / "per_seed.csv"),
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "±" in out
        assert store_path.exists()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert "jain_fairness_mean" in summary[0]
        per_seed = (tmp_path / "per_seed.csv").read_text().splitlines()
        assert len(per_seed) == 3  # header + one row per seed
        # Resume: a second invocation recomputes nothing and still succeeds.
        assert cli.main(argv) == 0

    def test_campaign_without_store_warns(self, capsys):
        code = cli.main(
            [
                "campaign",
                "--substrate",
                "fluid",
                "--seeds",
                "2",
                "--buffers",
                "1",
                "--mixes",
                "BBRv1",
                "--disciplines",
                "droptail",
                "--duration",
                "1.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "not be persisted" in captured.err


def _subprocess_env() -> dict[str, str]:
    """This tree on the path and no REPRO_STORE, like the in-process tests."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _write_grid_and_store(tmp_path: Path) -> None:
    """A two-point fluid preset and a JSON-lines store holding one of its rows."""
    (tmp_path / "preset.yaml").write_text(
        "substrate: fluid\nseeds: 1\n"
        "grid: {mixes: [BBRv1], buffers_bdp: [1, 4], disciplines: [droptail]}\n"
        "store: {path: store.jsonl}\n"
    )
    record = {
        "schema": SCHEMA_VERSION,
        "key": "k",
        "metrics": {},
        "meta": {"mix": "BBRv1", "buffer_bdp": 1.0, "substrate": "fluid"},
        "runtime": {"wall_s": 0.5, "cpu_s": 0.4},
    }
    (tmp_path / "store.jsonl").write_text(json.dumps(record) + "\n")


#: The substrate layers a command that only reads a store never imports.
_SUBSTRATES = (
    "numpy",
    "repro.core",
    "repro.emulation",
    "repro.analysis",
    "repro.experiments.sweep",
)


@pytest.mark.parametrize(
    ("argv", "absent"),
    [
        (["status", "--preset", "preset.yaml"], _SUBSTRATES),
        (["store", "summary", "store.jsonl"], _SUBSTRATES),
        (
            ["campaign", "--seeds", "1", "--substrate", "fluid", "--mixes", "BBRv1",
             "--buffers", "1", "--duration", "0.2"],
            ("scipy", "repro.experiments.figures", "repro.experiments.phase"),
        ),
    ],
    ids=["status", "store-summary", "campaign-fluid"],
)
def test_command_import_boundaries(tmp_path, argv, absent):
    # Each command imports only the layers it runs: counting a store's keys
    # loads no substrate, and a fluid campaign no scipy, figures or phase.
    _write_grid_and_store(tmp_path)
    code = (
        "import sys\n"
        "from repro import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print([m for m in {absent!r} if m in sys.modules])\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    # status exits 1: one of the two grid points is not in the store.
    assert done.returncode == (1 if argv[0] == "status" else 0), done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # ``status --json ... | head -5``: ~280 kB of JSON overflows the pipe
    # buffer, so the write fails once the reader has gone.
    (tmp_path / "store.jsonl").write_text("")
    argv = ["status", "--json", "--substrate", "emulation", "--seeds", "20", "store.jsonl"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=tmp_path,
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout is not None and proc.stderr is not None
    head = [proc.stdout.readline() for _ in range(5)]
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert head[0] == "{\n"
    assert stderr == ""


def _truncated_sqlite(tmp_path: Path) -> str:
    store = SweepStore(tmp_path / "cut.sqlite")
    store.put_failure("k", "boom", {"mix": "BBRv1"})
    store.close()
    path = tmp_path / "cut.sqlite"
    path.write_bytes(path.read_bytes()[:100])
    return str(path)


def _jsonl_as_sqlite(tmp_path: Path) -> str:
    _write_grid_and_store(tmp_path)
    return f"sqlite:{tmp_path / 'store.jsonl'}"


@pytest.mark.parametrize("make_store", [_truncated_sqlite, _jsonl_as_sqlite])
@pytest.mark.parametrize(
    "argv",
    [
        ["status", "--substrate", "fluid", "--mixes", "BBRv1", "--buffers", "1",
         "--seeds", "1", "{store}"],
        ["store", "summary", "{store}"],
        ["campaign", "--substrate", "fluid", "--mixes", "BBRv1", "--buffers", "1",
         "--seeds", "1", "--duration", "0.2", "--store", "{store}"],
    ],
    ids=["status", "store-summary", "campaign"],
)
def test_store_that_is_not_a_database_exits_2(tmp_path, capsys, make_store, argv):
    # Exit 1 means "work remaining" to ``status``; an unreadable store is
    # bad input, reported on one line.
    spec = make_store(tmp_path)
    before = Path(spec.removeprefix("sqlite:")).read_bytes()
    assert cli.main([arg.format(store=spec) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: store ") and "not a usable SQLite database" in err
    assert err.count("\n") == 1
    assert Path(spec.removeprefix("sqlite:")).read_bytes() == before
