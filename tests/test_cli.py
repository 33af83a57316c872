"""Tests of the command-line interface."""

from __future__ import annotations

import pytest

from repro import cli
from repro.experiments import sweep as sweep_module


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_trace_defaults(self):
        args = cli.build_parser().parse_args(["trace", "bbr1"])
        assert args.cca == "bbr1"
        assert args.discipline == "droptail"
        assert args.substrate == "fluid"

    def test_sweep_arguments(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--buffers", "1", "4", "--mixes", "BBRv1", "--disciplines", "droptail"]
        )
        assert args.buffers == [1.0, 4.0]
        assert args.mixes == ["BBRv1"]

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure", "fig99"])

    def test_workers_flag_parsed(self):
        args = cli.build_parser().parse_args(["sweep", "--workers", "4"])
        assert args.workers == 4
        args = cli.build_parser().parse_args(["figure", "fig06_fairness", "--workers", "2"])
        assert args.workers == 2

    def test_workers_default_is_none(self):
        assert cli.build_parser().parse_args(["sweep"]).workers is None
        assert cli.build_parser().parse_args(["figure", "fig07_loss"]).workers is None

    def test_seeds_and_store_flags_parsed(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--seeds", "5", "--store", "results.jsonl"]
        )
        assert args.seeds == 5
        assert args.store == "results.jsonl"
        args = cli.build_parser().parse_args(
            ["figure", "fig06_fairness", "--seeds", "3", "--store", "s.jsonl", "--csv", "f.csv"]
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

    def test_sweep_topology_axis_parsed(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--topology", "parking-lot", "--hops", "4", "--cross-flows", "2"]
        )
        assert args.topology == "parking-lot"
        assert args.hops == 4 and args.cross_flows == 2
        assert cli.build_parser().parse_args(["campaign"]).topology is None

    def test_hop_list_flags_parsed(self):
        for command in (
            ["sweep", "--topology", "parking-lot"],
            ["campaign", "--topology", "parking-lot"],
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
        args = cli.build_parser().parse_args(["sweep"])
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
            ["sweep", "--mixes", "BBRv1", "--buffers", "1",
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
            ["sweep", "--mixes", "BBRv1", "--buffers", "1",
             "--topology", "parking-lot", "--hops", "2",
             "--hop-disciplines", "red,red"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "single disciplines value" in captured.err

    def test_sweep_passes_hop_axis_through(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(
            ["sweep", "--mixes", "BBRv1", "--topology", "parking-lot",
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

    def test_sweep_passes_workers(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(["sweep", "--mixes", "BBRv1", "--workers", "3"])
        capsys.readouterr()
        assert calls["workers"] == 3

    def test_figure_passes_workers(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(["figure", "fig06_fairness", "--mixes", "BBRv1", "--workers", "5"])
        capsys.readouterr()
        assert calls["workers"] == 5

    def test_sweep_passes_topology_axis(self, monkeypatch, capsys):
        calls = _capture_run_campaign(monkeypatch)
        cli.main(
            ["sweep", "--mixes", "BBRv1", "--topology", "multi-dumbbell", "--hops", "2"]
        )
        capsys.readouterr()
        assert calls["grid"].topology == "multi-dumbbell"
        assert calls["grid"].hops == 2 and calls["grid"].cross_flows == 1


class TestEmptyResults:
    def test_sweep_with_no_points_exits_nonzero(self, monkeypatch, capsys):
        _capture_run_campaign(monkeypatch)
        code = cli.main(["sweep", "--mixes", "BBRv1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no points" in captured.err

    def test_theorems_with_no_rows_exits_nonzero(self, monkeypatch, capsys):
        from repro.experiments import figures as figures_module

        monkeypatch.setattr(figures_module, "theorem_table", lambda **k: [])
        code = cli.main(["theorems"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no theorem rows" in captured.err

    def test_figure_with_no_points_exits_nonzero(self, monkeypatch, capsys):
        # Regression: figure used to exit 0 and print nothing on empty data.
        _capture_run_campaign(monkeypatch)
        code = cli.main(["figure", "fig06_fairness", "--mixes", "BBRv1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no points" in captured.err

    def test_campaign_with_no_points_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sweep_module,
            "run_campaign",
            lambda *a, **k: sweep_module.CampaignResult(points=[], failures=[]),
        )
        code = cli.main(["campaign", "--mixes", "BBRv1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no points" in captured.err


@pytest.mark.parametrize("command", [["sweep"], ["figure", "fig06_fairness"]])
def test_unknown_mix_exits_2_with_message(command, capsys):
    # Regression: figure used to die with a ValueError traceback here.
    code = cli.main([*command, "--mixes", "NOPE", "--buffers", "1", "--duration", "0.2"])
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

    def test_sweep_command_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--buffers",
                "1",
                "--mixes",
                "BBRv1",
                "--disciplines",
                "droptail",
                "--duration",
                "1.0",
                "--csv",
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

    def test_figure_command(self, capsys):
        code = cli.main(
            [
                "figure",
                "fig09_utilization",
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
        assert code == 0
        out = capsys.readouterr().out
        assert "fig09_utilization" in out

    def test_figure_command_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig.csv"
        code = cli.main(
            [
                "figure",
                "fig09_utilization",
                "--buffers",
                "1",
                "--mixes",
                "BBRv1",
                "--disciplines",
                "droptail",
                "--duration",
                "1.0",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        content = csv_path.read_text().strip().splitlines()
        assert content[0] == "figure,discipline,mix,buffer_bdp,utilization_percent"
        assert len(content) == 2

    def test_sweep_command_with_seeds_reports_ci(self, tmp_path, capsys):
        sweep_module.clear_cache()
        code = cli.main(
            [
                "sweep",
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
        sweep_module.clear_cache()
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
        sweep_module.clear_cache()
        assert cli.main(argv) == 0

    def test_campaign_without_store_warns(self, capsys):
        sweep_module.clear_cache()
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
