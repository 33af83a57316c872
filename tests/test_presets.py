"""Tests of YAML campaign presets and their CLI merge behaviour."""

from __future__ import annotations

import pytest

from repro import cli
from repro.experiments import sweep as sweep_module
from repro.experiments.executor import ExecutorPolicy
from repro.experiments.grid import GridSpec
from repro.experiments.presets import (
    CampaignPreset,
    PresetError,
    load_preset,
    parse_preset,
)

FULL_PRESET = """
name: paper-grid
substrate: fluid
seeds: [1, 2, 3]
duration_s: 2.0
short_rtt: true
grid:
  mixes: [BBRv1, BBRv2]
  buffers_bdp: [0.5, 1, 4]
  disciplines: [droptail]
topology:
  preset: parking-lot
  hops: 4
  cross_flows: 2
churn:
  arrivals: poisson
  load: 0.6
store:
  path: results/paper.out
  backend: sqlite
  fsync: false
executor:
  workers: 4
  retries: 2
  backoff_s: 0.1
  timeout_s: 120
  on_failure: skip
  heartbeat_s: 30
  retry_failed: false
"""


class TestParsePreset:
    def test_empty_document_gives_defaults(self):
        preset = parse_preset(None)
        assert preset == CampaignPreset()
        assert preset.substrate == "emulation"
        assert preset.seeds == 5
        assert preset.executor == ExecutorPolicy()
        assert preset.retry_failed is True

    def test_full_document_roundtrip(self, tmp_path):
        path = tmp_path / "paper-grid.yaml"
        path.write_text(FULL_PRESET)
        preset = load_preset(path)
        assert preset.name == "paper-grid"
        assert preset.substrate == "fluid"
        assert preset.seeds == (1, 2, 3)
        assert preset.duration_s == 2.0
        assert preset.short_rtt is True
        assert preset.mixes == ("BBRv1", "BBRv2")
        assert preset.buffers_bdp == (0.5, 1.0, 4.0)
        assert preset.disciplines == ("droptail",)
        assert preset.topology == "parking-lot"
        assert preset.hops == 4
        assert preset.cross_flows == 2
        assert preset.arrivals == "poisson"
        assert preset.load == 0.6
        assert preset.flow_size_dist == "pareto"  # the churn default, filled once
        assert preset.store_path == "results/paper.out"
        assert preset.store_backend == "sqlite"
        assert preset.store_fsync is False
        assert preset.executor == ExecutorPolicy(
            workers=4, retries=2, backoff_s=0.1, timeout_s=120,
            on_failure="skip", heartbeat_s=30,
        )
        assert preset.retry_failed is False

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "quick-check.yaml"
        path.write_text("substrate: fluid\n")
        assert load_preset(path).name == "quick-check"

    def test_explicit_name_beats_stem(self, tmp_path):
        path = tmp_path / "whatever.yaml"
        path.write_text("name: canonical\n")
        assert load_preset(path).name == "canonical"

    @pytest.mark.parametrize(
        ("document", "match"),
        [
            ("buffers: [1]", "unknown key"),
            ("grid: {mix: [BBRv1]}", "unknown key"),
            ("topology: {hop: 3}", "unknown key"),
            ("churn: {arrival: poisson}", "unknown key"),
            ("store: {file: x.jsonl}", "unknown key"),
            ("executor: {worker: 4}", "unknown key"),
            ("grid: [BBRv1]", "must be a mapping"),
            ("- just\n- a list", "must be a mapping"),
            ("seeds: many", "'seeds' must be an int"),
            ("seeds: true", "'seeds' must be an int"),
            ("grid: {mixes: BBRv1}", "list of strings"),
            ("grid: {buffers_bdp: [a, b]}", "list of numbers"),
            ("executor: {on_failure: explode}", "on_failure must be one of"),
            ("executor: {workers: 0}", "invalid executor policy"),
            ("executor: {retries: -1}", "invalid executor policy"),
            ("substrate: ns3", "unknown substrate"),
            ("churn: {load: 0.5}", "arrival process"),
        ],
    )
    def test_malformed_documents_rejected(self, tmp_path, document, match):
        path = tmp_path / "bad.yaml"
        path.write_text(document)
        with pytest.raises(PresetError, match=match):
            load_preset(path)

    def test_missing_file_is_preset_error(self, tmp_path):
        with pytest.raises(PresetError, match="cannot read preset file"):
            load_preset(tmp_path / "absent.yaml")

    def test_invalid_yaml_is_preset_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [unclosed\n")
        with pytest.raises(PresetError, match="not valid YAML"):
            load_preset(path)

    def test_grid_is_a_gridspec(self):
        assert CampaignPreset().grid == GridSpec(substrate="emulation", seeds=5)


class TestCliMerge:
    """`repro-bbr campaign --preset` merge: explicit flags beat the preset."""

    @pytest.fixture
    def captured(self, tmp_path, monkeypatch):
        # The preset's relative store path opens under the test's tmp dir.
        monkeypatch.chdir(tmp_path)
        calls: dict = {}

        def fake_run_campaign(grid, **kwargs):
            calls.update(kwargs, grid=grid)
            return sweep_module.CampaignResult(points=[], failures=[])

        monkeypatch.setattr(sweep_module, "run_campaign", fake_run_campaign)
        return calls

    def _preset_file(self, tmp_path, body=FULL_PRESET):
        path = tmp_path / "merge-test.yaml"
        path.write_text(body)
        return path

    def test_preset_values_reach_run_campaign(self, tmp_path, captured, capsys):
        cli.main(["campaign", "--preset", str(self._preset_file(tmp_path))])
        capsys.readouterr()
        grid = captured["grid"]
        assert grid == load_preset(self._preset_file(tmp_path)).grid
        assert grid.substrate == "fluid"
        assert grid.mixes == ("BBRv1", "BBRv2")
        assert grid.buffers_bdp == (0.5, 1.0, 4.0)
        assert grid.seeds == (1, 2, 3)
        assert grid.duration_s == 2.0
        assert grid.topology == "parking-lot"
        assert captured["executor"].workers == 4
        assert captured["executor"].on_failure == "skip"
        assert captured["retry_failed"] is False

    def test_explicit_flags_override_preset(self, tmp_path, captured, capsys):
        cli.main(
            [
                "campaign",
                "--preset", str(self._preset_file(tmp_path)),
                "--substrate", "emulation",
                "--duration", "1.0",
                "--workers", "2",
                "--retries", "0",
            ]
        )
        capsys.readouterr()
        assert captured["grid"].substrate == "emulation"
        assert captured["grid"].duration_s == 1.0
        assert captured["executor"].workers == 2
        assert captured["executor"].retries == 0
        # Untouched axes still come from the preset.
        assert captured["grid"].mixes == ("BBRv1", "BBRv2")
        assert captured["executor"].on_failure == "skip"

    def test_store_flag_overrides_preset_store(self, tmp_path, captured, capsys):
        override = tmp_path / "cli-override.jsonl"
        cli.main(
            [
                "campaign",
                "--preset", str(self._preset_file(tmp_path)),
                "--store", str(override),
            ]
        )
        capsys.readouterr()
        store = captured["store"]
        assert store is not None
        assert store.path == override
        assert store.backend == "jsonl"
        store.close()

    def test_preset_store_used_when_no_flag(self, tmp_path, captured, capsys):
        cli.main(["campaign", "--preset", str(self._preset_file(tmp_path))])
        capsys.readouterr()
        store = captured["store"]
        assert store is not None
        assert store.backend == "sqlite"
        assert store.path.name == "paper.out"
        store.close()

    def test_bad_preset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("unknown_top: 1\n")
        code = cli.main(["campaign", "--preset", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown key" in captured.err

    def test_missing_preset_exits_2(self, tmp_path, capsys):
        code = cli.main(["campaign", "--preset", str(tmp_path / "nope.yaml")])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read preset file" in captured.err

    def test_skip_failures_flag_wins_over_preset_raise(self, tmp_path, captured, capsys):
        path = tmp_path / "strict.yaml"
        path.write_text("substrate: fluid\nexecutor: {on_failure: raise}\n")
        cli.main(["campaign", "--preset", str(path), "--skip-failures"])
        capsys.readouterr()
        assert captured["executor"].on_failure == "skip"
