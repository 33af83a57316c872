"""Tests of the single grid description: ``GridSpec`` -> ``PointSpec`` -> key.

The centrepiece is a store written by the CLI *before* ``GridSpec`` existed
(``tests/golden/pre_gridspec_store.jsonl``), one campaign per grid in
``tests/golden/pre_gridspec_grids.json``::

    for each grid G in pre_gridspec_grids.json:
        repro-bbr campaign --store tests/golden/pre_gridspec_store.jsonl -q G

Every grid must still be fully served by that store: ``status`` reports it
done, a warm campaign computes nothing, and every stored meta block equals
``PointSpec.meta()`` of its key — so store keys and meta are unchanged.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import sweep
from repro.experiments.grid import GridSpec, PointSpec
from repro.experiments.presets import PresetError, load_preset
from repro.experiments.store import SweepStore

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_GRIDS: list[list[str]] = json.loads((GOLDEN / "pre_gridspec_grids.json").read_text())


@pytest.fixture(autouse=True)
def _clear_cache():
    sweep.clear_cache()
    yield
    sweep.clear_cache()


@pytest.fixture
def golden_store(tmp_path) -> Path:
    path = tmp_path / "store.jsonl"
    shutil.copy(GOLDEN / "pre_gridspec_store.jsonl", path)
    return path


def _campaign_args(grid_argv: list[str]):
    return cli.build_parser().parse_args(["campaign", *grid_argv])


def _grid(grid_argv: list[str]) -> GridSpec:
    return cli._grid_from_args(_campaign_args(grid_argv))


class TestPreGridSpecStore:
    @pytest.mark.parametrize("grid_argv", FIXTURE_GRIDS, ids=lambda g: " ".join(g[:2] + g[4:6]))
    def test_status_reports_every_point_done(self, golden_store, grid_argv, capsys):
        status_argv = [a for a in grid_argv if a != "--prune-analytic"]
        code = cli.main(["status", str(golden_store), "--json", *status_argv])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["done"] == report["grid"] > 0
        assert report["failed"] == report["remaining"] == 0

    @pytest.mark.parametrize("grid_argv", FIXTURE_GRIDS, ids=lambda g: " ".join(g[:2] + g[4:6]))
    def test_warm_campaign_computes_nothing(self, golden_store, grid_argv, monkeypatch):
        def recompute(*args, **kwargs):
            raise AssertionError("a fixture point was recomputed")

        monkeypatch.setattr(sweep, "compute_point", recompute)
        monkeypatch.setattr(sweep, "simulate_many", recompute)
        args = _campaign_args(grid_argv)
        store = SweepStore(golden_store)
        stored = len(store)
        result = sweep.run_campaign(
            cli._grid_from_args(args), store=store, prune_analytic=args.prune_analytic
        )
        assert result.ok and result.points
        assert store.misses == 0 and store.hits > 0
        assert len(store) == stored  # nothing was written

    def test_stored_meta_equals_point_meta(self):
        points: dict[str, PointSpec] = {}
        for grid_argv in FIXTURE_GRIDS:
            for point in _grid(grid_argv).points():
                points.setdefault(point.key, point)
        records = list(SweepStore(GOLDEN / "pre_gridspec_store.jsonl").records())
        assert any("pruned" in r["meta"] for r in records)
        assert any("analysis" in r["meta"] for r in records)
        for record in records:
            meta = {k: v for k, v in record["meta"].items() if k not in ("analysis", "pruned")}
            assert record["key"] in points, meta
            assert meta == points[record["key"]].meta()
        # Every distinct grid point has its record.
        assert set(points) == {r["key"] for r in records}


class TestPerSeedCsv:
    def test_exports_only_this_grids_seeds(self, tmp_path, capsys):
        """Regression: the export filtered on (discipline, mix, buffer) only,
        so a 1-seed campaign exported the rows of an earlier 2-seed run."""
        store = str(tmp_path / "s.jsonl")
        grid = ["--substrate", "emulation", "--mixes", "BBRv1", "--buffers", "1",
                "--disciplines", "droptail", "--duration", "0.2", "-q"]
        assert cli.main(["campaign", "--store", store, "--seeds", "2", *grid]) == 0
        out = tmp_path / "per_seed.csv"
        assert cli.main(
            ["campaign", "--store", store, "--seeds", "1", "--per-seed-csv", str(out), *grid]
        ) == 0
        capsys.readouterr()
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["seed"] for row in rows] == ["1"]


PARENT_DEFAULTS = {
    "sweep": {
        "substrate": "fluid", "buffers": [1.0, 4.0, 7.0],
        "mixes": ["BBRv1", "BBRv1/BBRv2", "BBRv1/CUBIC", "BBRv1/RENO", "BBRv2",
                  "BBRv2/CUBIC", "BBRv2/RENO"],
        "disciplines": ["droptail", "red"], "duration": 5.0, "short_rtt": False,
        "csv": None, "seeds": None, "store": None, "backend": None, "workers": None,
        "topology": None, "hops": 3, "cross_flows": 1, "hop_capacities": None,
        "hop_delays": None, "hop_disciplines": None, "arrivals": None,
        "flow_size_dist": None, "load": None, "flows": None, "prune_analytic": False,
        "shard_index": None, "shard_count": None,
    },
    "figure": {
        "name": "fig06_fairness", "substrate": "fluid", "buffers": [1.0, 4.0, 7.0],
        "mixes": None, "disciplines": None, "duration": 5.0, "short_rtt": False,
        "csv": None, "seeds": None, "store": None, "backend": None, "workers": None,
    },
}
PARENT_DEFAULTS["campaign"] = {
    **PARENT_DEFAULTS["sweep"],
    "substrate": "emulation", "buffers": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    "per_seed_csv": None, "preset": None, "seeds": 5, "retries": None,
    "backoff_s": None, "timeout_s": None, "heartbeat_s": None,
    "skip_failures": False, "no_retry_failed": False, "trace": None,
}
PARENT_DEFAULTS["status"] = {
    **{k: v for k, v in PARENT_DEFAULTS["campaign"].items()
       if k not in ("csv", "per_seed_csv", "workers", "prune_analytic", "retries",
                    "backoff_s", "timeout_s", "heartbeat_s", "skip_failures",
                    "no_retry_failed", "trace")},
    "json": False,
}


@pytest.mark.parametrize("command", sorted(PARENT_DEFAULTS))
def test_parser_defaults_unchanged(command):
    argv = [command, "fig06_fairness"] if command == "figure" else [command]
    parsed = vars(cli.build_parser().parse_args(argv))
    for name in ("command", "verbose", "quiet"):
        parsed.pop(name, None)
    assert parsed == PARENT_DEFAULTS[command]


class TestGridSpec:
    def test_points_cover_the_grid_in_order(self):
        grid = GridSpec(mixes=["BBRv1", "BBRv2"], buffers_bdp=[1.0, 4.0],
                        disciplines=["droptail"], seeds=2)
        coords = [(p.mix, p.buffer_bdp, p.seed) for p in grid.points()]
        assert coords == [("BBRv1", 1.0, 1), ("BBRv1", 1.0, 2), ("BBRv1", 4.0, 1),
                          ("BBRv1", 4.0, 2), ("BBRv2", 1.0, 1), ("BBRv2", 1.0, 2),
                          ("BBRv2", 4.0, 1), ("BBRv2", 4.0, 2)]

    def test_defaults_filled_once(self):
        grid = GridSpec(topology="dumbbell", arrivals="onoff")
        assert grid.topology is None
        assert (grid.flow_size_dist, grid.load, grid.flows) == ("infinite", 0.5, 100)
        assert replace(grid, duration_s=1.0).flow_size_dist == "infinite"

    def test_hop_discipline_label(self):
        grid = GridSpec(topology="parking-lot", hops=2, disciplines=["red"],
                        hop_disciplines=["red", "droptail"])
        assert grid.disciplines == ("red/droptail",)
        assert {p.meta()["discipline"] for p in grid.points()} == {"red/droptail"}

    @pytest.mark.parametrize(
        ("axes", "match"),
        [
            ({"substrate": "ns3"}, "unknown substrate"),
            ({"substrate": "analytic", "arrivals": "poisson"}, "analytic substrate"),
            ({"load": 0.5}, "arrival process"),
            ({"hop_capacities": [10.0, 20.0, 30.0]}, "dumbbell"),
            ({"seeds": 0}, "at least 1"),
        ],
    )
    def test_malformed_grids_rejected(self, axes, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(**axes)

    @pytest.mark.parametrize(
        ("axes", "match"),
        [
            ({"topology": "parking-lot", "arrivals": "poisson"}, "dumbbell grid"),
            ({"topology": "parking-lot", "short_rtt": True}, "short_rtt"),
        ],
    )
    def test_scenario_level_conflicts_raise_per_point(self, axes, match):
        grid = GridSpec(mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["droptail"], **axes)
        with pytest.raises(ValueError, match=match):
            next(grid.points()).config()

    def test_fluid_seed_replicas_share_a_key(self):
        grid = GridSpec(mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["droptail"], seeds=3)
        assert len({p.key for p in grid.points()}) == 1
        emulated = replace(grid, substrate="emulation")
        assert len({p.key for p in emulated.points()}) == 3


class TestPresetsLoad:
    @pytest.mark.parametrize("path", sorted((REPO_ROOT / "examples" / "presets").glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_example_presets_load(self, path):
        preset = load_preset(path)
        assert preset.grid.mixes and preset.mixes == preset.grid.mixes

    def test_unknown_keys_still_rejected(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("grid: {buffers: [1]}\n")
        with pytest.raises(PresetError, match="unknown key"):
            load_preset(path)
