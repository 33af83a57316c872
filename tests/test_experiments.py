"""Tests of the experiment harness: scenarios, sweeps, figures, reports."""

from __future__ import annotations

import pytest

from repro.experiments import figures, report, scenarios, sweep
from repro.experiments.grid import GridSpec


class TestScenarios:
    def test_all_mixes_have_ten_senders(self):
        for mix, ccas in scenarios.CCA_MIXES.items():
            assert len(ccas) == 10, mix

    def test_heterogeneous_mixes_are_half_half(self):
        for mix, ccas in scenarios.CCA_MIXES.items():
            if "/" in mix:
                distinct = set(ccas)
                assert len(distinct) == 2, mix
                assert all(ccas.count(cca) == 5 for cca in distinct), mix

    def test_trace_validation_scenario_matches_paper(self):
        config = scenarios.trace_validation_scenario("bbr1")
        assert config.num_flows == 1
        assert config.bottleneck.capacity_mbps == 100.0
        assert config.bottleneck.delay_s == pytest.approx(0.010)
        assert config.rtt_s(0) == pytest.approx(0.0312)
        assert config.bottleneck.buffer_bdp == 1.0

    def test_aggregate_scenario_rtt_ranges(self):
        normal = scenarios.aggregate_scenario("BBRv1", 2.0, "droptail")
        short = scenarios.aggregate_scenario("BBRv1", 2.0, "droptail", short_rtt=True)
        assert 0.030 <= normal.rtt_s(0) <= 0.040
        assert 0.010 <= short.rtt_s(0) <= 0.020

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            scenarios.aggregate_scenario("BBRv3", 1.0, "droptail")

    def test_competition_scenario_flow_order(self):
        config = scenarios.competition_scenario()
        assert [f.cca for f in config.flows] == ["reno", "bbr1"]


class TestSweep:
    @pytest.fixture(autouse=True)
    def _clear_cache(self):
        sweep.clear_cache()
        yield
        sweep.clear_cache()

    def fast_kwargs(self):
        return dict(duration_s=1.0, dt=1e-3)

    def grid(self, mixes=("BBRv1",), buffers_bdp=(1.0,), disciplines=("droptail",), **axes):
        return GridSpec(
            mixes=mixes, buffers_bdp=buffers_bdp, disciplines=disciplines,
            **{**self.fast_kwargs(), **axes},
        )

    def run(self, **axes):
        return sweep.run_campaign(self.grid(**axes)).points[0]

    def test_run_returns_metrics(self):
        point = self.run()
        assert point.mix == "BBRv1"
        assert 0.0 <= point.metrics.jain_fairness <= 1.0
        assert 0.0 <= point.metrics.utilization_percent <= 100.0

    def test_cache_reuses_results(self):
        assert self.run() is self.run()

    def test_clear_cache_forces_recompute(self):
        first = self.run()
        sweep.clear_cache()
        second = self.run()
        assert first is not second
        assert first == second

    def test_campaign_covers_grid(self):
        points = sweep.run_campaign(
            self.grid(mixes=["BBRv1", "BBRv2"], buffers_bdp=[1.0, 4.0])
        ).points
        assert len(points) == 4
        assert {p.buffer_bdp for p in points} == {1.0, 4.0}

    def test_series_extraction_sorted(self):
        points = sweep.run_campaign(self.grid(buffers_bdp=[4.0, 1.0])).points
        line = sweep.series(points, "utilization_percent", "BBRv1", "droptail")
        assert [x for x, _ in line] == [1.0, 4.0]

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            self.grid(substrate="ns3")

    def test_row_flattening(self):
        row = self.run().row()
        assert row["mix"] == "BBRv1"
        assert "jain_fairness" in row

    def test_batched_sweep_matches_per_point_runs(self):
        grid = self.grid(
            mixes=["BBRv1", "BBRv1/RENO"], buffers_bdp=[1.0, 4.0],
            disciplines=["droptail", "red"],
        )
        batched = sweep.run_campaign(grid).points
        for spec, point in zip(grid.points(), batched, strict=True):
            reference = sweep.compute_point(spec)
            for key, value in reference.metrics.as_dict().items():
                assert point.metrics.as_dict()[key] == pytest.approx(value, rel=1e-9, nan_ok=True)

    def test_campaign_serves_cached_points_before_dispatch(self, monkeypatch):
        cached = self.run()
        monkeypatch.setattr(sweep, "simulate_many", lambda configs: pytest.fail("recomputed"))
        assert self.run() is cached

    def test_cache_key_distinguishes_seed_and_sampling(self):
        def key(**overrides):
            return next(self.grid(substrate="emulation", **overrides).points()).key

        base = key()
        # Regression: points differing only in seed (or in the emulator's
        # sampling parameters) used to alias onto one cache slot.
        assert base != key(seeds=[2])
        assert base != key(record_interval_s=0.02)
        assert base != key(scheduler="closure")

    def test_emulation_seeds_cached_separately(self):
        grid = self.grid(substrate="emulation", seeds=[1, 2], duration_s=0.5)
        first, second = sweep.run_campaign(grid).replicas
        assert (first.seed, second.seed) == (1, 2)
        assert first is not second
        # Both seeds are served from the cache on re-request.
        again = sweep.run_campaign(grid).replicas
        assert again[0] is first and again[1] is second

    def test_sweep_point_row_includes_seed(self):
        point = sweep.run_campaign(self.grid(seeds=[4])).replicas[0]
        assert point.row()["seed"] == 4

    def test_workers_pool_failure_names_combo(self, monkeypatch):
        # A worker failure must not silently discard completed points and
        # must identify the failing grid coordinates.
        def exploding(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(sweep, "FluidSimulator", exploding)
        with pytest.raises(sweep.SweepPointError) as excinfo:
            sweep.run_campaign(self.grid(buffers_bdp=[3.0]), workers=2)
        assert excinfo.value.mix == "BBRv1"
        assert excinfo.value.buffer_bdp == 3.0
        assert "boom" in str(excinfo.value)

    def test_workers_path_matches_serial(self):
        serial = sweep.run_campaign(self.grid()).points
        sweep.clear_cache()
        parallel = sweep.run_campaign(self.grid(), workers=2).points
        assert len(parallel) == len(serial) == 1
        for key, value in serial[0].metrics.as_dict().items():
            assert parallel[0].metrics.as_dict()[key] == pytest.approx(value, rel=1e-9, nan_ok=True)


class TestFigures:
    def test_theorem_table_rows(self):
        rows = figures.theorem_table(flow_counts=(2, 10))
        assert len(rows) == 2
        for row in rows:
            assert row["thm2_stable"] and row["thm3_stable"] and row["thm5_stable"]
            assert row["thm1_queue_bdp"] == pytest.approx(1.0)
            assert row["thm4_queue_bdp"] < 0.25

    def test_convergence_demo_reaches_expected_queue(self):
        result = figures.convergence_demo("bbr2", num_flows=5, duration_s=40.0)
        assert result["final_queue_pkts"] == pytest.approx(
            result["expected_queue_pkts"], rel=0.05
        )

    def test_figure_2_variables_present(self):
        data = figures.figure_2(duration_s=0.3, dt=5e-4)
        assert set(data) == {"bbr1", "bbr2"}
        assert "w_hi_pkts" in data["bbr2"]
        assert len(data["bbr1"]["time"]) > 10

    def test_aggregate_figure_requires_known_metric(self):
        with pytest.raises(ValueError):
            figures.aggregate_figure("throughput")

    def test_aggregate_figure_structure(self):
        sweep.clear_cache()
        data = figures.figure_9(
            mixes=["BBRv1"],
            buffers_bdp=[1.0],
            disciplines=["droptail"],
            duration_s=1.0,
            dt=1e-3,
        )
        assert "droptail" in data
        assert data["droptail"]["BBRv1"][0][0] == 1.0

    def test_figure_index_complete(self):
        assert set(figures.AGGREGATE_FIGURES) == {
            "fig06_fairness",
            "fig07_loss",
            "fig08_queuing",
            "fig09_utilization",
            "fig10_jitter",
        }


class TestReport:
    def test_format_table_alignment(self):
        text = report.format_table(["a", "metric"], [["x", 1.23456], ["long-name", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            report.format_table(["a", "b"], [[1]])

    def test_write_csv_roundtrip(self, tmp_path):
        rows = [{"x": 1, "y": 2.5}, {"x": 2, "y": 3.5}]
        path = report.write_csv(tmp_path / "out.csv", rows)
        content = path.read_text().strip().splitlines()
        assert content[0] == "x,y"
        assert len(content) == 3

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report.write_csv(tmp_path / "out.csv", [])

    def test_series_table(self):
        text = report.series_table(
            "Fig test",
            {"BBRv1": [(1.0, 0.5), (4.0, 0.9)], "BBRv2": [(1.0, 0.7), (4.0, 0.95)]},
        )
        assert "Fig test" in text
        assert "BBRv2" in text

    def test_series_table_requires_series(self):
        with pytest.raises(ValueError):
            report.series_table("empty", {})
