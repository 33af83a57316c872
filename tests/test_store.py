"""Tests of the persistent sweep store and seed-replicated campaigns."""

from __future__ import annotations

import json

import pytest

from repro.emulation.runner import RECORD_INTERVAL_S, SCHEDULER
from repro.experiments import scenarios, sweep
from repro.experiments.grid import GridSpec, seed_list
from repro.experiments.store import (
    SCHEMA_VERSION,
    SweepStore,
    resolve_store,
    scenario_key,
    stable_hash,
)
from repro.metrics.aggregate import AggregateMetrics, summarize_metrics


def _metrics(value: float = 1.0) -> AggregateMetrics:
    return AggregateMetrics(
        jain_fairness=value,
        loss_percent=value * 2,
        buffer_occupancy_percent=value * 3,
        utilization_percent=value * 4,
        jitter_ms=value * 5,
    )


FAST = dict(duration_s=0.5, dt=1e-3)


def _grid(**axes) -> GridSpec:
    """A one-point BBRv1 droptail grid (axes override)."""
    return GridSpec(**{"mixes": ["BBRv1"], "buffers_bdp": [1.0], "disciplines": ["droptail"], **axes})


@pytest.fixture(autouse=True)
def _clear_cache():
    sweep.clear_cache()
    yield
    sweep.clear_cache()


class TestStableHash:
    def test_deterministic_and_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2.5}) == stable_hash({"b": 2.5, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_scenario_key_includes_seed(self):
        a = scenarios.aggregate_scenario("BBRv1", 1.0, "droptail", seed=1)
        b = scenarios.aggregate_scenario("BBRv1", 1.0, "droptail", seed=2)
        assert scenario_key(a, "emulation") != scenario_key(b, "emulation")

    def test_scenario_key_includes_sampling_params(self):
        import dataclasses

        config = scenarios.aggregate_scenario("BBRv1", 1.0, "droptail")
        payload = {
            "schema": SCHEMA_VERSION,
            "scenario": dataclasses.asdict(config),
            "substrate": "emulation",
            "record_interval_s": RECORD_INTERVAL_S,
            "scheduler": SCHEDULER,
        }
        # Emulation keys spell out the runner's sampling constants, at the
        # values every stored emulation key was written with.
        assert (RECORD_INTERVAL_S, SCHEDULER) == (0.01, "delayline")
        assert scenario_key(config, "emulation") == stable_hash(payload)
        assert scenario_key(config, "emulation") != scenario_key(config, "fluid")

    def test_fluid_key_ignores_emulation_sampling(self):
        import dataclasses

        config = scenarios.aggregate_scenario("BBRv1", 1.0, "droptail")
        scenario = dataclasses.asdict(config)
        scenario.pop("seed")
        payload = {"schema": SCHEMA_VERSION, "scenario": scenario, "substrate": "fluid"}
        assert scenario_key(config, "fluid") == stable_hash(payload)

    def test_fluid_key_hashes_seed_only_for_random_schedules(self):
        import dataclasses

        # A random schedule (poisson arrivals / pareto sizes) consumes the
        # seed on both substrates: fluid seed replicas are distinct points.
        churn = scenarios.churn_scenario("BBRv1", num_flows=4, arrivals="poisson")
        assert scenario_key(churn, "fluid") != scenario_key(
            dataclasses.replace(churn, seed=churn.seed + 1), "fluid"
        )
        # A deterministic schedule keeps the historical aliasing.
        det = scenarios.churn_scenario(
            "BBRv1", num_flows=4, arrivals="staggered", size_dist="infinite"
        )
        assert scenario_key(det, "fluid") == scenario_key(
            dataclasses.replace(det, seed=det.seed + 1), "fluid"
        )


class TestSweepStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = SweepStore(path)
        assert store.get("k") is None
        store.put("k", _metrics(), meta={"mix": "BBRv1", "seed": 3})
        assert store.get("k") == _metrics()
        # A fresh instance reloads from disk.
        reloaded = SweepStore(path)
        assert len(reloaded) == 1
        assert reloaded.get("k") == _metrics()

    def test_hit_miss_counters(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        store.get("absent")
        store.put("k", _metrics())
        store.get("k")
        assert (store.hits, store.misses) == (1, 1)

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = SweepStore(path)
        store.put("k", _metrics(1.0))
        store.put("k", _metrics(2.0))
        assert SweepStore(path).get("k") == _metrics(2.0)

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        SweepStore(path).put("k", _metrics())
        with path.open("a") as handle:
            handle.write('{"schema": 1, "key": "torn", "metr')
        store = SweepStore(path)
        assert store.get("k") == _metrics()
        assert "torn" not in store

    def test_schema_mismatch_ignored(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record = {
            "schema": SCHEMA_VERSION + 1,
            "key": "old",
            "metrics": _metrics().as_dict(),
            "meta": {},
        }
        path.write_text(json.dumps(record) + "\n")
        assert SweepStore(path).get("old") is None

    def test_schema_is_v4_after_flow_schedules(self):
        # ScenarioConfig grew a FlowSchedule and AggregateMetrics the churn
        # columns, so every scenario hash and stored row shape changed.
        assert SCHEMA_VERSION == 4

    def test_v2_rows_skipped_on_load(self, tmp_path):
        # Regression: a store written by the pre-attenuation code (schema
        # 2, e.g. a stale parking-lot fluid point) must not serve its rows
        # — they would silently mix unattenuated multi-hop results into a
        # corrected sweep — while the hit/miss counters keep counting the
        # *current-schema* lookups correctly.
        path = tmp_path / "s.jsonl"
        stale = {
            "schema": 2,
            "key": "lot-point",
            "metrics": _metrics(9.0).as_dict(),
            "meta": {"mix": "BBRv1", "topology": "parking-lot", "hops": 3},
        }
        path.write_text(json.dumps(stale) + "\n")
        store = SweepStore(path)
        assert len(store) == 0
        assert "lot-point" not in store
        assert store.get("lot-point") is None
        assert (store.hits, store.misses) == (0, 1)
        assert [r for r in store.records() if r["meta"].get("topology") == "parking-lot"] == []
        # A fresh v3 write under the same key supersedes the stale row and
        # counts as a hit from then on.
        store.put("lot-point", _metrics(1.0), meta={"mix": "BBRv1"})
        assert store.get("lot-point") == _metrics(1.0)
        assert (store.hits, store.misses) == (1, 1)
        reloaded = SweepStore(path)
        assert reloaded.get("lot-point") == _metrics(1.0)

    def test_v3_rows_skipped_on_load(self, tmp_path):
        # Regression: a store written by the pre-FlowSchedule code (schema
        # 3) must not serve its rows — they lack the churn metric columns
        # and predate the schedule-aware scenario hash — while current-
        # schema writes round-trip normally alongside the stale line.
        path = tmp_path / "s.jsonl"
        stale = {
            "schema": 3,
            "key": "pre-churn-point",
            "metrics": {
                # v3 rows carried only the five original aggregate metrics.
                "jain_fairness": 1.0,
                "loss_percent": 0.5,
                "buffer_occupancy_percent": 40.0,
                "utilization_percent": 95.0,
                "jitter_ms": 0.2,
            },
            "meta": {"mix": "BBRv1", "buffer_bdp": 1.0},
        }
        path.write_text(json.dumps(stale) + "\n")
        store = SweepStore(path)
        assert len(store) == 0
        assert store.get("pre-churn-point") is None
        assert (store.hits, store.misses) == (0, 1)
        store.put("pre-churn-point", _metrics(2.0), meta={"mix": "BBRv1"})
        assert SweepStore(path).get("pre-churn-point") == _metrics(2.0)

    def test_resolve_store(self, tmp_path, monkeypatch):
        assert resolve_store(None) is None
        store = resolve_store(tmp_path / "a.jsonl")
        assert isinstance(store, SweepStore)
        assert resolve_store(store) is store
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.jsonl"))
        env_store = resolve_store(None)
        assert env_store is not None and env_store.path.name == "env.jsonl"


class TestPointStore:
    def test_warm_point_skips_computation(self, tmp_path, monkeypatch):
        store = SweepStore(tmp_path / "s.jsonl")
        (cold,) = sweep.run_campaign(_grid(**FAST), store=store).points
        sweep.clear_cache()
        # Any recomputation would run a simulation; forbid it outright.
        monkeypatch.setattr(
            sweep, "simulate_many", lambda *a, **k: pytest.fail("point was recomputed")
        )
        (warm,) = sweep.run_campaign(_grid(**FAST), store=SweepStore(store.path)).points
        assert warm.metrics == cold.metrics

    def test_store_key_respects_seed(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        for seed in (1, 2):
            grid = _grid(substrate="emulation", seeds=[seed], duration_s=0.5)
            sweep.run_campaign(grid, store=store)
        assert len(store) == 2
        seeds = {record["meta"]["seed"] for record in store.records()}
        assert seeds == {1, 2}


class TestCampaignStore:
    GRID = _grid(buffers_bdp=[1.0, 2.0], substrate="emulation", duration_s=0.5)

    def test_warm_sweep_recomputes_nothing(self, tmp_path, monkeypatch):
        store = SweepStore(tmp_path / "s.jsonl")
        cold = sweep.run_campaign(self.GRID, store=store).points
        sweep.clear_cache()
        monkeypatch.setattr(
            sweep,
            "EmulationRunner",
            lambda *a, **k: pytest.fail("point was recomputed"),
        )
        warm_store = SweepStore(store.path)
        warm = sweep.run_campaign(self.GRID, store=warm_store).points
        assert warm_store.hits == len(cold) and warm_store.misses == 0
        assert [p.metrics for p in warm] == [p.metrics for p in cold]

    def test_interrupted_sweep_resumes_from_store(self, tmp_path, monkeypatch):
        store_path = tmp_path / "s.jsonl"
        real_runner = sweep.EmulationRunner
        calls: list[float] = []

        def failing_runner(config, **kwargs):
            calls.append(config.bottleneck.buffer_bdp)
            if config.bottleneck.buffer_bdp == 2.0:
                raise RuntimeError("simulated crash")
            return real_runner(config, **kwargs)

        monkeypatch.setattr(sweep, "EmulationRunner", failing_runner)
        with pytest.raises(sweep.SweepPointError) as excinfo:
            sweep.run_campaign(self.GRID, store=SweepStore(store_path)).points
        # The wrapped error names the failing grid point...
        assert excinfo.value.buffer_bdp == 2.0
        assert "BBRv1" in str(excinfo.value)
        # ...and the completed point was persisted before the crash.
        assert len(SweepStore(store_path)) == 1

        sweep.clear_cache()
        calls.clear()
        monkeypatch.setattr(sweep, "EmulationRunner", real_runner, raising=True)
        count_runner = lambda config, **kwargs: calls.append(
            config.bottleneck.buffer_bdp
        ) or real_runner(config, **kwargs)
        monkeypatch.setattr(sweep, "EmulationRunner", count_runner)
        points = sweep.run_campaign(self.GRID, store=SweepStore(store_path)).points
        # Resume recomputes only the point that failed.
        assert calls == [2.0]
        assert len(points) == 2


class TestSeedsAxis:
    def test_seed_list_normalisation(self):
        assert seed_list(3) == (1, 2, 3)
        assert seed_list([7, 9]) == (7, 9)
        with pytest.raises(ValueError):
            seed_list(0)
        with pytest.raises(ValueError):
            seed_list([])
        with pytest.raises(ValueError):
            seed_list([1, 1])

    def test_seeds_return_summary(self):
        (point,) = sweep.run_campaign(
            _grid(substrate="emulation", seeds=2, duration_s=0.5)
        ).points
        assert isinstance(point, sweep.SummaryPoint)
        assert point.seeds == (1, 2)
        assert point.summary.num_seeds == 2
        row = point.row()
        assert "jain_fairness_mean" in row and "jain_fairness_ci95" in row

    def test_seeds_summaries_keep_per_seed_rows(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        summaries = sweep.run_campaign(
            _grid(substrate="emulation", duration_s=0.5, seeds=3), store=store
        ).points
        assert len(summaries) == 1
        summary = summaries[0]
        assert isinstance(summary, sweep.SummaryPoint)
        # Distinct seeds genuinely vary (the RNG-collision fix keeps them
        # independent), so the spread over seeds is non-degenerate.
        assert summary.summary.std.loss_percent >= 0.0
        # Per-seed rows are recoverable from the store.
        records = [
            r for r in store.records()
            if r["meta"].get("mix") == "BBRv1" and r["meta"].get("substrate") == "emulation"
        ]
        assert {record["meta"]["seed"] for record in records} == {1, 2, 3}

    def test_fluid_seeds_are_deterministic(self):
        summaries = sweep.run_campaign(_grid(seeds=2, **FAST)).points
        # The fluid model is deterministic: replicas agree exactly.
        assert summaries[0].summary.std.utilization_percent == 0.0
        assert summaries[0].summary.ci95.jain_fairness == 0.0

    def test_fluid_seed_replicas_computed_once(self, tmp_path, monkeypatch):
        # The fluid model never consumes the seed, so K replicas must cost
        # one integration and one store record, not K.
        computed: list = []
        real = sweep.simulate_many

        def counting(configs):
            computed.extend(configs)
            return real(configs)

        monkeypatch.setattr(sweep, "simulate_many", counting)
        store = SweepStore(tmp_path / "s.jsonl")
        summaries = sweep.run_campaign(_grid(seeds=3, **FAST), store=store).points
        assert len(computed) == 1
        assert summaries[0].summary.num_seeds == 3
        assert len(store) == 1

    def test_env_store_persists_each_point_exactly_once(self, tmp_path, monkeypatch):
        # Regression: the serial path used to persist twice when the store
        # came from REPRO_STORE (once per point, once for the grid).
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_STORE", str(path))
        sweep.run_campaign(_grid(substrate="emulation", duration_s=0.5))
        assert len(path.read_text().strip().splitlines()) == 1

    def test_store_false_disables_env_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_STORE", str(path))
        sweep.run_campaign(_grid(**FAST), store=False)
        assert not path.exists()

    def test_series_on_summary_points_uses_mean(self):
        summaries = sweep.run_campaign(_grid(seeds=2, **FAST)).points
        line = sweep.series(summaries, "utilization_percent", "BBRv1", "droptail")
        assert line[0][0] == 1.0
        ci_line = sweep.series_ci(summaries, "utilization_percent", "BBRv1", "droptail")
        assert len(ci_line[0]) == 3


class TestMetricsSummary:
    def test_single_replica_zero_spread(self):
        summary = summarize_metrics([_metrics(1.0)])
        assert summary.num_seeds == 1
        assert summary.mean == _metrics(1.0)
        assert summary.std.jain_fairness == 0.0
        assert summary.ci95.jain_fairness == 0.0

    def test_two_replicas_student_t(self):
        summary = summarize_metrics([_metrics(1.0), _metrics(3.0)])
        assert summary.mean.jain_fairness == pytest.approx(2.0)
        # ddof=1 std of [1, 3] is sqrt(2); CI = t_{0.975,1} * std / sqrt(2).
        assert summary.std.jain_fairness == pytest.approx(2.0**0.5)
        assert summary.ci95.jain_fairness == pytest.approx(12.706 * 2.0**0.5 / 2.0**0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_metrics([])
