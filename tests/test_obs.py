"""Tests of the runtime telemetry layer (``repro.obs``) and its surfaces.

Five concerns:

* the :class:`~repro.obs.Telemetry` registry itself — disabled no-ops,
  counters/gauges/spans, the ``tracing()`` context (span-log JSONL, env
  export to pool workers, state restoration);
* the structured stderr logger and the Chrome trace-event exporter;
* per-point ``runtime`` blocks in stored records (including the batched
  lockstep ``shared=`` amortisation and legacy rows without the block);
* the observability guarantee itself — ``--trace`` must not change any
  store row's scenario key or metric values, on either substrate;
* the CLI surfaces: ``store summary`` (both backends), ``status``,
  ``trace export --chrome``, ``campaign --trace`` and the ``-v``/``-q``
  log-level flags — plus the OBS001 label-hygiene checker fixture.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro import cli
from repro.devtools.base import CheckContext
from repro.devtools.obscheck import ObsLabelChecker
from repro.experiments import sweep
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore
from repro.experiments.summary import percentile, render_summary, summarize_store
from repro.metrics.aggregate import AggregateMetrics
from repro.obs import ENV_VAR, TELEMETRY, RuntimeCapture, chrome_trace, export_chrome
from repro.obs import log as obs_log
from repro.obs import telemetry as telemetry_module

FIXTURES = Path(__file__).resolve().parent / "devtools_fixtures"

FAST = dict(duration_s=0.5, dt=1e-3)


@pytest.fixture(autouse=True)
def _clean_obs(monkeypatch):
    """Isolate the process-global telemetry/log/cache state per test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    TELEMETRY.disable()
    TELEMETRY.reset()
    sweep.clear_cache()
    prev_level = obs_log.level()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()
    sweep.clear_cache()
    obs_log.set_level(prev_level)


def _metrics(value: float = 1.0) -> AggregateMetrics:
    return AggregateMetrics(
        jain_fairness=value,
        loss_percent=value * 2,
        buffer_occupancy_percent=value * 3,
        utilization_percent=value * 4,
        jitter_ms=value * 5,
    )


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


# ---------------------------------------------------------------- registry


class TestTelemetry:
    def test_disabled_is_inert(self):
        TELEMETRY.count("emu.events_popped", 5)
        TELEMETRY.gauge("emu.heap_peak", 3)
        TELEMETRY.gauge_max("emu.heap_peak", 9)
        snap = TELEMETRY.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "spans": {}}
        # The disabled span stub is one shared object — no per-call allocation.
        assert TELEMETRY.span("fluid.integrate") is TELEMETRY.span("emu.run")

    def test_counters_gauges_and_spans(self):
        TELEMETRY.enable()
        TELEMETRY.count("store.hit")
        TELEMETRY.count("store.hit", 2)
        TELEMETRY.gauge("exec.window", 4)
        TELEMETRY.gauge_max("emu.heap_peak", 7)
        TELEMETRY.gauge_max("emu.heap_peak", 3)  # below high-water: ignored
        with TELEMETRY.span("fluid.integrate", flows=2):
            pass
        snap = TELEMETRY.snapshot()
        assert snap["counters"] == {"store.hit": 3}
        assert snap["gauges"] == {"exec.window": 4, "emu.heap_peak": 7}
        assert snap["spans"]["fluid.integrate"]["count"] == 1
        assert snap["spans"]["fluid.integrate"]["total_s"] >= 0.0

    def test_reset_keeps_enabled_state(self):
        TELEMETRY.enable()
        TELEMETRY.count("store.hit")
        TELEMETRY.reset()
        assert TELEMETRY.enabled
        assert TELEMETRY.snapshot()["counters"] == {}

    def test_tracing_writes_spans_and_restores_state(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        with TELEMETRY.tracing(trace):
            assert TELEMETRY.enabled
            assert os.environ[ENV_VAR] == str(trace)
            with TELEMETRY.span("emu.run", mix="BBRv1"):
                pass
        # Prior state (disabled, no env var) is restored on exit.
        assert not TELEMETRY.enabled
        assert ENV_VAR not in os.environ
        events = _read_jsonl(trace)
        span = next(e for e in events if e["ev"] == "span")
        assert span["name"] == "emu.run"
        assert span["pid"] == os.getpid()
        assert span["dur"] >= 0.0
        assert span["fields"] == {"mix": "BBRv1"}
        # The exit flush appends one counters snapshot for the exporter.
        assert events[-1]["ev"] == "counters"
        assert events[-1]["spans"]["emu.run"]["count"] == 1

    def test_tracing_restores_prior_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        with TELEMETRY.tracing(tmp_path / "spans.jsonl"):
            assert os.environ[ENV_VAR] != "1"
        assert os.environ[ENV_VAR] == "1"

    def test_env_value_one_enables_counters_only(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        telemetry_module._configure_from_env()
        assert TELEMETRY.enabled
        assert TELEMETRY.trace_path is None

    def test_env_path_enables_span_log(self, monkeypatch, tmp_path):
        trace = tmp_path / "worker-spans.jsonl"
        monkeypatch.setenv(ENV_VAR, str(trace))
        telemetry_module._configure_from_env()
        assert TELEMETRY.enabled
        assert TELEMETRY.trace_path == trace


# ---------------------------------------------------------------- logging


class TestLog:
    def test_info_prints_event_and_fields_to_stderr(self, capsys):
        obs_log.set_level("info")
        obs_log.info("executor.progress", "3/9 points done", failed=1)
        err = capsys.readouterr().err
        assert "3/9 points done" in err
        assert "failed=1" in err

    def test_level_gate(self, capsys):
        obs_log.set_level("warning")
        obs_log.info("executor.progress", "chatter")
        obs_log.warning("campaign.store_missing", "no store configured")
        err = capsys.readouterr().err
        assert "chatter" not in err
        assert "no store configured" in err

    def test_quiet_is_an_error_alias(self, capsys):
        obs_log.set_level("quiet")
        assert obs_log.level() == "quiet"
        obs_log.warning("campaign.failures", "suppressed")
        obs_log.error("campaign.failures", "2 point(s) failed")
        err = capsys.readouterr().err
        assert "suppressed" not in err
        assert "2 point(s) failed" in err

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_log.set_level("loud")

    def test_records_mirror_into_span_log_below_threshold(self, tmp_path, capsys):
        obs_log.set_level("warning")
        trace = tmp_path / "spans.jsonl"
        with TELEMETRY.tracing(trace):
            obs_log.info("executor.progress", "quiet on stderr", done=2)
        assert "quiet on stderr" not in capsys.readouterr().err
        record = next(e for e in _read_jsonl(trace) if e["ev"] == "log")
        assert record["event"] == "executor.progress"
        assert record["level"] == "info"
        assert record["fields"] == {"done": 2}


# ---------------------------------------------------------------- runtime


class TestRuntimeCapture:
    def test_basic_block(self):
        with RuntimeCapture() as capture:
            sum(range(10_000))
        block = capture.block({"steps": 42})
        assert block["wall_s"] >= 0.0
        assert block["cpu_s"] >= 0.0
        assert block["max_rss_kb"] > 0
        assert block["counters"] == {"steps": 42}
        assert "shared" not in block

    def test_shared_divides_wall_and_cpu(self):
        with RuntimeCapture() as capture:
            sum(range(10_000))
        block = capture.block(shared=4)
        assert block["shared"] == 4
        assert block["wall_s"] == round(capture.wall_s / 4, 6)
        assert block["cpu_s"] == round(capture.cpu_s / 4, 6)


# ---------------------------------------------------------------- chrome


class TestChromeExport:
    EVENTS = [
        {"ev": "span", "name": "emu.run", "pid": 7, "ts": 2.0, "dur": 0.25,
         "fields": {"mix": "BBRv1"}},
        {"ev": "log", "level": "info", "event": "executor.progress",
         "msg": "1/1 done", "pid": 7},
        {"ev": "counters", "pid": 7, "counters": {"emu.events_popped": 12},
         "gauges": {}, "spans": {}},
    ]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self.EVENTS)
        assert doc["displayTimeUnit"] == "ms"
        by_ph = {e["ph"]: e for e in doc["traceEvents"]}
        span = by_ph["X"]
        assert span["name"] == "emu.run"
        assert span["ts"] == pytest.approx(2.0e6)
        assert span["dur"] == pytest.approx(0.25e6)
        assert span["args"] == {"mix": "BBRv1"}
        # Instants and counters are pinned to their pid's earliest span.
        assert by_ph["i"]["ts"] == span["ts"]
        assert by_ph["C"]["name"] == "emu.events_popped"
        assert by_ph["C"]["args"] == {"value": 12}

    def test_export_skips_torn_tail(self, tmp_path):
        span_log = tmp_path / "spans.jsonl"
        lines = [json.dumps(e) for e in self.EVENTS]
        span_log.write_text("\n".join(lines) + '\n{"ev": "span", "na')
        count, out = export_chrome(span_log)
        assert out == tmp_path / "spans.chrome.json"
        assert count == 3
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == 3


# ---------------------------------------------------------------- devtools


class TestObsLabelChecker:
    def test_obs001_fixture(self):
        findings = ObsLabelChecker().run(CheckContext(FIXTURES / "obs001"))
        assert [f.rule for f in findings] == ["OBS001", "OBS001"]
        messages = " ".join(f.message for f in findings)
        assert "not a string literal" in messages
        assert "'queue_depth'" in messages
        # The literal, namespaced calls in the same fixture are not flagged.
        assert "emu." not in messages


# ---------------------------------------------------------------- store rows


def _grid(substrate: str, **axes) -> GridSpec:
    axes = {"mixes": ["BBRv1"], "buffers_bdp": [1.0], **axes}
    return GridSpec(disciplines=["droptail"], substrate=substrate, **axes)


class TestRuntimeInStore:
    def test_fluid_point_stores_runtime_block(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        grid = _grid("fluid", **FAST)
        (point,) = sweep.run_campaign(grid, store=store).points
        assert point.runtime is not None
        assert point.runtime["wall_s"] >= 0.0
        assert point.runtime["counters"]["steps"] > 0
        record = store.select()[0]
        assert record["runtime"] == point.runtime
        # Non-keyed: the block never participates in point equality.
        assert dataclasses.replace(point, runtime=None) == point

    def test_emulation_point_stores_substrate_counters(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        (point,) = sweep.run_campaign(
            _grid("emulation", duration_s=0.5), store=store
        ).points
        counters = point.runtime["counters"]
        assert counters["events_popped"] > 0
        assert counters["heap_peak"] > 0
        assert counters["pkts_sent"] > 0

    def test_warm_point_has_no_runtime(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        sweep.run_campaign(_grid("fluid", **FAST), store=store)
        sweep.clear_cache()
        (warm,) = sweep.run_campaign(_grid("fluid", **FAST), store=store).points
        assert warm.runtime is None

    def test_batched_fluid_sweep_amortises_runtime(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        grid = _grid("fluid", mixes=["BBRv1", "BBRv2"], buffers_bdp=[0.5], **FAST)
        points = sweep.run_campaign(grid, store=store).points
        assert len(points) == 2
        for point in points:
            assert point.runtime["shared"] == 2
            assert point.runtime["counters"]["lockstep"] == 2
        for record in store.select():
            assert record["runtime"]["shared"] == 2

    def test_legacy_rows_without_runtime_load_fine(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        store.put("legacy", _metrics(), meta={"mix": "BBRv1", "substrate": "fluid"})
        record = store.select()[0]
        assert "runtime" not in record
        summary = summarize_store(store)
        assert summary["rows"] == 1
        assert summary["runtime"] == {}


# ------------------------------------------------------- trace determinism


class TestTraceDeterminism:
    @pytest.mark.parametrize("substrate", ["fluid", "emulation"])
    def test_trace_does_not_change_keys_or_metrics(self, tmp_path, substrate):
        grid = _grid(
            substrate,
            mixes=["BBRv1", "BBRv1/CUBIC"] if substrate == "fluid" else ["BBRv1"],
            buffers_bdp=[0.5],
            duration_s=0.5,
        )
        plain = SweepStore(tmp_path / "plain.jsonl")
        sweep.run_campaign(grid, store=plain)
        sweep.clear_cache()
        trace = tmp_path / "spans.jsonl"
        traced = SweepStore(tmp_path / "traced.jsonl")
        sweep.run_campaign(grid, store=traced, trace=trace)
        # Tracing is pure observability: bit-identical keys and metrics.
        plain_rows = {r["key"]: r["metrics"] for r in plain.select()}
        traced_rows = {r["key"]: r["metrics"] for r in traced.select()}
        assert traced_rows == plain_rows
        assert plain_rows
        # The span log was actually written, and state was restored.
        assert any(e["ev"] == "span" for e in _read_jsonl(trace))
        assert not TELEMETRY.enabled
        assert ENV_VAR not in os.environ


# ---------------------------------------------------------------- summary


class TestSummary:
    def test_percentile(self):
        assert percentile([3.0], 99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="level"):
            percentile([1.0], 101)

    def test_summarize_and_render(self, tmp_path):
        store = SweepStore(tmp_path / "s.jsonl")
        store.put(
            "k1", _metrics(),
            meta={"mix": "BBRv1", "substrate": "fluid", "buffer_bdp": 0.5},
            runtime={"wall_s": 0.5, "cpu_s": 0.4},
        )
        store.put(
            "k2", _metrics(2.0),
            meta={"mix": "BBRv2", "substrate": "fluid", "buffer_bdp": 0.5},
            runtime={"wall_s": 1.5, "cpu_s": 1.4},
        )
        store.put_failure("k3", "boom", meta={"mix": "BBRv2", "buffer_bdp": 1.0})
        summary = summarize_store(store)
        assert summary["rows"] == 2
        assert summary["failures"] == 1
        assert summary["axes"]["mix"] == {"BBRv1": 1, "BBRv2": 1}
        assert summary["axes"]["buffer_bdp"] == {"0.5": 2}
        fluid = summary["runtime"]["fluid"]
        assert fluid["points"] == 2
        assert fluid["wall_s"]["p50"] == 1.0
        assert fluid["wall_s"]["total"] == 2.0
        text = render_summary(summary)
        assert "2 results, 1 failures" in text
        assert "BBRv1" in text
        assert "wall_s" in text


# ---------------------------------------------------------------- CLI


class TestStoreSummaryCli:
    @pytest.mark.parametrize("name,backend", [
        ("s.jsonl", "jsonl"),
        ("s.sqlite", "sqlite"),
    ])
    def test_summary_on_every_backend(self, tmp_path, capsys, name, backend):
        path = tmp_path / name
        store = SweepStore(path)
        assert store.backend == backend
        store.put(
            "k1", _metrics(),
            meta={"mix": "BBRv1", "substrate": "fluid"},
            runtime={"wall_s": 0.25, "cpu_s": 0.2},
        )
        store.put_failure("k2", "boom", meta={"mix": "BBRv2"})
        store.close()
        assert cli.main(["store", "summary", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == backend
        assert summary["rows"] == 1
        assert summary["failures"] == 1
        assert summary["runtime"]["fluid"]["wall_s"]["p50"] == 0.25
        assert cli.main(["store", "summary", str(path)]) == 0
        assert "1 results, 1 failures" in capsys.readouterr().out

    def test_missing_store_exits_2_without_creating_it(self, tmp_path, capsys):
        path = tmp_path / "typo.sqlite"
        assert cli.main(["store", "summary", str(path)]) == 2
        assert "not found" in capsys.readouterr().err
        assert not path.exists()


class TestStatusCli:
    GRID = [
        "--substrate", "fluid", "--mixes", "BBRv1", "--buffers", "0.5",
        "--disciplines", "droptail", "--duration", "0.5", "--seeds", "1",
    ]

    def _filled_store(self, tmp_path) -> Path:
        path = tmp_path / "s.jsonl"
        store = SweepStore(path)
        sweep.run_campaign(_grid("fluid", buffers_bdp=[0.5], duration_s=0.5), store=store)
        return path

    def test_complete_grid_exits_0(self, tmp_path, capsys):
        path = self._filled_store(tmp_path)
        assert cli.main(["status", str(path), *self.GRID]) == 0
        out = capsys.readouterr().out
        assert "1 done" in out
        assert "0 remaining" in out

    def test_remaining_points_exit_1(self, tmp_path, capsys):
        path = self._filled_store(tmp_path)
        argv = ["status", str(path), *self.GRID]
        argv[argv.index("BBRv1") + 1 : argv.index("BBRv1") + 1] = ["BBRv2"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "1 done" in out
        assert "1 remaining" in out

    def test_json_output_lists_remaining_coords(self, tmp_path, capsys):
        path = self._filled_store(tmp_path)
        argv = ["status", str(path), *self.GRID, "--json"]
        argv[argv.index("BBRv1") + 1 : argv.index("BBRv1") + 1] = ["BBRv2"]
        assert cli.main(argv) == 1
        status = json.loads(capsys.readouterr().out)
        assert status["done"] == 1
        assert status["remaining"] == 1
        assert [p["mix"] for p in status["remaining_points"]] == ["BBRv2"]

    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert cli.main(["status", str(tmp_path / "nope.jsonl"), *self.GRID]) == 2
        assert "not found" in capsys.readouterr().err

    def test_no_store_at_all_exits_2(self, capsys):
        assert cli.main(["status", *self.GRID]) == 2
        assert "no store" in capsys.readouterr().err


class TestTraceExportCli:
    def test_export_requires_a_format(self, tmp_path, capsys):
        span_log = tmp_path / "spans.jsonl"
        span_log.write_text('{"ev": "span", "name": "emu.run", "pid": 1, '
                            '"ts": 0.0, "dur": 1.0}\n')
        assert cli.main(["trace", "export", str(span_log)]) == 2
        assert "--chrome" in capsys.readouterr().err

    def test_missing_span_log_exits_2(self, tmp_path, capsys):
        assert cli.main(
            ["trace", "export", str(tmp_path / "nope.jsonl"), "--chrome"]
        ) == 2
        assert "not found" in capsys.readouterr().err

    def test_export_chrome_with_output_path(self, tmp_path, capsys):
        span_log = tmp_path / "spans.jsonl"
        span_log.write_text('{"ev": "span", "name": "emu.run", "pid": 1, '
                            '"ts": 0.0, "dur": 1.0}\n')
        out = tmp_path / "flame.json"
        code = cli.main(
            ["trace", "export", str(span_log), "--chrome", "-o", str(out)]
        )
        assert code == 0
        assert "1 trace events" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]


class TestCampaignTraceCli:
    def test_traced_campaign_end_to_end(self, tmp_path, capsys):
        store_path = tmp_path / "results.sqlite"
        trace = tmp_path / "spans.jsonl"
        code = cli.main([
            "campaign", "--substrate", "fluid", "--mixes", "BBRv1",
            "--buffers", "0.5", "--seeds", "1", "--duration", "0.5",
            "--store", str(store_path), "--trace", str(trace),
        ])
        assert code == 0
        capsys.readouterr()
        # The traced run persisted runtime blocks alongside the metrics...
        store = SweepStore(store_path)
        record = store.select()[0]
        assert record["runtime"]["wall_s"] >= 0.0
        store.close()
        # ...and the span log converts to a loadable Chrome trace.
        assert cli.main(["trace", "export", str(trace), "--chrome"]) == 0
        doc = json.loads((tmp_path / "spans.chrome.json").read_text())
        assert doc["traceEvents"]

    def test_quiet_and_verbose_flags_set_log_level(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        store = SweepStore(path)
        store.put("k", _metrics(), meta={"mix": "BBRv1"})
        store.close()
        assert cli.main(["--quiet", "store", "summary", str(path)]) == 0
        assert obs_log.level() == "quiet"
        assert cli.main(["-v", "store", "summary", str(path)]) == 0
        assert obs_log.level() == "debug"
        capsys.readouterr()
