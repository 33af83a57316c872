"""Traced in-process replay of one campaign, for the per-layer numbers.

Run as ``python replay.py PRESET OUT.json LAUNCH_EPOCH`` from the campaign's
working directory, with ``src`` on ``PYTHONPATH``.  It runs the real entry
point (``repro.cli.main(["campaign", ...])``) in this process after wrapping
the public calls into each layer with timers and counters, and samples the
stack with ``ITIMER_PROF`` to split each layer's time by module.  Nothing
inside ``src/`` is changed; all measurement happens from outside the calls.

The JSON written to OUT holds raw sums; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import signal
import sys
import time
from collections import Counter

LAUNCH_EPOCH = float(sys.argv[3])

#: CPU-time sampling interval of the stack sampler.
SAMPLE_INTERVAL_S = 0.002

import repro.cli as cli  # noqa: E402
import repro.analysis as analysis  # noqa: E402
import repro.analysis.adapter as adapter  # noqa: E402
from repro.core.simulator import FluidSimulator  # noqa: E402
from repro.emulation.runner import EmulationRunner  # noqa: E402
from repro.experiments import presets, sweep  # noqa: E402
from repro.experiments.executor import ResilientExecutor  # noqa: E402
from repro.experiments.store import SweepStore  # noqa: E402

IMPORTED_EPOCH = time.time()

REPRO_DIR = os.path.dirname(os.path.abspath(cli.__file__)) + os.sep
SCIPY_MARK = os.sep + "scipy" + os.sep


class Layers:
    """Inclusive time per layer plus the time covered by any layer call."""

    def __init__(self) -> None:
        self.inclusive: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.attributed_s = 0.0
        self._depth = 0
        self._active: Counter[str] = Counter()

    def wrap(self, layer: str, fn, after=None):
        """Time ``fn`` as ``layer``; ``after(result, args, kwargs)`` records counts."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = self._depth == 0
            first = self._active[layer] == 0
            self._depth += 1
            self._active[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                self._active[layer] -= 1
                if first:
                    self.inclusive[layer] += elapsed
                if outer:
                    self.attributed_s += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return timed


class Sampler:
    """Charges each CPU-time tick to the innermost ``src/repro`` frame."""

    def __init__(self) -> None:
        self.samples: Counter[str] = Counter()

    def _tick(self, signum, frame) -> None:
        saw_scipy = False
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.startswith(REPRO_DIR):
                module = filename[len(REPRO_DIR):-3].replace(os.sep, ".")
                self.samples["scipy@" + module if saw_scipy else module] += 1
                return
            if SCIPY_MARK in filename:
                saw_scipy = True
            frame = frame.f_back
        self.samples["<outside>"] += 1

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)


def install(layers: Layers) -> dict:
    """Wrap every measured public call; returns the record of put() runtimes."""
    puts: dict = {"cpu_s": 0.0, "fluid_wall_s": 0.0, "fluid_steps": 0,
                  "fluid_flow_steps": 0, "fluid_points": 0}

    def fluid_ran(result, args, kwargs):
        sim = args[0]
        layers.counts["core.steps"] += sim.runtime.get("steps", 0)
        layers.counts["core.flow_steps"] += sim.runtime.get("steps", 0) * sim.runtime.get("flows", 0)
        layers.counts["core.integrations"] += 1

    def batch_ran(result, args, kwargs):
        layers.counts["core.lockstep_scenarios"] += len(args[0])
        layers.counts["core.lockstep_batches"] += 1

    def emu_ran(result, args, kwargs):
        counters = args[0].runtime_counters()
        for name in ("events_popped", "pkts_sent", "pkts_delivered"):
            layers.counts["emulation." + name] += counters[name]
        layers.counts["emulation.heap_peak"] = max(
            layers.counts["emulation.heap_peak"], counters["heap_peak"]
        )

    def analyzed(result, args, kwargs):
        if result.method == "numerical":
            layers.counts["analysis.points_numerical"] += 1

    def got(result, args, kwargs):
        layers.counts["store.gets"] += 1
        if result is not None:
            layers.counts["store.hits"] += 1

    def put(result, args, kwargs):
        layers.counts["store.puts"] += 1
        runtime = kwargs.get("runtime")
        if not runtime:
            return
        puts["cpu_s"] += runtime.get("cpu_s", 0.0)
        counters = runtime.get("counters", {})
        if kwargs["meta"].get("substrate") == "fluid" and "flows" in counters:
            # A pooled point: one whole integration ran inside a worker.
            puts["fluid_wall_s"] += runtime.get("wall_s", 0.0)
            puts["fluid_steps"] += counters["steps"]
            puts["fluid_flow_steps"] += counters["steps"] * counters["flows"]
            puts["fluid_points"] += 1

    def executed(report, args, kwargs):
        tasks = args[1]
        layers.counts["executor.tasks"] += len(tasks)
        layers.counts["executor.retries"] += sum(report.attempts.values()) - len(tasks)
        layers.counts["executor.workers"] = max(
            layers.counts["executor.workers"], args[0].policy.workers or 1
        )

    sweep.simulate_many = layers.wrap("core", sweep.simulate_many, batch_ran)
    FluidSimulator.run = layers.wrap("core", FluidSimulator.run, fluid_ran)
    EmulationRunner.__init__ = layers.wrap("emulation.build", EmulationRunner.__init__)
    EmulationRunner.run = layers.wrap("emulation.run", EmulationRunner.run, emu_ran)
    analysis.analyze_scenario = layers.wrap("analysis", analysis.analyze_scenario, analyzed)
    rhs = adapter.mixed_reduced_rhs

    def counted_rhs(*args):
        start = time.perf_counter()
        try:
            return rhs(*args)
        finally:
            layers.inclusive["analysis.rhs"] += time.perf_counter() - start
            layers.counts["analysis.rhs_evals"] += 1

    adapter.mixed_reduced_rhs = counted_rhs
    sweep.aggregate_metrics = layers.wrap("metrics.aggregate", sweep.aggregate_metrics)
    SweepStore.__init__ = layers.wrap("store.open", SweepStore.__init__)
    SweepStore.get = layers.wrap("store.get", SweepStore.get, got)
    SweepStore.put = layers.wrap("store.put", SweepStore.put, put)
    ResilientExecutor.run = layers.wrap("executor", ResilientExecutor.run, executed)
    return puts


def grid_seconds(preset_path: str) -> float:
    """Wall time of enumerating the grid's store keys (what ``status`` does)."""
    preset = presets.load_preset(preset_path)
    start = time.perf_counter()
    sweep.grid_point_keys(
        mixes=preset.mixes,
        buffers_bdp=preset.buffers_bdp,
        disciplines=preset.disciplines,
        substrate=preset.substrate,
        duration_s=preset.duration_s,
        seeds=preset.seeds,
    )
    return time.perf_counter() - start


def main() -> int:
    preset_path, out_path = sys.argv[1], sys.argv[2]
    layers = Layers()
    puts = install(layers)
    campaign_wall = {"s": 0.0, "attributed_s": 0.0}
    run_campaign = sweep.run_campaign

    def timed_campaign(*args, **kwargs):
        attributed0 = layers.attributed_s
        start = time.perf_counter()
        try:
            return run_campaign(*args, **kwargs)
        finally:
            campaign_wall["s"] += time.perf_counter() - start
            campaign_wall["attributed_s"] += layers.attributed_s - attributed0

    sweep.run_campaign = timed_campaign
    grid_s = grid_seconds(preset_path)
    sampler = Sampler()
    with sampler.running(), contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["campaign", "--preset", preset_path, "-q"])
    with open(out_path, "w") as handle:
        json.dump(
            {
                "launch_to_imported_s": IMPORTED_EPOCH - LAUNCH_EPOCH,
                "grid_s": grid_s,
                "campaign_s": campaign_wall["s"],
                "campaign_attributed_s": campaign_wall["attributed_s"],
                "attributed_s": layers.attributed_s + grid_s,
                "inclusive_s": dict(layers.inclusive),
                "counts": dict(layers.counts),
                "puts": puts,
                "samples": dict(sampler.samples),
                "sample_interval_s": SAMPLE_INTERVAL_S,
            },
            handle,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
