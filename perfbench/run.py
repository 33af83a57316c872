"""Campaign benchmark: ``repro-bbr campaign`` end to end, and per layer.

Measuring mode (the command ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload fluid-lockstep --seed 3 --seconds 20 --trace 0

runs the workload's generated campaign grid through the real entry point
(``python -m repro.cli campaign --preset ...``) in a subprocess, on a fresh
store, as many times as fit in ``--seconds``, checks every stored point
against the reference in ``perfbench/reference/``, and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics: medians over the repetitions, each command's times scaled to a
nominal host speed by a probe thread timed alongside it (``HostProbe``).
``--trace 1`` pairs each untraced campaign with a traced in-process replay
(``replay.py``) and reports the per-layer metrics, unscaled.  The line
before the result holds the host description, the fixed calibration loop
(``calib.py``) and the unscaled values.

Other modes::

    python3 perfbench/run.py --steady 5 --workload emu-grid [--sets 2] [--trace 1]
    python3 perfbench/run.py --update-reference [--workload NAME]

``--steady K`` runs the workload K times with distinct seeds (per set) and
prints each metric's median, quartiles and spread against the bound in
``BENCHMARK.json``; with ``--sets 2`` it also compares the two sets'
medians.  ``--update-reference`` regenerates the correctness reference from
the current tree (review the diff: a changed reference means changed
results).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Iterations an end-to-end run makes even when they overrun ``--seconds``.
MIN_ITERATIONS = 2
#: Pause between two probe units while a timed command runs (~2 % duty).
PROBE_PAUSE_S = 0.02
#: Median probe unit time on the reference host (see BASELINE.md).
#: End-to-end times are scaled by ``NOMINAL_PROBE_UNIT_S / probe unit`` so
#: host-speed drift between and within runs cancels; the unscaled values
#: are printed on the host line.
NOMINAL_PROBE_UNIT_S = 0.00045
#: Fresh-interpreter ``import repro.cli`` runs per traced run.
IMPORT_SAMPLES = 3
#: A command still running after this long is killed (the run then fails).
COMMAND_TIMEOUT_S = 150.0


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    returncode: int
    #: Median probe unit time while the command ran.
    probe_s: float

    @property
    def host_factor(self) -> float:
        """Multiplier taking this command's times to the nominal host speed."""
        return NOMINAL_PROBE_UNIT_S / self.probe_s


def probe_unit() -> float:
    """Seconds for one fixed, interpreter-bound unit of work (~0.5 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


class HostProbe:
    """Times probe units on a thread while a command runs.

    Host contention on the reference box changes command times by ±20 %
    within seconds, and no steal time is visible to the guest.  A probe
    measured over the same interval as the command tracks that drift;
    calibration loops run before or after it do not.
    """

    def __init__(self) -> None:
        self.units: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PAUSE_S):
            self.units.append(probe_unit())

    def __enter__(self) -> HostProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def median(self) -> float:
        return median(self.units) if self.units else probe_unit()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # The benchmark owns every store the program touches.
    env.pop("REPRO_STORE", None)
    env.pop("REPRO_LOG_LEVEL", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_command(argv: list[str], cwd: Path) -> Measured:
    """Run one command to completion; wall, CPU and peak RSS include its workers.

    ``wait4`` reports the child's CPU time plus that of every descendant it
    reaped (the campaign joins its pool workers), and the largest resident
    set among them.
    """
    with open(cwd / "commands.log", "ab") as log, HostProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=log, stderr=log, env=child_env())
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_kb=usage.ru_maxrss,
        returncode=proc.returncode,
        probe_s=probe.median(),
    )


def repro_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


# --------------------------------------------------------------------------- #
# Host description and calibration
# --------------------------------------------------------------------------- #


def calibrate() -> float:
    """Seconds the fixed calibration loop (``calib.py``) takes here."""
    done = subprocess.run(
        [sys.executable, str(HERE / "calib.py")],
        capture_output=True, text=True, check=True, timeout=COMMAND_TIMEOUT_S,
    )
    return float(done.stdout)


def host_info() -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


# --------------------------------------------------------------------------- #
# One workload run
# --------------------------------------------------------------------------- #


class Bench:
    """Scratch space and inputs of one workload run inside the checkout."""

    def __init__(self, workload: wl.Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        WORK_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
        self.template = self.dir / "template"
        self.template.mkdir()
        self.dirs = 0
        self.campaigns = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    def prepare(self) -> None:
        """Write the preset and the store the timed campaign starts from."""
        w = self.workload
        wl.write_preset(self.template / "preset.yaml", w.preset(self.seed))
        store = self.template / w.store_name
        if w.preseed_buffers:
            wl.write_preset(
                self.template / "preseed.yaml", w.preset(self.seed, w.preseed_buffers)
            )
            done = run_command(repro_cli("campaign", "--preset", "preseed.yaml", "-q"), self.template)
            if done.returncode != 0:
                raise RuntimeError(f"pre-seeding the store failed; see {self.template}/commands.log")
        elif w.backend == "jsonl":
            store.touch()  # ``status`` refuses a missing store
        else:
            raise ValueError("a SQLite workload starts from a pre-seeded store")

    def fresh(self) -> Path:
        """A new directory holding the preset and a copy of the start store."""
        self.dirs += 1
        rep = self.dir / f"rep{self.dirs}"
        rep.mkdir()
        for path in self.template.iterdir():
            if path.is_file() and path.name != "commands.log":
                shutil.copy2(path, rep / path.name)
        return rep

    def check(self, rep: Path) -> tuple[int, list[tuple[str, str]]]:
        """(points in the store, problems) for the campaign that ran in ``rep``."""
        records = wl.read_store(rep / self.workload.store_name)
        expected = self.workload.points(self.seed)
        done = sum(label in records for label in expected)
        problems = wl.check_outputs(self.workload, self.seed, records, REFERENCE[self.workload.name])
        return done, problems

    def campaign(self, rep: Path) -> Measured:
        self.campaigns += 1
        return run_command(repro_cli("campaign", "--preset", "preset.yaml", "-q"), rep)

    def status(self, rep: Path) -> Measured:
        measured = run_command(repro_cli("status", "--preset", "preset.yaml"), rep)
        if measured.returncode not in (0, 1):  # 1 = grid not complete yet
            raise RuntimeError(f"status failed; see {rep}/commands.log")
        return measured


REFERENCE: dict[str, dict] = {}


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def _room_for_another(
    started: float, seconds: float, iterations: list[float], minimum: int
) -> bool:
    if len(iterations) < minimum:
        return True
    return time.monotonic() - started + median(iterations) <= seconds


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, int, list, dict]:
    """Alternate (setup, campaign) for about ``seconds``.

    Each command's times are scaled to the nominal host by the probe that
    ran alongside it; metrics are medians over the iterations, and ``raw``
    holds the unscaled medians.
    """
    setup, walls, cpus, rss, rates = [], [], [], [], []
    raw_walls, raw_cpus, raw_setup = [], [], []
    attempted, problems = 0, []
    iterations: list[float] = []
    started = time.monotonic()
    while _room_for_another(started, seconds, iterations, MIN_ITERATIONS):
        begin = time.monotonic()
        rep = bench.fresh()
        status = bench.status(rep)
        setup.append(status.wall_s * status.host_factor)
        raw_setup.append(status.wall_s)
        measured = bench.campaign(rep)
        done, found = bench.check(rep)
        if measured.returncode != 0:
            found = found or [("campaign", f"exit code {measured.returncode}")]
        attempted += len(bench.workload.points(bench.seed))
        problems.extend(found)
        walls.append(measured.wall_s * measured.host_factor)
        cpus.append(measured.cpu_s * measured.host_factor)
        rates.append(done / walls[-1])
        raw_walls.append(measured.wall_s)
        raw_cpus.append(measured.cpu_s)
        rss.append(measured.max_rss_kb / 1024.0)
        iterations.append(time.monotonic() - begin)
    metrics = {
        "points_per_s": (median(rates), "1/s"),
        "wall_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "s"),
        "setup_s": (median(setup), "s"),
        "max_rss_mb": (median(rss), "MB"),
        "ok_share": ((attempted - len(problems)) / attempted, "share"),
    }
    raw = {"wall_s": median(raw_walls), "cpu_s": median(raw_cpus), "setup_s": median(raw_setup)}
    return metrics, attempted, problems, raw


def _share(samples: dict[str, int], layer: str, groups: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Per-module shares of one layer's stack samples (0 when it never ran)."""
    total = sum(n for key, n in samples.items() if key.split("@")[-1].startswith(layer + "."))
    out = {}
    for name, keys in groups.items():
        hits = sum(n for key, n in samples.items() if any(key.startswith(k) for k in keys))
        out[f"{layer}.share.{name}"] = hits / total if total else 0.0
    return out


CORE_MODULES = ("simulator", "history", "queues", "bbr1", "bbr2", "cubic", "reno", "smooth", "flow")
EMULATION_GROUPS = {
    "events": ("emulation.events",),
    "nodes": ("emulation.nodes", "emulation.packet"),
    "link": ("emulation.link",),
    "queues": ("emulation.queues",),
    "cca": ("emulation.cca.",),
    "runner": ("emulation.runner",),
}
ANALYSIS_GROUPS = {
    "adapter": ("analysis.adapter",),
    "reduced": ("analysis.reduced",),
    "scipy": ("scipy@analysis.",),
}


def layer_metrics(stats: dict, traced_wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced replay."""
    inc, counts, puts = stats["inclusive_s"], stats["counts"], stats["puts"]
    get = lambda d, k: d.get(k, 0)  # noqa: E731
    pooled_fluid = get(puts, "fluid_points") > 0
    integrate_s = get(puts, "fluid_wall_s") if pooled_fluid else get(inc, "core")
    steps = get(puts, "fluid_steps") if pooled_fluid else get(counts, "core.steps")
    flow_steps = get(puts, "fluid_flow_steps") if pooled_fluid else get(counts, "core.flow_steps")
    if get(counts, "core.lockstep_batches"):
        width = counts["core.lockstep_scenarios"] / counts["core.lockstep_batches"]
    else:
        width = 1.0 if pooled_fluid or get(counts, "core.integrations") else 0.0
    pool_wall = get(inc, "executor")
    workers = get(counts, "executor.workers") or 1
    events = get(counts, "emulation.events_popped")
    rhs_evals = get(counts, "analysis.rhs_evals")
    gets = get(counts, "store.gets")
    points = get(counts, "store.puts") + get(counts, "store.hits")
    samples = stats["samples"]
    out = {
        "sweep.grid_s": stats["grid_s"],
        "store.open_s": get(inc, "store.open"),
        "core.integrate_s": integrate_s,
        "core.steps": steps,
        "core.flow_steps": flow_steps,
        "core.ns_per_flow_step": integrate_s * 1e9 / flow_steps if flow_steps else 0.0,
        "core.lockstep_width": width,
        **_share(samples, "core", {m: (f"core.{m}",) for m in CORE_MODULES}),
        "executor.tasks": get(counts, "executor.tasks"),
        "executor.retries": get(counts, "executor.retries"),
        "executor.pool_wall_s": pool_wall,
        "executor.worker_cpu_s": get(puts, "cpu_s"),
        "executor.pool_efficiency": puts["cpu_s"] / (pool_wall * workers) if pool_wall else 0.0,
        "emulation.build_s": get(inc, "emulation.build"),
        "emulation.run_s": get(inc, "emulation.run"),
        "emulation.events_popped": events,
        "emulation.pkts_sent": get(counts, "emulation.pkts_sent"),
        "emulation.pkts_delivered": get(counts, "emulation.pkts_delivered"),
        "emulation.heap_peak": get(counts, "emulation.heap_peak"),
        "emulation.ns_per_event": get(inc, "emulation.run") * 1e9 / events if events else 0.0,
        **_share(samples, "emulation", EMULATION_GROUPS),
        "analysis.analyze_s": get(inc, "analysis"),
        "analysis.points_numerical": get(counts, "analysis.points_numerical"),
        "analysis.rhs_evals": rhs_evals,
        "analysis.us_per_rhs_eval": get(inc, "analysis.rhs") * 1e6 / rhs_evals if rhs_evals else 0.0,
        **_share(samples, "analysis", ANALYSIS_GROUPS),
        "store.gets": gets,
        "store.hits": get(counts, "store.hits"),
        "store.hit_ratio": get(counts, "store.hits") / gets if gets else 0.0,
        "store.get_s": get(inc, "store.get"),
        "store.puts": get(counts, "store.puts"),
        "store.put_s": get(inc, "store.put"),
        "metrics.aggregate_s": get(inc, "metrics.aggregate"),
        "sweep.overhead_ms_per_point": (
            (stats["campaign_s"] - stats["campaign_attributed_s"]) * 1e3 / points if points else 0.0
        ),
        "trace.attributed_share": (stats["launch_to_imported_s"] + stats["attributed_s"]) / traced_wall_s,
    }
    return out


def per_layer(bench: Bench, seconds: float) -> tuple[dict, int, list, dict]:
    """Alternate (untraced campaign, traced replay) for about ``seconds``."""
    imports = [
        run_command([sys.executable, "-c", "import repro.cli"], bench.dir).wall_s
        for _ in range(IMPORT_SAMPLES)
    ]
    runs: list[dict[str, float]] = []
    attempted, problems = 0, []
    iterations: list[float] = []
    started = time.monotonic()
    while _room_for_another(started, seconds, iterations, 1):
        begin = time.monotonic()
        plain = bench.fresh()
        untraced = bench.campaign(plain)
        traced_rep = bench.fresh()
        out = traced_rep / "replay.json"
        traced = run_command(
            [sys.executable, str(HERE / "replay.py"), "preset.yaml", str(out), repr(time.time())],
            traced_rep,
        )
        for rep, measured in ((plain, untraced), (traced_rep, traced)):
            _, found = bench.check(rep)
            if measured.returncode != 0:
                found = found or [("campaign", f"exit code {measured.returncode}")]
            attempted += len(bench.workload.points(bench.seed))
            problems.extend(found)
        if traced.returncode != 0 or not out.exists():
            break
        metrics = layer_metrics(json.loads(out.read_text()), traced.wall_s)
        metrics["trace.overhead"] = traced.wall_s / untraced.wall_s - 1.0
        runs.append(metrics)
        iterations.append(time.monotonic() - begin)
    if not runs:
        return {}, attempted, problems, {}
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    # Counts repeat exactly run to run; times are medians.
    merged = {
        name: runs[0][name] if units[name] == "count" else median([r[name] for r in runs])
        for name in runs[0]
    }
    merged["cli.import_s"] = median(imports)
    metrics = {name: (merged[name], units[name]) for name in units if name in merged}
    return metrics, attempted, problems, {}


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One measuring run; returns the result object (host line printed first)."""
    REFERENCE.setdefault(workload.name, wl.load_reference(workload))
    bench = Bench(workload, seed)
    try:
        calib_s = calibrate()
        bench.prepare()
        measured = per_layer(bench, seconds) if trace else end_to_end(bench, seconds)
    finally:
        bench.close()
    metrics, attempted, problems, raw = measured
    raw["host.calib_s"] = calib_s
    if trace and metrics:
        metrics["host.calib_s"] = (calib_s, "s")
    for label, reason in problems:
        print(f"incorrect point {label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "host": host_info(),
        "campaigns": bench.campaigns,
        "unscaled": raw,
        "failed_share": len(problems) / attempted if attempted else 1.0,
        "failed_points": sorted({label for label, _ in problems}),
    }))
    return {
        "correct": not problems and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# --------------------------------------------------------------------------- #
# Reference regeneration and the steadiness mode
# --------------------------------------------------------------------------- #


def update_reference(workload: wl.Workload) -> None:
    seeds = wl.REFERENCE_SEEDS if workload.seeds_per_point else (0,)
    points: dict[str, dict] = {}
    for seed in seeds:
        bench = Bench(workload, seed)
        try:
            bench.prepare()
            rep = bench.fresh()
            if bench.campaign(rep).returncode != 0:
                raise RuntimeError(f"reference campaign failed; see {rep}/commands.log")
            records = wl.read_store(rep / workload.store_name)
        finally:
            bench.close()
        for label in workload.points(seed):
            points[label] = wl.reference_entry(records[label])
    path = wl.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    doc = {
        "workload": workload.name,
        "tolerance": {"rtol": 1e-6, "atol": 1e-9},
        "points": dict(sorted(points.items())),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(points)} points)")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(names: list[str], runs: int, sets: int, seconds: int, trace: int, seed_base: int) -> None:
    spec = benchmark_spec()
    metrics_spec = {m["name"]: m for m in spec["end_to_end" if not trace else "per_layer"]}
    for name in names:
        medians: list[dict[str, float]] = []
        for s in range(sets):
            values: dict[str, list[float]] = {}
            for k in range(runs):
                seed = seed_base + s * runs + k
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, check=True, timeout=600,
                )
                lines = done.stdout.strip().splitlines()
                result, info = json.loads(lines[-1]), json.loads(lines[-2])
                print(f"  seed {seed}: {info['campaigns']} campaigns, unscaled "
                      + ", ".join(f"{k} {v:.4g}" for k, v in info["unscaled"].items()), flush=True)
                if not result["correct"]:
                    print(f"{name} seed {seed}: INCORRECT {done.stderr.strip()}")
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
            print(f"\n{name} set {s + 1}: {runs} runs, seeds {seed_base + s * runs}..{seed_base + s * runs + runs - 1}")
            print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            medians.append({})
            for metric, vals in values.items():
                q1, med, q3 = quartiles(vals)
                medians[-1][metric] = med
                spread = (q3 - q1) / abs(med) if med else 0.0
                bound = metrics_spec.get(metric, {}).get("bound")
                flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
                print(f"{metric:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                      f"{'' if bound is None else bound:>6} {flag}")
        if sets == 2:
            print(f"\n{name}: second-set median vs first (worse share, bound)")
            for metric, first in medians[0].items():
                spec_m = metrics_spec.get(metric, {})
                if "bound" not in spec_m or not first:
                    continue
                second = medians[1][metric]
                worse = (second - first) / abs(first)
                if spec_m["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= spec_m["bound"] else "REGRESSED"
                print(f"  {metric:30} {first:12.6g} -> {second:12.6g}  {worse:+.3f} / {spec_m['bound']}  {flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=None, metavar="K")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names = args.workload or sorted(wl.WORKLOADS)
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.update_reference:
        for name in names:
            update_reference(wl.WORKLOADS[name])
        return 0
    if args.steady is not None:
        steady(names, args.steady, args.sets, int(seconds), args.trace, args.seed)
        return 0
    if len(names) != 1:
        parser.error("a measuring run takes exactly one --workload")
    result = measure(wl.WORKLOADS[names[0]], args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
