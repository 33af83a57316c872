"""The batched numerical fallback of the analytic substrate.

:func:`repro.analysis.reduced.integrate_batch` integrates every numerical
point of one :func:`repro.analysis.analyze_networks` call together: the
stage evaluations are shared, while each point keeps scipy's ``RK45`` step
control on its own.  These tests pin that:

* the Dormand-Prince tableau in ``reduced.py`` is scipy's ``RK45`` one
  (scipy is imported here, never by ``src/``);
* each system of a batch takes the steps ``solve_ivp`` takes alone, with
  the same bits (same numpy/BLAS build);
* batching changes no prediction and no accepted-step count;
* every point is validated before anything is integrated;
* analytic campaigns batch their chunks, split a failing chunk into
  single-point failure rows, and give the same rows with ``workers=2``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import analysis
from repro.analysis import adapter, reduced
from repro.experiments import scenarios, sweep
from repro.experiments.executor import ExecutorPolicy
from repro.experiments.grid import GridSpec
from repro.experiments.store import SweepStore

GRID = dict(disciplines=["droptail"], substrate="analytic", duration_s=5.0)


def _grid_case(mix: str, buffer_bdp: float) -> tuple[tuple[str, ...], reduced.SingleBottleneck]:
    config = scenarios.aggregate_scenario(mix, buffer_bdp=buffer_bdp, discipline="droptail")
    net, ccas = analysis.from_scenario(config)
    return ccas, net


#: Numerical points with different flow counts: heterogeneous-RTT grid
#: points (10 flows, never settle) and equal-RTT networks between the
#: theorems' regimes (2 and 3 flows, settle on a full queue).
CASES = [
    _grid_case("BBRv1", 2.0),
    _grid_case("BBRv2", 7.0),
    _grid_case("BBRv1/BBRv2", 2.0),
    (("bbr1", "bbr1"), analysis.reference_network(2, buffer_bdp=0.8)),
    (("bbr1", "bbr2", "bbr2"), analysis.reference_network(3, buffer_bdp=0.3)),
]


def _floats(value) -> list[float]:
    """Every float of an ``as_meta()`` block, in order."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _floats(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


def _assert_same_prediction(got: analysis.AnalyticPoint, want: analysis.AnalyticPoint) -> None:
    got_meta, want_meta = got.as_meta(), want.as_meta()
    assert {k: v for k, v in got_meta.items() if not _floats(v)} == {
        k: v for k, v in want_meta.items() if not _floats(v)
    }
    for g, w in zip(_floats(got_meta), _floats(want_meta), strict=True):
        assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (g, w)


def test_tableau_is_scipys_rk45():
    from scipy.integrate import RK45

    for mine, scipys in (
        (reduced.DP_A, RK45.A),
        (reduced.DP_B, RK45.B),
        (reduced.DP_C, RK45.C),
        (reduced.DP_E, RK45.E),
    ):
        assert mine.shape == scipys.shape
        assert np.array_equal(mine, scipys)


def test_every_system_takes_solve_ivps_steps():
    from scipy.integrate import solve_ivp

    cases = [CASES[0], CASES[2], _grid_case("BBRv2", 2.0)]
    y0 = np.array([np.r_[np.linspace(0.5, 1.5, 10) * net.capacity_pps / 10, 0.0] for _, net in cases])
    runs = reduced.integrate_batch(
        reduced.mixed_reduced_rhs,
        y0,
        5.0,
        rtol=1e-6,
        atol=[1e-6 * net.capacity_pps for _, net in cases],
        max_step=0.05,
        args=(reduced.flow_constants(tuple(net for _, net in cases), tuple(ccas for ccas, _ in cases)),),
    )
    for (ccas, net), start, (times, states) in zip(cases, y0, runs, strict=True):
        solution = solve_ivp(
            reduced.mixed_reduced_rhs,
            (0.0, 5.0),
            start,
            args=(reduced.flow_constants(net, ccas),),
            max_step=0.05,
            rtol=1e-6,
            atol=1e-6 * net.capacity_pps,
        )
        assert np.array_equal(times, solution.t)
        assert np.array_equal(states, solution.y.T)


def test_integrate_reduced_is_a_batch_of_one():
    from scipy.integrate import solve_ivp

    net = analysis.reference_network(4, buffer_bdp=2.0)
    x0 = np.linspace(0.5, 1.5, 4) * net.capacity_pps / 4
    times, states = reduced.integrate_reduced("bbr2", net, x0, queue0=0.0, duration_s=3.0)
    solution = solve_ivp(
        reduced.bbr2_reduced_rhs,
        (0.0, 3.0),
        np.r_[x0, 0.0],
        args=(net,),
        max_step=0.05,
        rtol=1e-8,
        atol=1e-8,
    )
    assert np.array_equal(times, solution.t)
    assert np.array_equal(states, solution.y.T)


def test_a_batch_equals_one_at_a_time(monkeypatch):
    steps: dict[tuple, list[int]] = {}
    real = adapter.integrate_batch

    def recording(fun, y0, t_bound, **kwargs):
        runs = real(fun, y0, t_bound, **kwargs)
        # A point's bound constants (capacity, buffer, delays and the
        # window numerators, which carry the versions) key its step counts.
        (constants,) = kwargs["args"]
        for k, (times, _) in enumerate(runs):
            key = (
                float(constants.capacity[k, 0]),
                float(constants.buffer[k, 0]),
                *constants.delays[k].tolist(),
                *constants.numerator[k].tolist(),
            )
            steps.setdefault(key, []).append(len(times))
        return runs

    monkeypatch.setattr(adapter, "integrate_batch", recording)
    batched = analysis.analyze_networks(CASES)
    batched_steps, steps = steps, {}
    alone = [analysis.analyze_network(ccas, net) for ccas, net in CASES]
    assert batched_steps == steps
    assert len(batched_steps) == len(CASES)
    for got, want in zip(batched, alone, strict=True):
        assert got.method == "numerical"
        _assert_same_prediction(got, want)


def test_every_point_is_validated_before_integrating(monkeypatch):
    def integrating(*args, **kwargs):
        raise AssertionError("integrated before validating")

    monkeypatch.setattr(adapter, "integrate_batch", integrating)
    configs = [
        scenarios.aggregate_scenario("BBRv1", buffer_bdp=2.0, discipline="droptail"),
        scenarios.aggregate_scenario("BBRv1/RENO", buffer_bdp=2.0, discipline="droptail"),
    ]
    with pytest.raises(analysis.UnsupportedScenarioError):
        analysis.analyze_scenarios(configs)
    with pytest.raises(ValueError, match="one per flow"):
        analysis.analyze_networks([CASES[0], (("bbr1",), CASES[3][1])])


def _rows(store: SweepStore) -> dict[str, tuple[str, dict]]:
    return {
        record["key"]: (repr(record["metrics"]), record["meta"]["analysis"])
        for record in store.records()
    }


def test_failing_chunk_leaves_single_point_failure_rows(tmp_path):
    store = SweepStore(tmp_path / "mixed.jsonl")
    policy = ExecutorPolicy(backoff_s=0.0, on_failure="skip")
    grid = GridSpec(mixes=["BBRv2", "BBRv1/BBRv2", "BBRv1/RENO"], buffers_bdp=[2.0, 7.0], **GRID)
    result = sweep.run_campaign(grid, store=store, executor=policy)
    assert sorted((f.mix, f.buffer_bdp) for f in result.failures) == [
        ("BBRv1/RENO", 2.0),
        ("BBRv1/RENO", 7.0),
    ]
    assert len(store.failures()) == 2
    assert len(result.points) == 4

    clean = SweepStore(tmp_path / "clean.jsonl")
    healthy = GridSpec(mixes=["BBRv2", "BBRv1/BBRv2"], buffers_bdp=[2.0, 7.0], **GRID)
    sweep.run_campaign(healthy, store=clean)
    assert {r["runtime"]["counters"]["lockstep"] for r in clean.records()} == {4}
    assert _rows(store) == _rows(clean)


def test_pooled_analytic_campaign_matches_serial(tmp_path):
    grid = GridSpec(mixes=["BBRv2", "BBRv1/BBRv2"], buffers_bdp=[2.0, 7.0], **GRID)
    serial = SweepStore(tmp_path / "serial.jsonl")
    sweep.run_campaign(grid, store=serial)
    pooled = SweepStore(tmp_path / "pooled.jsonl")
    sweep.run_campaign(grid, store=pooled, executor=ExecutorPolicy(workers=2))
    # Two workers split the four points into two 2-wide chunks.
    assert {r["runtime"]["shared"] for r in pooled.records()} == {2}
    assert _rows(pooled) == _rows(serial)
