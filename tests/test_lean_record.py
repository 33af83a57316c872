"""A campaign's lean fluid record reads exactly what the full record reads.

:func:`~repro.experiments.sweep.compute_chunk` integrates with
``series=METRIC_SERIES``: the traces keep only the per-flow series that
:func:`~repro.metrics.aggregate_metrics` reads, plus the link series and
the flow start/end times.  On three scenario sets — the paper grid, a churn
grid and an attenuated 3-hop parking lot — every recorded series must be
bit-identical to the default full record, the metrics must agree, and the
lean record must hold only those series' bytes.
"""

from __future__ import annotations

import pytest

from repro.core import simulate_many
from repro.experiments import scenarios, sweep
from repro.experiments.grid import GridSpec
from repro.metrics import METRIC_SERIES, aggregate_metrics

DURATION_S = 0.5

PAPER_GRID = GridSpec(
    mixes=tuple(scenarios.CCA_MIXES),
    buffers_bdp=(1.0, 4.0),
    disciplines=("droptail", "red"),
)

LINK_SERIES = ("queue", "loss_prob", "arrival_rate", "departure_rate")


def _paper_grid():
    return [point.config().with_duration(DURATION_S) for point in PAPER_GRID.points()]


def _churn_grid():
    # Short Pareto flows, so flows arrive, complete and depart within the run.
    return [
        scenarios.churn_scenario(
            mix,
            num_flows=12,
            arrivals=arrivals,
            load=0.6,
            size_dist="pareto",
            mean_size_packets=200.0,
            discipline=discipline,
            duration_s=DURATION_S,
        )
        for mix in ("BBRv1/RENO", "BBRv2/CUBIC")
        for arrivals in ("poisson", "onoff")
        for discipline in ("droptail", "red")
    ]


def _attenuated_lot():
    # Hop 1 at half the capacity of hops 2-3 with small RED buffers: heavy
    # upstream loss, so the downstream arrivals are attenuated.
    return [
        scenarios.parking_lot_scenario(
            "BBRv1/CUBIC",
            hops=3,
            cross_flows=1,
            capacity_mbps=(50.0, 100.0, 100.0),
            buffer_bdp=0.5,
            discipline="red",
            duration_s=DURATION_S,
        )
    ]


SETS = {"paper-grid": _paper_grid, "churn-grid": _churn_grid, "attenuated-lot": _attenuated_lot}


@pytest.fixture(scope="module", params=list(SETS))
def records(request):
    """``(name, full traces, lean traces)`` of one scenario set."""
    configs = SETS[request.param]()
    return request.param, simulate_many(configs), simulate_many(configs, series=METRIC_SERIES)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_recorded_series_are_bit_identical(records):
    _, full, lean = records
    for full_trace, lean_trace in zip(full, lean, strict=True):
        assert _same_bits(full_trace.time, lean_trace.time)
        for f, l in zip(full_trace.flows, lean_trace.flows, strict=True):
            for name in METRIC_SERIES:
                assert _same_bits(getattr(f, name), getattr(l, name)), name
            assert (f.start_time_s, f.end_time_s) == (l.start_time_s, l.end_time_s)
            assert l.rate is l.cwnd is l.inflight is None
            assert l.extras == {}
        for f, l in zip(full_trace.links, lean_trace.links, strict=True):
            for name in LINK_SERIES:
                assert _same_bits(getattr(f, name), getattr(l, name)), name


def test_metrics_agree(records):
    _, full, lean = records
    for full_trace, lean_trace in zip(full, lean, strict=True):
        assert aggregate_metrics(lean_trace) == aggregate_metrics(full_trace)


def test_lean_record_holds_only_the_metric_series(records):
    name, full, lean = records
    for trace in lean:
        rows = 1 + len(METRIC_SERIES) * trace.num_flows + len(LINK_SERIES) * len(trace.links)
        assert trace.nbytes == trace.time.nbytes * rows
    ratio = sum(t.nbytes for t in lean) / sum(t.nbytes for t in full)
    assert ratio < 0.5
    if name == "paper-grid":
        # The campaign grid records under a quarter of the full bytes per
        # point.  Points of few traced fields (RENO/CUBIC mixes, or the
        # lot's three link blocks) keep up to a third, so the other sets
        # are held to the exact byte count above.
        assert ratio <= 0.25


def test_default_records_every_series():
    [config] = _attenuated_lot()
    [trace] = simulate_many([config.with_duration(0.05)])
    for flow in trace.flows:
        assert all(
            getattr(flow, name) is not None
            for name in ("rate", "delivery_rate", "cwnd", "inflight", "rtt")
        )
        assert flow.extras["cwnd"] is flow.cwnd


def test_partial_selection_and_single_config_shortcut():
    config = _paper_grid()[0].with_duration(0.05)  # BBRv1: traces x_max
    [full] = simulate_many([config])
    [part] = simulate_many([config], series=("x_max", "inflight"))
    for f, p in zip(full.flows, part.flows, strict=True):
        assert set(p.extras) == {"x_max"}
        assert _same_bits(f.extras["x_max"], p.extras["x_max"])
        assert _same_bits(f.inflight, p.inflight)
        assert p.rate is p.cwnd is p.rtt is None
        assert _same_bits(f.delivery_rate, p.delivery_rate)


def test_unknown_series_is_rejected():
    with pytest.raises(ValueError, match="unknown trace series: sending"):
        simulate_many(_paper_grid()[:2], series=("sending",))


def test_campaign_chunks_record_the_metric_series(monkeypatch):
    seen = []
    real = sweep.simulate_many

    def spy(configs, series=None):
        seen.append(series)
        return real(configs, series=series)

    monkeypatch.setattr(sweep, "simulate_many", spy)
    grid = GridSpec(mixes=["BBRv1"], buffers_bdp=[1.0, 4.0], duration_s=0.1, dt=1e-3)
    assert sweep.run_campaign(grid, store=False).ok
    assert seen == [METRIC_SERIES]
