"""A batched Dormand-Prince attempt makes the same Python-level calls at any batch width.

:func:`repro.analysis.reduced.integrate_batch` is bound by Python and numpy
dispatch, so an attempt must not make one call per system, and nothing it
evaluates may look its constants up again: the adapter binds
:func:`~repro.analysis.reduced.flow_constants` once per chunk.  This test
counts calls instead of timing them: a ``sys.setprofile`` hook counts the
Python ``call`` and builtin ``c_call`` events of an integration to ``T`` and
to ``2 T``, and the difference over the attempts between them is the
per-attempt count (set-up, the initial step and the assembly of the results
cancel).  The systems of a batch are copies of one network, so they step
together and leave the batch on the same attempt.  numpy ufuncs raise no
profile event; builtin functions and methods do.
"""

from __future__ import annotations

import collections
import gc
import sys

import numpy as np

from repro import analysis
from repro.analysis import adapter, reduced
from repro.experiments import scenarios

#: Model seconds of the shorter window.
WINDOW_S = 2.0

#: Calls that look constants up; none may run inside ``integrate_batch``.
#: Python calls are told apart by code object, since a dataclass's
#: generated methods are compiled under another ``co_qualname``.
LOOKUPS = {
    reduced.SingleBottleneck.__hash__.__code__: "SingleBottleneck.__hash__",
    reduced.SingleBottleneck.__eq__.__code__: "SingleBottleneck.__eq__",
    reduced.flow_constants.__code__: "flow_constants",
    reduced._network_constants.__wrapped__.__code__: "_network_constants",
}


def _mixed_case() -> tuple[reduced.SingleBottleneck, tuple[str, ...]]:
    """A 10-flow BBRv1/BBRv2 grid point with heterogeneous RTTs (never settles)."""
    config = scenarios.aggregate_scenario("BBRv1/BBRv2", buffer_bdp=2.0, discipline="droptail")
    return analysis.from_scenario(config)


def _hook(counter: collections.Counter):
    def hook(frame, event, arg):
        if event == "call":
            counter[LOOKUPS.get(frame.f_code, frame.f_code.co_qualname)] += 1
        elif event == "c_call":
            counter[getattr(arg, "__qualname__", repr(arg))] += 1

    return hook


def _profiled(call) -> collections.Counter:
    counter: collections.Counter = collections.Counter()
    # A collection can run gc callbacks (and their own calls) at any point.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(_hook(counter))
    try:
        call()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return counter


def _events(copies: int, t_bound: float) -> collections.Counter:
    net, ccas = _mixed_case()
    constants = reduced.flow_constants((net,) * copies, (ccas,) * copies)
    n = net.num_flows
    y0 = np.tile(np.r_[np.linspace(0.5, 1.5, n) * net.capacity_pps / n, 0.0], (copies, 1))
    return _profiled(
        lambda: reduced.integrate_batch(
            reduced.mixed_reduced_rhs,
            y0,
            t_bound,
            rtol=1e-6,
            atol=[1e-6 * net.capacity_pps] * copies,
            max_step=0.05,
            args=(constants,),
        )
    )


def per_attempt_calls(copies: int) -> collections.Counter:
    """Profile events per attempt of a batch of ``copies`` systems."""
    _events(copies, 0.01)  # warm-up: imports and first-call caches
    once = _events(copies, WINDOW_S)
    twice = _events(copies, 2 * WINDOW_S)
    for counts in (once, twice):
        assert not any(name in counts for name in LOOKUPS.values()), counts
    twice.subtract(once)
    # Six stage evaluations per attempt, each one batched RHS call.
    attempts, leftover = divmod(twice["mixed_reduced_rhs"], 6)
    assert attempts >= 20 and leftover == 0
    assert twice["_batched_rhs"] == 6 * attempts
    return collections.Counter(
        {name: count / attempts for name, count in twice.items() if count}
    )


def test_attempt_calls_do_not_grow_with_width():
    two = per_attempt_calls(2)
    six = per_attempt_calls(6)
    assert six == two


def test_the_adapter_binds_constants_outside_the_integrator(monkeypatch):
    counters: list[collections.Counter] = []
    real = adapter.integrate_batch

    def profiled(*args, **kwargs):
        runs: list = []
        counters.append(_profiled(lambda: runs.extend(real(*args, **kwargs))))
        return runs

    monkeypatch.setattr(adapter, "integrate_batch", profiled)
    net, ccas = _mixed_case()
    cases = [
        (ccas, net),
        (("bbr1", "bbr1"), analysis.reference_network(2, buffer_bdp=0.8)),
        (("bbr1", "bbr2", "bbr2"), analysis.reference_network(3, buffer_bdp=0.3)),
    ]
    points = analysis.analyze_networks(cases)
    assert [point.method for point in points] == ["numerical"] * 3
    assert counters
    for counter in counters:
        assert counter["mixed_reduced_rhs"] > 0
        assert not any(name in counter for name in LOOKUPS.values()), counter
