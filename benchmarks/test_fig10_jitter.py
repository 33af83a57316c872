"""Figure 10: jitter vs. buffer size (known fluid-model limitation)."""

from __future__ import annotations

from conftest import run_once
from _aggregate_common import print_aggregate, run_aggregate


def test_fig10_jitter(benchmark, sweep_store):
    data = run_once(benchmark, run_aggregate, "jitter_ms", sweep_store)
    print_aggregate("Figure 10 — jitter [ms]", data)
    # The paper itself reports that the fluid model cannot predict jitter
    # (Insight 9: discrete, packet-scale phenomena are abstracted away); the
    # reproduced values are therefore only checked to be finite, small and
    # non-negative.
    for discipline, by_mix in data.items():
        for mix, line in by_mix.items():
            for _, value in line:
                assert 0.0 <= value < 10.0
