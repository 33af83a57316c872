"""Golden predictions of the analytic substrate's numerical fallback.

``tests/golden/analytic_numerical.json`` pins the ``as_meta()`` block and
the metric row of points that :func:`repro.analysis.analyze_network` cannot
answer in closed form, so they run through ``solve_ivp`` on the reduced
model, the settle test, the ``root`` polish and the finite-difference
Jacobian:

* heterogeneous-RTT points of the ``analytic-resume`` benchmark grid
  (homogeneous BBRv1, homogeneous BBRv2 and the BBRv1/BBRv2 mix), which
  never settle and report their tail-mean operating point;
* equal-RTT points between the theorems' buffer regimes (homogeneous and
  mixed), which settle on a full queue and carry eigenvalues.

Values are compared at the benchmark reference tolerance (rtol 1e-6,
atol 1e-9), so numpy/scipy builds that round differently still pass.
Regenerate only on purpose, and review the diff::

    PYTHONPATH=src python tests/test_analytic_golden.py --update-golden
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro import analysis
from repro.experiments.grid import GridSpec

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "analytic_numerical.json"
RTOL, ATOL = 1e-6, 1e-9

#: (mix, buffer_bdp) points of the ``analytic-resume`` grid (droptail, 5 s).
GRID_CASES = [("BBRv1", 2.0), ("BBRv2", 7.0), ("BBRv1/BBRv2", 2.0)]
#: (per-flow CCAs, buffer_bdp) equal-RTT reference networks.
NETWORK_CASES = [(("bbr1", "bbr1"), 0.8), (("bbr1", "bbr2", "bbr2"), 0.3)]


def _grid_prediction(mix: str, buffer_bdp: float) -> analysis.AnalyticPoint:
    grid = GridSpec(
        mixes=[mix],
        buffers_bdp=[buffer_bdp],
        disciplines=["droptail"],
        substrate="analytic",
        duration_s=5.0,
    )
    (point,) = grid.points()
    return analysis.analyze_scenario(point.config())


def _network_prediction(ccas: tuple[str, ...], buffer_bdp: float) -> analysis.AnalyticPoint:
    net = analysis.reference_network(len(ccas), buffer_bdp=buffer_bdp)
    return analysis.analyze_network(ccas, net)


CASES = {
    **{f"grid:{mix}|{bdp:g}": (_grid_prediction, (mix, bdp)) for mix, bdp in GRID_CASES},
    **{
        f"network:{'+'.join(ccas)}|{bdp:g}": (_network_prediction, (ccas, bdp))
        for ccas, bdp in NETWORK_CASES
    },
}


def _record(name: str) -> dict:
    predict, args = CASES[name]
    prediction = predict(*args)
    return {
        "name": name,
        "meta": prediction.as_meta(),
        "metrics": {k: v for k, v in vars(prediction.metrics()).items() if math.isfinite(v)},
    }


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), (where, got)
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _golden() -> dict[str, dict]:
    return {r["name"]: r for r in json.loads(GOLDEN_PATH.read_text())}


def test_golden_holds_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_numerical_fallback_matches_golden(name):
    expected = _golden()[name]
    got = _record(name)
    assert got["meta"]["method"] == "numerical"
    _assert_close(got["meta"], expected["meta"], "meta")
    _assert_close(got["metrics"], expected["metrics"], "metrics")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update-golden"]:
        sys.exit("usage: test_analytic_golden.py --update-golden")
    records = [_record(name) for name in sorted(CASES)]
    GOLDEN_PATH.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")
