"""Tests of the ``repro-bbr check`` static-analysis suite.

Three layers:

* fixture mini-repos under ``tests/devtools_fixtures/`` — one seeded
  violation per rule id, each checker pointed at the matching root;
* synthetic cache-key regressions — an unhashed ``ScenarioConfig`` field
  must trip ``CACHE001``, a ``GridSpec`` field that never reaches the
  scenario ``CACHE002``, an unprobeable field ``CACHE003``, schema drift
  ``CACHE004``;
* the repo itself — ``repro-bbr check`` must run clean (exit 0) with no
  stale allowlist entries.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import cli
from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.devtools import Allowlist, Finding, run_check
from repro.devtools import cachekey
from repro.devtools.base import CheckContext
from repro.devtools.determinism import DeterminismChecker
from repro.devtools.rng import RngStreamChecker
from repro.devtools.unitcheck import UnitsChecker
from repro.experiments import store
from repro.experiments.grid import GridSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "devtools_fixtures"


def _rules(checker, fixture: str) -> list[str]:
    findings = checker.run(CheckContext(FIXTURES / fixture))
    return [f.rule for f in findings]


# ---------------------------------------------------------------- fixtures


def test_det001_wall_clock_fixture():
    rules = _rules(DeterminismChecker(), "det001")
    assert rules.count("DET001") == 2
    assert set(rules) == {"DET001"}


def test_det002_ambient_rng_fixture():
    rules = _rules(DeterminismChecker(), "det002")
    assert rules.count("DET002") == 2
    assert set(rules) == {"DET002"}


def test_det003_adhoc_rng_fixture():
    findings = DeterminismChecker().run(CheckContext(FIXTURES / "det003"))
    assert [f.rule for f in findings] == ["DET003"]
    # The blessed factory's own construction is not flagged.
    assert "make_generator" not in findings[0].message
    assert findings[0].snippet == "return random.Random(seed)  # DET003: bypasses derive_rng"


def test_rng001_nonliteral_label_fixture():
    assert "RNG001" in _rules(RngStreamChecker(), "rng001")


def test_rng002_prefix_collision_fixture():
    findings = RngStreamChecker().run(CheckContext(FIXTURES / "rng002"))
    rules = [f.rule for f in findings]
    assert rules.count("RNG002") == 2  # missing prefix + flow:/flow:cross: clash
    messages = " ".join(f.message for f in findings)
    assert "flow:" in messages


def test_rng003_seed_arithmetic_fixture():
    findings = RngStreamChecker().run(CheckContext(FIXTURES / "rng003"))
    assert [f.rule for f in findings] == ["RNG003"]
    assert "arithmetic" in findings[0].message


def test_unit001_missing_suffix_fixture():
    findings = UnitsChecker().run(CheckContext(FIXTURES / "unit001"))
    rules = [f.rule for f in findings]
    # The `capacity` field, the `delay` param and the bare `arrival_rate`
    # field (a 1/s quantity that must carry the _per_s suffix).
    assert rules.count("UNIT001") == 3
    names = " ".join(f.message for f in findings)
    assert "capacity" in names and "delay" in names and "'arrival_rate'" in names
    assert "buffer_bdp" not in names  # suffixed names pass
    assert "arrival_rate_per_s" not in names  # _per_s is a recognised suffix


def test_per_s_suffix_recognised():
    from repro.devtools.unitcheck import UNIT_SUFFIXES, _needs_suffix, _suffix_of

    assert _suffix_of("arrival_rate_per_s") == "_per_s"  # not the shorter "_s"
    assert UNIT_SUFFIXES["_per_s"] != UNIT_SUFFIXES["_s"]  # distinct dimensions
    assert not _needs_suffix("arrival_rate_per_s")
    assert _needs_suffix("arrival_rate")


def test_unit002_mixed_units_fixture():
    findings = UnitsChecker().run(CheckContext(FIXTURES / "unit002"))
    assert [f.rule for f in findings] == ["UNIT002", "UNIT002"]
    assert "seconds" in findings[0].message and "Mbps" in findings[0].message


# ------------------------------------------------- cache-key regressions


def _extended_base():
    return ExtendedScenarioConfig(
        bottleneck=LinkConfig(capacity_mbps=100.0, delay_s=0.010, buffer_bdp=1.0),
        flows=(FlowConfig("bbr1"), FlowConfig("reno", access_delay_s=0.007)),
        duration_s=2.0,
    )


@dataclasses.dataclass(frozen=True)
class ExtendedScenarioConfig(ScenarioConfig):
    """ScenarioConfig plus one synthetic field the key forgot to hash."""

    jitter_budget_s: float = 0.0


def _key_dropping(*dropped: str):
    def key_fn(config, substrate: str) -> str:
        payload = dataclasses.asdict(config)
        for name in dropped:
            payload.pop(name, None)
        return store.stable_hash((substrate, payload))

    return key_fn


def test_cache001_catches_unhashed_scenario_field():
    """The acceptance regression: add a ScenarioConfig field, forget to hash
    it, and the mutation probe must flag it on both substrates."""
    base = _extended_base()
    probe = cachekey.Probe(type(base), base, lambda c: c, lambda c, v: v)
    findings = cachekey.check_scenario_key_coverage(
        key_fn=_key_dropping("jitter_budget_s"), probes=[probe], allowed_unhashed={}
    )
    hits = [f for f in findings if f.rule == "CACHE001" and "jitter_budget_s" in f.message]
    assert len(hits) == len(cachekey.SUBSTRATES)  # one finding per substrate
    assert "alias onto one stored record" in hits[0].message


def test_cache001_clean_when_field_is_hashed():
    base = _extended_base()
    probe = cachekey.Probe(type(base), base, lambda c: c, lambda c, v: v)
    findings = cachekey.check_scenario_key_coverage(
        key_fn=_key_dropping(), probes=[probe], allowed_unhashed={}
    )
    assert not [f for f in findings if "jitter_budget_s" in f.message]


def test_cache001_allowlisted_exclusion_is_quiet():
    base = _extended_base()
    probe = cachekey.Probe(type(base), base, lambda c: c, lambda c, v: v)
    allowed = {
        ("ExtendedScenarioConfig", "jitter_budget_s", s): "test exclusion"
        for s in cachekey.SUBSTRATES
    }
    findings = cachekey.check_scenario_key_coverage(
        key_fn=_key_dropping("jitter_budget_s"), probes=[probe], allowed_unhashed=allowed
    )
    assert not [f for f in findings if "jitter_budget_s" in f.message]


@dataclasses.dataclass(frozen=True)
class ExtendedGridSpec(GridSpec):
    """GridSpec plus one synthetic axis that never reaches config()."""

    jitter_budget_s: float = 0.0


def test_cache002_grid_field_missing_from_config():
    findings = cachekey.check_grid_key_coverage(grid_cls=ExtendedGridSpec)
    assert [f.rule for f in findings] == ["CACHE002"]
    assert "ExtendedGridSpec.jitter_budget_s" in findings[0].message


def test_cache003_unprobeable_field():
    @dataclasses.dataclass(frozen=True)
    class Opaque:
        blob: frozenset = frozenset()

    probe = cachekey.Probe(Opaque, Opaque(), lambda c: c, lambda c, v: v)
    findings = cachekey.check_scenario_key_coverage(
        key_fn=lambda c, s: "constant", probes=[probe], allowed_unhashed={}
    )
    assert [f.rule for f in findings] == ["CACHE003"]
    assert "Opaque.blob" in findings[0].message


def test_cache004_schema_fingerprint(tmp_path):
    fp = tmp_path / "schema_fingerprint.json"
    missing = cachekey.check_schema_fingerprint(path=fp)
    assert [f.rule for f in missing] == ["CACHE004"]

    cachekey.write_schema_fingerprint(path=fp)
    assert cachekey.check_schema_fingerprint(path=fp) == []

    stale_version = cachekey.check_schema_fingerprint(
        path=fp, schema_version=store.SCHEMA_VERSION + 1
    )
    assert [f.rule for f in stale_version] == ["CACHE004"]
    assert "SCHEMA_VERSION" in stale_version[0].message

    drifted = cachekey.check_schema_fingerprint(path=fp, fingerprint="0" * 16)
    assert [f.rule for f in drifted] == ["CACHE004"]
    assert "without a SCHEMA_VERSION bump" in drifted[0].message


def test_committed_fingerprint_matches_current_schema():
    assert cachekey.check_schema_fingerprint() == []


# -------------------------------------------------------------- allowlist


def test_allowlist_requires_justification(tmp_path):
    path = tmp_path / "allowlist.txt"
    path.write_text("DET001 src/foo.py time.time\n")
    with pytest.raises(ValueError, match="justification"):
        Allowlist.load(path)


def test_allowlist_matches_and_tracks_usage(tmp_path):
    path = tmp_path / "allowlist.txt"
    path.write_text(
        "DET001 src/foo.py time.time # timing is display-only here\n"
        "DET002 src/bar.py random.random # never used\n"
    )
    allowlist = Allowlist.load(path)
    finding = Finding(
        rule="DET001",
        path="src/foo.py",
        line=7,
        message="wall-clock call time.time() inside a simulation kernel",
    )
    assert allowlist.suppresses(finding)
    assert not allowlist.suppresses(dataclasses.replace(finding, rule="DET003"))
    unused = allowlist.unused_entries()
    assert [e.rule for e in unused] == ["DET002"]


# ------------------------------------------------------------ repo + CLI


def test_repo_runs_clean():
    findings, warnings = run_check(REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert warnings == [], "stale allowlist entries:\n" + "\n".join(warnings)


def test_cli_check_exits_zero_on_repo(capsys):
    assert cli.main(["check"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_check_exits_nonzero_on_fixture(capsys):
    assert cli.main(["check", "--root", str(FIXTURES / "det001")]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_cli_check_json_output(capsys):
    assert cli.main(["check", "--root", str(FIXTURES / "det002"), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert {f["rule"] for f in payload["findings"]} == {"DET002"}
    assert all(f["fingerprint"] for f in payload["findings"])
