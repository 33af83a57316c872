"""Domain-invariant static analysis for the reproduction codebase.

Generic linters know nothing about the invariants this repo's fidelity
rests on: deterministic simulation kernels, named RNG streams derived via
:func:`repro.emulation.runner.derive_rng`, and scenario cache keys that
must cover *every* semantics-bearing knob.  The same invariant violations
were fixed by hand twice (seed aliasing in the old in-memory key, then
per-hop-discipline keying + ``SCHEMA_VERSION`` bump); this package encodes
them as machine-checked rules, surfaced as ``repro-bbr check`` and enforced
in CI.

Four checkers ship today (see each module for the rule ids):

* :mod:`.determinism` — no wall-clock or ambient-entropy calls inside the
  simulation kernels (``DET0xx``),
* :mod:`.rng` — ``derive_rng`` stream-label hygiene: literal, prefix-unique
  labels, no arithmetic on the seed (``RNG0xx``),
* :mod:`.cachekey` — cache-key completeness by *mutation probing*: every
  config field and campaign-grid field must change the stored key, and
  the hashed-field set may not drift without a ``SCHEMA_VERSION`` bump
  (``CACHE0xx``),
* :mod:`.unitcheck` — the ``_s``/``_mbps``/``_packets``/``_bdp`` suffix
  conventions of :mod:`repro.units` at config-layer signatures
  (``UNIT0xx``).

Deliberate exceptions live in the committed ``allowlist.txt`` next to this
file (one justified entry per suppression); one-off environments can layer
a findings *baseline* on top (``--baseline``/``--write-baseline``).

The shared framework (:mod:`.base`, :mod:`.findings`) is the seed for later
passes — a numba-compilability readiness checker for the ROADMAP's
compiled-kernel item is the named next lever.
"""

from __future__ import annotations

from .base import CheckContext, Checker, SourceFile
from .findings import Allowlist, Baseline, Finding
from .run import default_checkers, run_check

__all__ = [
    "Allowlist",
    "Baseline",
    "CheckContext",
    "Checker",
    "default_checkers",
    "Finding",
    "SourceFile",
    "run_check",
]
