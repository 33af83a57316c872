"""Run all domain checkers and apply the committed allowlist."""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .base import CheckContext, Checker
from .cachekey import CacheKeyChecker
from .determinism import DeterminismChecker
from .findings import Allowlist, Finding
from .obscheck import ObsLabelChecker
from .rng import RngStreamChecker
from .unitcheck import UnitsChecker

#: Committed allowlist of deliberate exceptions (next to this module).
ALLOWLIST_FILE = Path(__file__).with_name("allowlist.txt")


def default_checkers() -> list[Checker]:
    """Fresh instances of every shipped checker (order = report order)."""
    return [
        DeterminismChecker(),
        RngStreamChecker(),
        ObsLabelChecker(),
        CacheKeyChecker(),  # type: ignore[list-item]
        UnitsChecker(),
    ]


def run_check(
    root: Path | str,
    checkers: Sequence[Checker] | None = None,
    allowlist: Allowlist | None = None,
) -> tuple[list[Finding], list[str]]:
    """Run the checkers over a repo and return (findings, warnings).

    ``allowlist`` defaults to the committed ``allowlist.txt``; suppressed
    findings are dropped, and stale (unused) allowlist entries come back as
    warnings so the committed excuses cannot rot silently.
    """
    context = CheckContext(Path(root))
    if allowlist is None:
        allowlist = Allowlist.load(ALLOWLIST_FILE)
    findings: list[Finding] = []
    for checker in checkers if checkers is not None else default_checkers():
        findings.extend(checker.run(context))
    findings = [f for f in findings if not allowlist.suppresses(f)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    warnings = [
        f"unused allowlist entry ({allowlist.path}:{entry.lineno}): "
        f"{entry.rule} {entry.path} {entry.needle!r} — {entry.justification}"
        for entry in allowlist.unused_entries()
    ]
    return findings, warnings
