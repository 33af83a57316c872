"""Finding objects and the committed allowlist.

A :class:`Finding` pins one rule violation to a ``file:line`` with a fix
hint.  The **allowlist** (``allowlist.txt`` next to this module) is the
*committed* record of deliberate exceptions — every entry carries a
one-line justification and is matched structurally (rule id + path +
needle), so it survives line-number churn.

Fingerprints (in ``--json`` output) deliberately exclude the line number,
so moving code around keeps a finding's identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class Finding:
    """One rule violation: rule id, location, message, and a fix hint."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""
    snippet: str = ""

    def fingerprint(self) -> str:
        """Stable identity: rule + path + message (no line)."""
        payload = f"{self.rule}|{self.path}|{self.message}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def render(self) -> str:
        """One-line human rendering (``path:line: RULE message [hint]``)."""
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


@dataclass(frozen=True)
class AllowlistEntry:
    """One committed exception: rule + path suffix + message/snippet needle."""

    rule: str
    path: str
    needle: str
    justification: str
    lineno: int

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        if not finding.path.endswith(self.path):
            return False
        return self.needle in finding.message or (
            bool(finding.snippet) and self.needle in finding.snippet
        )


class Allowlist:
    """Parsed ``allowlist.txt``: suppress findings, track unused entries.

    Line format (whitespace-separated, ``#`` starts the justification)::

        RULE-ID  path/suffix.py  needle with spaces  # why this is deliberate

    The needle is matched as a substring of the finding's message or source
    snippet, so entries are stable across line-number churn.  Every entry
    must carry a justification; an unused entry is reported so the file
    cannot silently rot.
    """

    def __init__(self, entries: list[AllowlistEntry], path: Path | None = None) -> None:
        self.entries = entries
        self.path = path
        self._used: set[AllowlistEntry] = set()

    @classmethod
    def load(cls, path: Path) -> Allowlist:
        entries: list[AllowlistEntry] = []
        if not path.exists():
            return cls(entries, path)
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            body, _, justification = line.partition("#")
            parts = body.split(maxsplit=2)
            if len(parts) != 3 or not justification.strip():
                raise ValueError(
                    f"{path}:{lineno}: malformed allowlist entry; expected "
                    "'RULE path needle  # justification'"
                )
            rule, entry_path, needle = parts
            entries.append(
                AllowlistEntry(
                    rule=rule,
                    path=entry_path,
                    needle=needle.strip(),
                    justification=justification.strip(),
                    lineno=lineno,
                )
            )
        return cls(entries, path)

    def suppresses(self, finding: Finding) -> bool:
        for entry in self.entries:
            if entry.matches(finding):
                self._used.add(entry)
                return True
        return False

    def unused_entries(self) -> list[AllowlistEntry]:
        """Entries that suppressed nothing in the last run (stale excuses)."""
        return [e for e in self.entries if e not in self._used]
