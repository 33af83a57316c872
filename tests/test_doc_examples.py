"""Every documented CLI example parses with :func:`repro.cli.build_parser`.

Examples are collected from the package's docstrings (the ``repro.cli``
module docstring holds most of them) and from the fenced code blocks of
``README.md`` and ``.claude/skills/verify/SKILL.md``.  An example is a line
that starts with ``repro-bbr`` or ``python -m repro.cli`` (optionally after
``VAR=value`` environment assignments); ``\\`` continuation lines are
joined and ``#`` comments dropped.  A documented command the parser no
longer accepts fails here instead of in a reader's shell.
"""

from __future__ import annotations

import re
import shlex
from collections.abc import Iterator
from pathlib import Path

import pytest

from repro import cli

REPO_ROOT = Path(__file__).resolve().parents[1]

_EXAMPLE = re.compile(r"(?:[A-Z_]+=\S+\s+)*(?:repro-bbr|python3? -m repro\.cli)\s")


def _examples(path: Path, fenced: bool) -> Iterator[tuple[str, str]]:
    """``(id, command line)`` of every example in ``path``.

    With ``fenced``, only lines inside Markdown code fences count.
    """
    inside = not fenced
    pending: tuple[int, str] | None = None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        text = line.strip()
        if fenced and text.startswith("```"):
            inside = not inside
            continue
        if not inside:
            continue
        if pending is not None:
            start, joined = pending[0], f"{pending[1]} {text}"
        elif _EXAMPLE.match(text):
            start, joined = number, text
        else:
            continue
        if joined.endswith("\\"):
            pending = (start, joined[:-1].rstrip())
            continue
        pending = None
        yield f"{path.relative_to(REPO_ROOT)}:{start}", joined


def _collect() -> list[tuple[str, str]]:
    found = [
        example
        for name in ("README.md", ".claude/skills/verify/SKILL.md")
        for example in _examples(REPO_ROOT / name, fenced=True)
    ]
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        found.extend(_examples(path, fenced=False))
    return found


EXAMPLES = _collect()


def _argv(command: str) -> list[str]:
    """The arguments after the program name of one example."""
    tokens = shlex.split(command, comments=True)
    while "=" in tokens[0]:
        tokens.pop(0)
    return tokens[1:] if tokens[0] == "repro-bbr" else tokens[3:]


def test_examples_are_collected():
    sources = {example_id.rsplit(":", 1)[0] for example_id, _ in EXAMPLES}
    assert {"README.md", ".claude/skills/verify/SKILL.md", "src/repro/cli.py"} <= sources
    assert len(EXAMPLES) >= 40


@pytest.mark.parametrize(
    "command", [command for _, command in EXAMPLES], ids=[i for i, _ in EXAMPLES]
)
def test_documented_example_parses(command):
    cli.build_parser().parse_args(_argv(command))
