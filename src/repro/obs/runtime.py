"""Per-point runtime capture: the ``runtime`` block stored with results.

Every store row gains a compact, *non-keyed* execution-metadata block::

    {"wall_s": 1.73, "cpu_s": 1.69, "max_rss_kb": 84512,
     "counters": {"steps": 50001, "flows": 4, ...}}

Non-keyed means it never participates in ``scenario_key`` — two runs of
the same scenario produce bit-identical keys and metrics regardless of
how long they took (no ``SCHEMA_VERSION`` bump, old rows load
unchanged).

Caveats stated once here rather than per row: ``max_rss_kb`` is the
*process* high-water mark at capture end (``ru_maxrss``), so per-point
attribution is approximate inside a long-lived worker; batched lockstep
fluid chunks divide one measured wall/CPU time evenly across the chunk
and mark the block with ``"shared": N``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import Any

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


def _max_rss_kb() -> int | None:
    if resource is None:
        return None
    # Linux reports ru_maxrss in KiB (macOS in bytes; this repo targets Linux).
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class RuntimeCapture:
    """Context manager measuring wall seconds, CPU seconds, and peak RSS."""

    __slots__ = ("wall_s", "cpu_s", "max_rss_kb", "_wall0", "_cpu0")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.max_rss_kb: int | None = None
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> RuntimeCapture:
        self._wall0 = time.monotonic()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.wall_s = time.monotonic() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        self.max_rss_kb = _max_rss_kb()
        return False

    def block(
        self,
        counters: Mapping[str, Any] | None = None,
        shared: int = 1,
    ) -> dict[str, Any]:
        """The ``runtime`` dict stored with a result row.

        ``shared=N`` amortizes one measurement over N lockstep-batched
        points (wall/CPU divided evenly, block marked ``"shared": N``).
        """
        divisor = max(shared, 1)
        block: dict[str, Any] = {
            "wall_s": round(self.wall_s / divisor, 6),
            "cpu_s": round(self.cpu_s / divisor, 6),
        }
        if self.max_rss_kb is not None:
            block["max_rss_kb"] = self.max_rss_kb
        if divisor > 1:
            block["shared"] = divisor
        if counters:
            block["counters"] = dict(counters)
        return block
