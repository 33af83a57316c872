"""The ring-buffer history of every delayed signal of the fluid step.

The BBR fluid model is a system of *delay* differential equations: the
arrival rate at a link depends on sending rates one forward propagation
delay ago (Eq. 1), the RTprop estimator compares against the latency one
path delay ago (Eq. 9), and the delivery rate uses the link state one
backward delay ago (Eq. 17).  The method of steps (Section 4.1.1) solves
such systems by keeping the recent history of every delayed signal and
reading it back at a fixed lag.

:class:`DelayRing` stores every such signal of a step as one row of a
single ``(slots, width)`` numpy array on the integrator's uniform time
grid.  Because every delay of a scenario is a *constant*, the simulator
turns each ``(column, delay)`` pair it reads into a flat offset once, at
set-up (:meth:`DelayRing.offsets`); a step then reads all of its delayed
values with one :meth:`DelayRing.read` (a single 1-D ``take``) and writes
its new samples with one :meth:`DelayRing.push`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class DelayRing:
    """Fixed-lag history of a vector-valued signal, one row per step.

    Stored as a ``(slots, width)`` numpy array indexed circularly in time;
    every row starts as ``initial``.  A read more steps back than have been
    pushed therefore returns ``initial``: the rows it lands on have not been
    written yet.
    """

    def __init__(
        self,
        width: int,
        dt: float,
        max_delay: float,
        initial: float | np.ndarray = 0.0,
    ) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.width = width
        self.dt = dt
        self.size = int(np.ceil(max_delay / dt)) + 2
        self._buffer = np.zeros((self.size, width), dtype=float)
        self._buffer[:] = np.asarray(initial, dtype=float)
        self._flat = self._buffer.reshape(-1)
        self._rows = list(self._buffer)
        self._head = 0
        self._base = 0

    def lag_steps(self, delays: np.ndarray | float) -> np.ndarray:
        """Convert constant delays (seconds) into whole steps, rounded to nearest."""
        delays = np.atleast_1d(np.asarray(delays, dtype=float))
        if np.any(delays < 0):
            raise ValueError("delays must be non-negative")
        lags = np.rint(delays / self.dt).astype(np.intp)
        if np.any(lags > self.size - 1):
            raise ValueError("delay exceeds the recorded history window")
        return lags

    def offsets(self, columns: np.ndarray | Sequence[int], delays: np.ndarray) -> np.ndarray:
        """Flat read offsets of column ``columns[k]`` ``delays[k]`` seconds back.

        Built once at set-up and passed to :meth:`read` every step.  A
        column outside the row is refused here: the wrapping read would
        silently return a neighbouring column instead.
        """
        columns = np.asarray(columns, dtype=np.intp)
        if np.any((columns < 0) | (columns >= self.width)):
            raise ValueError("column outside the ring row")
        return columns - self.lag_steps(delays) * self.width

    def read(self, offsets: np.ndarray) -> np.ndarray:
        """Every entry of an :meth:`offsets` table at the current step, one ``take``.

        Relative to the newest row an offset lies in ``(-size * width,
        width)``, so ``mode="wrap"`` maps the rows before the buffer start
        onto the circular layout.
        """
        return self._flat.take(offsets + self._base, mode="wrap")

    def push(self, parts: Sequence[np.ndarray]) -> None:
        """Advance one step and write the row ``parts`` concatenated.

        Call exactly once per step, after that step's :meth:`read`.
        """
        head = self._head + 1
        if head == self.size:
            head = 0
        self._head = head
        self._base = head * self.width
        np.concatenate(parts, out=self._rows[head])
