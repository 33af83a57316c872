"""Ring-buffer histories of time-varying signals.

The BBR fluid model is a system of *delay* differential equations: the
arrival rate at a link depends on sending rates one forward propagation
delay ago (Eq. 1), the RTprop estimator compares against the latency one
path delay ago (Eq. 9), and the delivery rate uses the link state one
backward delay ago (Eq. 17).  The method of steps (Section 4.1.1) solves
such systems by keeping the recent history of every delayed signal and
reading it back at a fixed lag.

:class:`VectorHistory` stores one signal per flow (or per link) on the
integrator's uniform time grid, in a single numpy array for efficiency.

Because every delay of a scenario is a *constant*, the simulator converts
them to integer lag tables once (:meth:`VectorHistory.lag_steps`)
and then performs one batched :meth:`VectorHistory.gather` per signal per
step instead of per-component Python calls.
"""

from __future__ import annotations

import numpy as np


class VectorHistory:
    """Fixed-lag history of a vector-valued signal (one entry per flow/link).

    Stored as a ``(slots, width)`` numpy array indexed circularly in time.
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
        self._size = int(np.ceil(max_delay / dt)) + 2
        self._buffer = np.zeros((self._size, width), dtype=float)
        self._buffer[:] = np.asarray(initial, dtype=float)
        self._head = 0
        self._steps = 0
        #: Batched-gather call count (telemetry; one int add per gather).
        self.gathers = 0

    def at_delay(self, index: int, delay: float) -> float:
        """Value of component ``index`` of the signal ``delay`` seconds ago."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        lag = min(int(round(delay / self.dt)), self._steps, self._size - 1)
        return float(self._buffer[(self._head - lag) % self._size, index])

    # ------------------------------------------------------------------ #
    # Batched fixed-lag API (hot path of the simulator)
    # ------------------------------------------------------------------ #

    def lag_steps(self, delays: np.ndarray | float) -> np.ndarray:
        """Convert constant delays (seconds) into an integer lag table.

        The result can be passed to :meth:`gather` every step without
        re-doing the rounding and validation.  Delays are rounded to the
        nearest grid step, exactly as :meth:`at_delay` does.
        """
        delays = np.atleast_1d(np.asarray(delays, dtype=float))
        if np.any(delays < 0):
            raise ValueError("delays must be non-negative")
        lags = np.rint(delays / self.dt).astype(np.intp)
        if np.any(lags > self._size - 1):
            raise ValueError("delay exceeds the recorded history window")
        return lags

    def gather(self, indices: np.ndarray, lags: np.ndarray) -> np.ndarray:
        """Batched lookup: component ``indices[k]`` read ``lags[k]`` steps back.

        ``lags`` must come from :meth:`lag_steps` (pre-validated integer
        steps).  Lookups beyond the recorded history are clamped to the
        oldest sample, matching :meth:`at_delay`.
        """
        self.gathers += 1
        if self._steps < self._size - 1:
            lags = np.minimum(lags, self._steps)
        # Negative row indices wrap to the end of the buffer, which is
        # exactly the circular layout, so no modulo is needed.
        return self._buffer[self._head - lags, indices]

    def advance(self) -> np.ndarray:
        """Advance the write head one step and return the new row to fill.

        Call exactly once per step; the caller writes the current sample
        directly into the returned row view.
        """
        head = self._head + 1
        if head == self._size:
            head = 0
        self._head = head
        self._steps += 1
        return self._buffer[head]
