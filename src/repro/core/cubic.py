"""TCP CUBIC fluid model (Appendix B.2, following Vardoyan et al.).

CUBIC cannot be written as a single ODE in the window size.  Instead the
model tracks two instrumental variables (Eq. 40a/40b):

* ``s_i`` — the time since the last loss event, which grows at unit rate in
  the absence of loss and is pulled back to zero when losses occur, and
* ``w_max_i`` — the window size at the moment of the last loss, which
  assimilates towards the current window under loss.

The congestion window is then given by the CUBIC window-growth function
(Eq. 41) with the standardised constants ``c = 0.4`` and ``b = 0.7``
(RFC 8312), and the sending rate again follows ``x = w / tau``.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from .flow import FlowInputsBatch, FlowState, FlowStateBatch, FluidCCA
from .network import Network

#: CUBIC growth constant ``c`` (RFC 8312 / Linux tcp_cubic).
CUBIC_C: float = 0.4
#: CUBIC multiplicative-decrease factor ``b`` (RFC 8312).
CUBIC_BETA: float = 0.7
#: Smallest congestion window maintained by the model, in packets.
MIN_WINDOW_PKTS: float = 1.0


def cubic_window(
    s: float | np.ndarray,
    w_max: float | np.ndarray,
    c: float = CUBIC_C,
    beta: float = CUBIC_BETA,
) -> float | np.ndarray:
    """CUBIC window-growth function ``w(s) = c (s - K)^3 + w_max`` (Eq. 41).

    ``K = (w_max * b / c)^(1/3)`` is the time at which the window returns to
    the pre-loss level ``w_max`` when growing from ``b * w_max``.  Works
    element-wise on arrays.
    """
    if np.count_nonzero(np.asarray(w_max) < 0):
        raise ValueError("w_max must be non-negative")
    inflection = (w_max * beta / c) ** (1.0 / 3.0)
    return c * (s - inflection) ** 3 + w_max


class CubicFluid(FluidCCA):
    """Fluid model of TCP CUBIC."""

    name = "cubic"
    traced = ("s", "w_max", "cwnd")

    def __init__(self, initial_window_pkts: float = 10.0) -> None:
        if initial_window_pkts < MIN_WINDOW_PKTS:
            raise ValueError("initial window must be at least one packet")
        self.initial_window_pkts = initial_window_pkts

    def initial_state(
        self, flow_index: int, num_flows: int, network: Network, params: Any
    ) -> FlowState:
        state = FlowState()
        state.extra["s"] = 0.0
        state.extra["w_max"] = self.initial_window_pkts
        state.extra["cwnd"] = self.initial_window_pkts
        state.rate = 0.0
        return state

    def batch_key(self) -> Hashable:
        # ``step_all`` reads no instance attributes, so all CUBIC flows batch
        # together regardless of their initial window.
        return ("cubic",)

    def step_all(
        self, batch: FlowStateBatch, inputs: FlowInputsBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        inflight_old, s, w_max, w = batch.block
        x_delayed = inputs.rate_delayed
        p = np.minimum(1.0, np.maximum(0.0, inputs.path_loss))
        loss_rate = x_delayed * p
        # Eq. (40a/40b) and Eq. (41), element-wise over every CUBIC flow.
        s_new = np.maximum(0.0, s + inputs.dt * (1.0 - s * loss_rate))
        w_max_new = np.maximum(
            MIN_WINDOW_PKTS, w_max + inputs.dt * (w - w_max) * loss_rate
        )
        w_new = np.maximum(MIN_WINDOW_PKTS, cubic_window(s_new, w_max_new))
        rate = w_new / np.maximum(inputs.tau, 1e-9)
        inflight = self.update_inflight_all(inflight_old, inputs, rate)
        return rate, np.array((inflight, s_new, w_max_new, w_new))
