"""TCP Reno fluid model (Appendix B.1, following Low et al. and Misra et al.).

In congestion avoidance, Reno grows its congestion window by one segment
per acknowledged window and halves it upon loss.  The classic fluid
approximation (Eq. 39) is

    dw/dt = x(t - d) * (1 - p(t - d)) / w  -  x(t - d) * p(t - d) * w / 2

with the sending rate coupled through ``x = w / tau`` (Eq. 8).  The model
starts directly in congestion avoidance (the paper's fluid models ignore
the start-up/slow-start phase, see Insight 9) from a configurable initial
window.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from .flow import FlowInputsBatch, FlowState, FlowStateBatch, FluidCCA
from .network import Network

#: Smallest congestion window the fluid model maintains, in packets.  The
#: real protocol never shrinks below one segment either.
MIN_WINDOW_PKTS: float = 1.0


class RenoFluid(FluidCCA):
    """Fluid model of TCP Reno's congestion-avoidance dynamics."""

    name = "reno"
    traced = ("cwnd",)

    def __init__(self, initial_window_pkts: float = 10.0) -> None:
        if initial_window_pkts < MIN_WINDOW_PKTS:
            raise ValueError("initial window must be at least one packet")
        self.initial_window_pkts = initial_window_pkts

    def initial_state(
        self, flow_index: int, num_flows: int, network: Network, params: Any
    ) -> FlowState:
        state = FlowState()
        state.extra["cwnd"] = self.initial_window_pkts
        state.rate = 0.0
        return state

    def batch_key(self) -> Hashable:
        # ``step_all`` reads no instance attributes, so all Reno flows batch
        # together regardless of their initial window.
        return ("reno",)

    def step_all(
        self, batch: FlowStateBatch, inputs: FlowInputsBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        inflight_old, w = batch.block
        x_delayed = inputs.rate_delayed
        p = np.minimum(1.0, np.maximum(0.0, inputs.path_loss))
        # Eq. (39), element-wise over every Reno flow at once.
        growth = x_delayed * (1.0 - p) / np.maximum(w, MIN_WINDOW_PKTS)
        decrease = x_delayed * p * w / 2.0
        w_new = np.maximum(MIN_WINDOW_PKTS, w + inputs.dt * (growth - decrease))
        rate = w_new / np.maximum(inputs.tau, 1e-9)
        inflight = self.update_inflight_all(inflight_old, inputs, rate)
        return rate, np.array((inflight, w_new))
