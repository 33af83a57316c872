"""Base classes shared by all CCA fluid models.

Every congestion-control algorithm is modelled as a :class:`FluidCCA`
subclass.  A model owns a small mutable per-flow state object and, once per
integration step, receives a :class:`FlowInputs` snapshot computed by the
simulator: the current and delayed path latency, the delayed path loss
probability, and the delivery rate of Eq. (17).  From these it updates its
state (the CCA's differential equations and mode transitions) and reports
its sending rate.

The common bookkeeping shared by BBRv1 and BBRv2 — the inflight volume of
Eq. (19) — lives here as well.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from collections.abc import Hashable, Sequence
from typing import Any

import numpy as np

from .network import Network


@dataclass
class FlowInputs:
    """Per-step inputs handed by the simulator to each flow's CCA model.

    Attributes:
        t: current simulation time in seconds.
        dt: integration step in seconds.
        tau: current round-trip latency of the flow's path (Eq. 3).
        tau_delayed: path latency one propagation RTT ago (used by the
            RTprop estimator, Eq. 9).
        path_loss: loss probability of the path as observed by the sender
            (Eq. 7, read back one backward delay).
        delivery_rate: delivery rate of the flow (Eq. 17).
        rate_delayed: the flow's own sending rate one propagation RTT ago
            (the ``x_i(t - d^p_i)`` appearing in Eq. 39 and Eq. 40).
        propagation_rtt: the flow's propagation-only RTT ``d_i``.
        active: whether the flow has started sending.
        literal_xmax: see :class:`repro.config.FluidParams.literal_xmax`.
    """

    t: float
    dt: float
    tau: float
    tau_delayed: float
    path_loss: float
    delivery_rate: float
    rate_delayed: float
    propagation_rtt: float
    active: bool = True
    literal_xmax: bool = False


@dataclass
class FlowInputsBatch:
    """Array-valued :class:`FlowInputs` for the batched ``step_all`` path.

    Every array has one entry per flow of the batch, in batch order.  Flows
    that have not started or have departed are stepped too; the simulator
    masks their new state out afterwards.
    """

    t: float
    dt: float
    tau: np.ndarray
    tau_delayed: np.ndarray
    path_loss: np.ndarray
    delivery_rate: np.ndarray
    rate_delayed: np.ndarray
    propagation_rtt: np.ndarray
    literal_xmax: bool = False


@dataclass
class FlowStateBatch:
    """Structure-of-arrays state of one batch of flows.

    ``rate`` is an ``(n,)`` array and ``block`` one ``(rows, n)`` array
    whose rows are ``inflight``, the model's :attr:`FluidCCA.traced`
    fields, then its :attr:`FluidCCA.untraced` ones.
    """

    rate: np.ndarray
    block: np.ndarray

    @property
    def size(self) -> int:
        return int(self.rate.shape[0])


@dataclass
class FlowState:
    """Base state common to all CCA fluid models.

    Attributes:
        rate: current sending rate ``x_i`` in packets/second.
        inflight: inflight volume ``v_i`` in packets (Eq. 19).
        extra: model-specific scalar state, exposed for tracing.
    """

    rate: float = 0.0
    inflight: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)


class FluidCCA(abc.ABC):
    """Abstract base class of a congestion-control fluid model."""

    #: Canonical lower-case name (``"reno"``, ``"cubic"``, ``"bbr1"``, ``"bbr2"``).
    name: str = "abstract"
    #: Model-specific state recorded in traces, in trace order; every model
    #: has a ``"cwnd"``.
    traced: tuple[str, ...] = ()
    #: Model-specific state the model keeps but traces do not record.
    untraced: tuple[str, ...] = ()

    @abc.abstractmethod
    def initial_state(
        self, flow_index: int, num_flows: int, network: Network, params: Any
    ) -> FlowState:
        """Create the initial state of flow ``flow_index``."""

    @abc.abstractmethod
    def step(self, state: FlowState, inputs: FlowInputs) -> None:
        """Advance the flow state by one integration step and update ``state.rate``."""

    def congestion_window(self, state: FlowState) -> float:
        """Current congestion-window size in packets (for traces)."""
        return state.extra["cwnd"]

    def trace_fields(self, state: FlowState) -> dict[str, float]:
        """Model-specific fields worth recording in traces."""
        return {key: state.extra[key] for key in self.traced}

    @staticmethod
    def update_inflight(state: FlowState, inputs: FlowInputs) -> None:
        """Integrate the inflight volume ``dv/dt = x - x_dlv`` (Eq. 19)."""
        state.inflight = max(
            0.0, state.inflight + inputs.dt * (state.rate - inputs.delivery_rate)
        )

    # ------------------------------------------------------------------ #
    # Batched path (structure-of-arrays, one call per step for all
    # same-CCA flows): what the vectorized simulator runs.  The scalar
    # ``step`` above is its reference (``vectorized=False``).
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def batch_key(self) -> Hashable:
        """Grouping key for the batched path.

        Flows whose models return the same key are stepped together
        through :meth:`step_all`.  The key must therefore capture every
        model parameter that influences :meth:`step`.
        """

    def make_batch(self, states: Sequence[FlowState]) -> FlowStateBatch:
        """Pack per-flow states into one block (called once before the run)."""
        fields = (*self.traced, *self.untraced)
        for state in states:
            if state.extra.keys() != set(fields):
                raise ValueError(
                    f"{self.name} state has fields {sorted(state.extra)}, "
                    f"the model declares {sorted(fields)}"
                )
        return FlowStateBatch(
            rate=np.array([s.rate for s in states], dtype=float),
            block=np.array(
                [[s.inflight for s in states]]
                + [[s.extra[key] for s in states] for key in fields],
                dtype=float,
            ),
        )

    @abc.abstractmethod
    def step_all(
        self, batch: FlowStateBatch, inputs: FlowInputsBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance every flow of the batch by one step (vectorized ``step``).

        Returns the new rate and the new state block (rows in
        :class:`FlowStateBatch` order); ``batch`` is left unchanged.
        """

    def congestion_window_all(self, batch: FlowStateBatch) -> np.ndarray:
        """Batched :meth:`congestion_window`."""
        return batch.block[1 + self.traced.index("cwnd")]

    def trace_fields_all(self, batch: FlowStateBatch) -> dict[str, np.ndarray]:
        """Batched :meth:`trace_fields`: row views of the block."""
        return dict(zip(self.traced, batch.block[1 : 1 + len(self.traced)], strict=True))

    @staticmethod
    def update_inflight_all(
        inflight: np.ndarray, inputs: FlowInputsBatch, rate: np.ndarray
    ) -> np.ndarray:
        """Batched Eq. (19) integration of the ``inflight`` row; returns the new one."""
        return np.maximum(0.0, inflight + inputs.dt * (rate - inputs.delivery_rate))
