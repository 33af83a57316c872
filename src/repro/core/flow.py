"""Base classes shared by all CCA fluid models.

Every congestion-control algorithm is modelled as a :class:`FluidCCA`
subclass.  The simulator steps all flows of one model together: a group's
state is one :class:`FlowStateBatch` block, and once per integration step
the model's :meth:`~FluidCCA.step_all` receives a :class:`FlowInputsBatch`
of per-flow arrays computed by the simulator: the current and delayed path
latency, the delayed path loss probability, the delivery rate of Eq. (17)
and the flow's own delayed sending rate.  From these it advances the CCA's
differential equations and mode transitions and returns the new sending
rates and state block.  :class:`FlowState` is the initial state of one
flow, which :meth:`~FluidCCA.make_batch` packs into the block.

The common bookkeeping shared by all models — the inflight volume of
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
class FlowInputsBatch:
    """Per-step inputs handed by the simulator to a group's ``step_all``.

    Every array has one entry per flow of the batch, in batch order.  Flows
    that have not started or have departed are stepped too; the simulator
    masks their new state out afterwards.

    Attributes:
        dt: integration step in seconds.
        tau: current round-trip latency of each flow's path (Eq. 3).
        tau_delayed: path latency one propagation RTT ago (used by the
            RTprop estimator, Eq. 9).
        path_loss: loss probability of the path as observed by the sender
            (Eq. 7, read back one backward delay).
        delivery_rate: delivery rate of the flow (Eq. 17).
        rate_delayed: the flow's own sending rate one propagation RTT ago
            (the ``x_i(t - d^p_i)`` appearing in Eq. 39 and Eq. 40).
        literal_xmax: see :class:`repro.config.FluidParams.literal_xmax`.
    """

    dt: float
    tau: np.ndarray
    tau_delayed: np.ndarray
    path_loss: np.ndarray
    delivery_rate: np.ndarray
    rate_delayed: np.ndarray
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
    """Initial state of one flow; ``make_batch`` packs it into the group's block.

    Attributes:
        rate: sending rate ``x_i`` in packets/second.
        inflight: inflight volume ``v_i`` in packets (Eq. 19).
        extra: model-specific state, one value per declared field
            (:attr:`FluidCCA.traced` and :attr:`FluidCCA.untraced`).
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
    def batch_key(self) -> Hashable:
        """Grouping key of the flow groups.

        Flows whose models return the same key are stepped together
        through :meth:`step_all`.  The key must therefore capture every
        model parameter that influences :meth:`step_all`.
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
        """Advance every flow of the batch by one integration step.

        Returns the new rate and the new state block (rows in
        :class:`FlowStateBatch` order); ``batch`` is left unchanged.
        """

    @staticmethod
    def update_inflight_all(
        inflight: np.ndarray, inputs: FlowInputsBatch, rate: np.ndarray
    ) -> np.ndarray:
        """Integrate the ``inflight`` row, ``dv/dt = x - x_dlv`` (Eq. 19).

        Returns the new row.
        """
        return np.maximum(0.0, inflight + inputs.dt * (rate - inputs.delivery_rate))
