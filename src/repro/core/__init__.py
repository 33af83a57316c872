"""Fluid models of the network and of the BBRv1/BBRv2/Reno/CUBIC CCAs."""

from .bbr1 import Bbr1Fluid, Bbr1Params
from .bbr2 import Bbr2Fluid, Bbr2Params
from .cubic import CubicFluid
from .flow import FlowInputsBatch, FlowState, FlowStateBatch, FluidCCA
from .network import Link, Network, Path
from .registry import available_ccas, create_model
from .reno import RenoFluid
from .simulator import FluidSimulator, simulate, simulate_many

__all__ = [
    "Bbr1Fluid",
    "Bbr1Params",
    "Bbr2Fluid",
    "Bbr2Params",
    "CubicFluid",
    "FlowInputsBatch",
    "FlowState",
    "FlowStateBatch",
    "FluidCCA",
    "Link",
    "Network",
    "Path",
    "RenoFluid",
    "FluidSimulator",
    "simulate",
    "simulate_many",
    "available_ccas",
    "create_model",
]
