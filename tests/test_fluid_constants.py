"""The fluid step's constant operands are bound, read-only 0-d arrays.

The lockstep step is bound by numpy dispatch, and under numpy 2 a ufunc
call with a Python-float operand costs more than one with a 0-d float64
array of the same value (identical results).  The step therefore binds
every constant operand once with :func:`repro.core.smooth.constant`.
``tests/test_fluid_step_calls.py`` counts Python-level calls and cannot
see ufuncs, so a float literal creeping back into the hot path would go
unnoticed without the source scan below.  The bound constants are shared
by every caller, so they must also refuse to be written.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import numpy as np
import pytest

from repro.config import FluidParams, dumbbell_scenario
from repro.core import bbr1, bbr2, cubic, flow, queues, reno, simulator, smooth
from repro.core.reno import RenoFluid

#: The functions every fluid step runs (``cubic._window`` is Eq. 41).
HOT_PATH = {
    "reno.step_all": reno.RenoFluid.step_all,
    "cubic.step_all": cubic.CubicFluid.step_all,
    "cubic._window": cubic._window,
    "bbr1.step_all": bbr1.Bbr1Fluid.step_all,
    "bbr2.step_all": bbr2.Bbr2Fluid.step_all,
    "queues.droptail_loss_vec": queues.droptail_loss_vec,
    "queues.red_loss_vec": queues.red_loss_vec,
    "queues.step_queue_vec": queues.step_queue_vec,
    "smooth.scaled_sigmoid": smooth.scaled_sigmoid,
    "flow.update_inflight_all": flow.FluidCCA.update_inflight_all,
}

MODULES = (smooth, bbr1, bbr2, cubic, flow, queues, reno, simulator)


def _function_node(func) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    node = tree.body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


def _step_loop() -> ast.For:
    """The ``for step in range(...)`` loop of ``FluidSimulator._run``."""
    loops = [
        node
        for node in ast.walk(_function_node(simulator.FluidSimulator._run))
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and node.target.id == "step"
    ]
    assert len(loops) == 1
    return loops[0]


def float_literals(node: ast.AST) -> list[str]:
    """``line: source`` of every float literal in ``node``'s statements."""
    body = node.body if isinstance(node, (ast.FunctionDef, ast.For)) else [node]
    found = []
    for statement in body:
        for child in ast.walk(statement):
            if isinstance(child, ast.Constant) and type(child.value) is float:
                found.append(f"{child.lineno}: {ast.unparse(child)}")
    return found


@pytest.mark.parametrize("name", sorted(HOT_PATH))
def test_hot_path_has_no_float_literal(name):
    assert float_literals(_function_node(HOT_PATH[name])) == []


def test_step_loop_has_no_float_literal():
    assert float_literals(_step_loop()) == []


def test_the_scan_sees_float_operands():
    # The kinds of operand the hot path used to spell as literals.
    source = textwrap.dedent(
        """
        def step(x, p):
            y = np.minimum(1.0, np.maximum(0.0, p))
            z = x / 2.0 + (-0.5)
            return np.where(x > 1e-9, y, z ** 3.0)
        """
    )
    node = ast.parse(source).body[0]
    assert len(float_literals(node)) == 6


def _bound_constants() -> dict[str, np.ndarray]:
    """Every 0-d array the step's modules and models hold, under its first name."""
    owners = [(module.__name__.rsplit(".", 1)[1], vars(module)) for module in MODULES]
    owners += [(model.name, vars(model)) for model in (bbr1.Bbr1Fluid(), bbr2.Bbr2Fluid())]
    bound: dict[str, np.ndarray] = {}
    seen: set[int] = set()
    for owner, names in owners:
        for name, value in names.items():
            if isinstance(value, np.ndarray) and value.ndim == 0 and id(value) not in seen:
                seen.add(id(value))
                bound[f"{owner}.{name}"] = value
    return bound


BOUND = _bound_constants()


@pytest.mark.parametrize("name", sorted(BOUND))
def test_bound_constant_is_a_read_only_float64(name):
    value = BOUND[name]
    assert value.dtype == np.float64 and value.ndim == 0
    before = value.item()
    with pytest.raises(ValueError, match="read-only"):
        np.add(value, value, out=value)
    with pytest.raises(ValueError, match="read-only"):
        value[()] = 0.0
    assert value.item() == before


def test_constant_holds_the_value_bit_for_bit():
    for value in (0.1, 1.0 / 3.0, 5e-324, -60.0):
        bound = smooth.constant(value)
        assert bound.tobytes() == np.float64(value).tobytes()
        assert not bound.flags.writeable


class _DtProbe(RenoFluid):
    """Reno that keeps the ``dt`` the simulator hands its group."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list = []

    def step_all(self, batch, inputs):
        self.seen.append(inputs.dt)
        return super().step_all(batch, inputs)


def test_simulator_hands_models_a_read_only_dt():
    config = dumbbell_scenario(["reno"], duration_s=0.002, fluid=FluidParams(dt=1e-3))
    probe = _DtProbe()
    simulator.FluidSimulator([config], models={0: probe}).run()
    dt = probe.seen[0]
    assert len(probe.seen) == 3 and all(seen is dt for seen in probe.seen)
    assert isinstance(dt, np.ndarray) and dt.ndim == 0 and dt.item() == 1e-3
    with pytest.raises(ValueError, match="read-only"):
        np.multiply(dt, 2.0, out=dt)
