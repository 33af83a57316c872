"""Every packet CCA has one ACK entry: ``on_ack(self, now, rtt, delivery_rate, inflight)``.

The sender binds ``cca.on_ack`` once and calls it with plain scalars for
each acknowledged packet (``tests/test_emulation_events.py`` pins that
contract with a recording CCA).  A second ACK method on a CCA would be a
path the sender never runs, so this source scan refuses it, and it refuses
the names of the retired record-based entry anywhere in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.emulation import cca as cca_package

SRC = Path(repro.__file__).resolve().parent
CCA_DIR = Path(cca_package.__file__).resolve().parent
ACK_ARGS = ["self", "now", "rtt", "delivery_rate", "inflight"]
RETIRED_NAMES = {"AckSample", "on_ack_fast"}


def _packet_cca_classes() -> dict[str, ast.ClassDef]:
    """``PacketCCA`` and its subclasses defined under ``emulation/cca/``."""
    classes = {}
    for path in sorted(CCA_DIR.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    found = {"PacketCCA": classes["PacketCCA"]}
    grew = True
    while grew:
        grew = False
        for name, node in classes.items():
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if name not in found and bases & set(found):
                found[name] = node
                grew = True
    return found


CLASSES = _packet_cca_classes()


def test_every_cca_is_scanned():
    assert {"PacketCCA", "RenoPacket", "CubicPacket", "Bbr1Packet", "Bbr2Packet"} <= set(CLASSES)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_one_scalar_ack_method(name):
    methods = [
        node
        for node in CLASSES[name].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("on_ack")
    ]
    assert [m.name for m in methods] == ["on_ack"]
    args = methods[0].args
    assert [a.arg for a in args.args] == ACK_ARGS
    assert not (args.defaults or args.vararg or args.kwonlyargs or args.kwarg)


def _identifiers(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
            if node.asname:
                names.add(node.asname)
    return names


def test_retired_ack_names_gone_from_src():
    offenders = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _identifiers(ast.parse(path.read_text())) & RETIRED_NAMES
    }
    assert offenders == set()
