"""The independent output checker accepts real routings and rejects broken ones."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from checker import CheckError, check_routed, routed_digest  # noqa: E402
from repro.api import CompileRequest, compile  # noqa: E402
from repro.circuit.circuit import QuantumCircuit  # noqa: E402
from repro.circuit.gate import Gate  # noqa: E402
from repro.hardware.backends import backend_by_name  # noqa: E402
from repro.qasm.writer import circuit_to_qasm  # noqa: E402


def _source() -> QuantumCircuit:
    """A circuit with a mid-circuit SWAP followed by gates on its wires."""
    gates = [Gate("h", (0,)), Gate("cx", (0, 5)), Gate("cx", (3, 7)), Gate("swap", (0, 7)),
             Gate("rz", (7,), (0.25,)), Gate("cx", (7, 2)), Gate("cx", (5, 3)), Gate("h", (0,))]
    return QuantumCircuit(8, gates, name="checker-source")


@pytest.fixture(scope="module")
def routed():
    graph = backend_by_name("ankaa3")
    source = _source()
    result = compile(CompileRequest(circuit=source, backend=graph, router="sabre", seed=3),
                     cache=False)
    assert result.swaps_added > 0
    return source, result, graph.edges()


def _replace_gates(circuit, gates):
    return QuantumCircuit(circuit.num_qubits, gates, name=circuit.name)


@pytest.mark.parametrize("router", ["qlosure", "sabre", "greedy"])
def test_accepts_real_routings(router):
    graph = backend_by_name("sherbrooke")
    source = _source()
    result = compile(CompileRequest(circuit=source, backend=graph, router=router), cache=False)
    check_routed(source, result.routed_circuit, result.initial_layout, graph.edges())


def test_rejects_uncoupled_gate(routed):
    source, result, edges = routed
    gates = list(result.routed_circuit)
    index = next(i for i, gate in enumerate(gates) if gate.name == "cx")
    a, b = gates[index].qubits
    far = next(q for q in range(80) if q not in (a, b) and {a, q} not in map(set, edges))
    gates[index] = Gate("cx", (a, far))
    with pytest.raises(CheckError, match="coupled"):
        check_routed(source, _replace_gates(result.routed_circuit, gates),
                     result.initial_layout, edges)


def test_rejects_dropped_gate(routed):
    source, result, edges = routed
    gates = [gate for gate in result.routed_circuit if gate.name != "rz"]
    with pytest.raises(CheckError, match="gate sequence"):
        check_routed(source, _replace_gates(result.routed_circuit, gates),
                     result.initial_layout, edges)


def _next_on_same_wire(gates):
    """``(i, j)``: gate ``j`` is the next gate after ``i`` on one of its wires."""
    for i, first in enumerate(gates):
        if first.name == "swap":
            continue
        for j in range(i + 1, len(gates)):
            if set(first.qubits) & set(gates[j].qubits):
                if gates[j].name != "swap" and gates[j] != first:
                    return i, j
                break
    raise AssertionError("no two distinct dependent gates")


def test_rejects_reordered_dependent_gates(routed):
    source, result, edges = routed
    gates = list(result.routed_circuit)
    i, j = _next_on_same_wire(gates)
    gates[i], gates[j] = gates[j], gates[i]
    with pytest.raises(CheckError):
        check_routed(source, _replace_gates(result.routed_circuit, gates),
                     result.initial_layout, edges)


def test_rejects_dropped_routing_swap(routed):
    source, result, edges = routed
    gates = list(result.routed_circuit)
    index = max(i for i, gate in enumerate(gates) if gate.name == "swap")
    del gates[index]
    with pytest.raises(CheckError):
        check_routed(source, _replace_gates(result.routed_circuit, gates),
                     result.initial_layout, edges)


def test_rejects_wrong_initial_layout(routed):
    source, result, edges = routed
    layout = dict(result.initial_layout)
    layout[0], layout[5] = layout[5], layout[0]
    with pytest.raises(CheckError):
        check_routed(source, result.routed_circuit, layout, edges)


def test_digest_tracks_layout_and_gates(routed):
    _, result, _ = routed
    qasm = circuit_to_qasm(result.routed_circuit)
    digest = routed_digest(qasm, result.initial_layout)
    assert digest == routed_digest(qasm, {str(k): v for k, v in result.initial_layout.items()})
    moved = dict(result.initial_layout)
    moved[0], moved[1] = moved[1], moved[0]
    assert digest != routed_digest(qasm, moved)
    assert digest != routed_digest(qasm + "h q[0];\n", result.initial_layout)
