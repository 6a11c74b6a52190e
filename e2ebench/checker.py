"""Independent check of routed outputs, and the routed-circuit digest.

This module shares no code with the router or with
``repro.circuit.validation``: it reads gates, the initial layout and the
device edges and nothing else (the QASM writer only feeds the digest).

A SWAP, in the source or inserted by the router, is equivalent to exchanging
the states of its two wires, so both circuits are replayed with SWAPs as
relabellings.  Each wire carries a token, the logical qubit whose state it
holds; every other gate is appended to the sequence of each token it touches.
The routed circuit is correct when every two-qubit gate acts on a coupled
pair and each token's sequence equals the source's.
"""

from __future__ import annotations

import hashlib

from repro.qasm.writer import circuit_to_qasm


class CheckError(ValueError):
    """A routed circuit that is not a correct mapping of its source."""


def _gate_key(gate, tokens) -> tuple:
    return (gate.name, gate.params, tuple(tokens))


def _token_sequences(gates, wire_token: dict) -> dict:
    sequences: dict = {token: [] for token in wire_token.values()}
    for gate in gates:
        if gate.name == "barrier":
            continue
        if gate.name == "swap":
            a, b = gate.qubits
            wire_token[a], wire_token[b] = wire_token.get(b), wire_token.get(a)
            continue
        tokens = [wire_token.get(wire) for wire in gate.qubits]
        if None in tokens:
            raise CheckError(f"{gate!r} acts on a wire that holds no logical qubit")
        key = _gate_key(gate, tokens)
        for token in tokens:
            sequences[token].append(key)
    return sequences


def check_routed(source, routed, initial_layout: dict, edges) -> None:
    """Raise :class:`CheckError` unless ``routed`` correctly maps ``source``."""
    coupled = {frozenset(edge) for edge in edges}
    for position, gate in enumerate(routed):
        if len(gate.qubits) >= 2 and gate.name != "barrier":
            if len(gate.qubits) > 2 or frozenset(gate.qubits) not in coupled:
                raise CheckError(f"gate #{position} {gate!r} is not on a coupled pair")
    physical = [initial_layout.get(logical) for logical in range(source.num_qubits)]
    if None in physical or len(set(physical)) != len(physical):
        raise CheckError("initial layout is not injective over the logical qubits")
    expected = _token_sequences(source, {q: q for q in range(source.num_qubits)})
    actual = _token_sequences(routed, {p: q for q, p in enumerate(physical)})
    for logical in range(source.num_qubits):
        if expected[logical] != actual.get(logical, []):
            raise CheckError(f"logical qubit {logical} sees a different gate sequence")


def result_digest(result) -> str:
    """:func:`routed_digest` of a compile result."""
    return routed_digest(circuit_to_qasm(result.routed_circuit), result.initial_layout)


def routed_digest(routed_qasm: str, initial_layout: dict) -> str:
    """Digest of a routed circuit: its QASM text plus its initial layout."""
    layout = ",".join(f"{k}:{v}" for k, v in sorted((int(k), int(v)) for k, v in initial_layout.items()))
    return hashlib.sha256(f"{routed_qasm}\n{layout}".encode()).hexdigest()
