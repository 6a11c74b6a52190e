"""Tests for look-ahead window construction."""

import random
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.core.lookahead import LookaheadWindow, build_lookahead, window_size
from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology
from repro.routing.engine import RoutingState
from repro.routing.layout import Layout


def make_state(
    circuit: QuantumCircuit, device: CouplingGraph, placement=None
) -> RoutingState:
    """Build the routing state an engine would have before its first iteration."""
    dag = CircuitDAG(circuit, include_single_qubit=True)
    pending = {index: len(dag.predecessors(index)) for index in dag.gate_indices}
    return RoutingState(
        circuit=circuit,
        coupling=device,
        dag=dag,
        layout=Layout(circuit.num_qubits, device.num_qubits, placement),
        distance=device.distance_matrix(),
        pending_predecessors=pending,
        front={index for index, count in pending.items() if count == 0},
    )


def chain_circuit(n: int) -> QuantumCircuit:
    circuit = QuantumCircuit(n)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


class TestWindowSize:
    def test_scales_with_front_qubits(self, paper_example_circuit):
        from repro.hardware.topologies import line_topology

        state = make_state(paper_example_circuit, line_topology(6))
        # Front = {cx(0,1), cx(2,3)}; both are adjacent on a line under the
        # identity layout, so the unresolved front is empty and n_f defaults to 1.
        assert window_size(state, lookahead_constant=3, cap=100) == 3

    def test_cap_applies(self, grid4x4):
        circuit = chain_circuit(16)
        state = make_state(circuit, grid4x4)
        assert window_size(state, lookahead_constant=100, cap=8) <= 8


class TestLayers:
    def test_window_layers_follow_dependence_distance(self, grid4x4):
        circuit = QuantumCircuit(8)
        circuit.cx(0, 5)   # blocked on a 4x4 grid under the identity layout
        circuit.cx(5, 2)   # depends on the first gate
        circuit.cx(2, 7)   # depends on the second
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5)
        assert window.num_layers == 3
        assert window.layers[0] == [0]
        assert window.layers[1] == [1]
        assert window.layers[2] == [2]

    def test_front_only_mode(self, grid4x4):
        circuit = chain_circuit(8)
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5, front_only=True)
        assert window.num_layers == 1

    def test_single_qubit_gates_are_not_scored(self, grid4x4):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 5)
        circuit.h(5)
        circuit.cx(5, 2)
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5)
        for layer in window.layers:
            for index in layer:
                assert state.gate(index).is_two_qubit

    def test_window_respects_gate_budget(self, grid4x4):
        circuit = chain_circuit(16)
        state = make_state(circuit, grid4x4)
        small = build_lookahead(state, lookahead_constant=1, cap=3)
        assert small.num_gates <= 3

    def test_budget_stops_mid_expansion(self, grid4x4):
        circuit = QuantumCircuit(8)
        circuit.cx(0, 5)  # blocked front gate: n_f = 2 physical qubits
        circuit.cx(0, 2)  # both successors become ready when gate 0 pops,
        circuit.cx(5, 7)  # but the budget k = 1 * 2 is full after the first
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=1)
        assert window.layers == [[0], [1]]

    def test_executed_gates_are_excluded(self, grid4x4):
        circuit = chain_circuit(6)
        state = make_state(circuit, grid4x4)
        # Pretend gate 0 has been executed.
        state.executed.add(0)
        state.front = {1}
        state.pending_predecessors[1] = 0
        window = build_lookahead(state, lookahead_constant=5)
        assert 0 not in window.gates()

    def test_empty_front_yields_empty_window(self, grid4x4):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5)
        assert window.num_gates == 0


class TestWindowContainer:
    def test_gate_listing(self):
        window = LookaheadWindow([[3, 4], [7]])
        assert window.gates() == [3, 4, 7]
        assert window.num_gates == 3
        assert window.num_layers == 2
        assert list(iter(window)) == [[3, 4], [7]]


def reference_build_lookahead(
    state: RoutingState,
    lookahead_constant: int,
    cap: int = 512,
    front_only: bool = False,
) -> LookaheadWindow:
    """Reference window builder, the oracle for build_lookahead.

    Counts each successor's unexecuted predecessors from the DAG and takes
    its level from the maximum over all of its in-window predecessors.
    """
    is_2q = state.is_2q
    front_two_qubit = [index for index in sorted(state.front) if is_2q[index]]
    if front_only or not front_two_qubit:
        return LookaheadWindow([front_two_qubit] if front_two_qubit else [])

    target = window_size(state, lookahead_constant, cap)
    level: dict[int, int] = {}
    in_window: set[int] = set()
    collected_two_qubit = 0
    queue: deque[int] = deque()
    for index in sorted(state.front):
        level[index] = 1
        in_window.add(index)
        queue.append(index)
        if is_2q[index]:
            collected_two_qubit += 1

    executed = state.executed
    successors_of = state.dag.successors
    predecessors_of = state.dag.predecessors
    remaining_preds: dict[int, int] = {}
    while queue and collected_two_qubit < target:
        current = queue.popleft()
        for successor in successors_of(current):
            if successor in in_window or successor in executed:
                continue
            if successor not in remaining_preds:
                remaining_preds[successor] = sum(
                    1
                    for predecessor in predecessors_of(successor)
                    if predecessor not in executed
                )
            remaining_preds[successor] -= 1
            if remaining_preds[successor] > 0:
                continue
            predecessor_levels = [
                level[p]
                for p in predecessors_of(successor)
                if p in level
            ]
            level[successor] = 1 + max(predecessor_levels, default=0)
            in_window.add(successor)
            queue.append(successor)
            if is_2q[successor]:
                collected_two_qubit += 1
                if collected_two_qubit >= target:
                    break

    max_level = max(
        (lvl for index, lvl in level.items() if is_2q[index]),
        default=0,
    )
    layers: list[list[int]] = [[] for _ in range(max_level)]
    for index, lvl in level.items():
        if is_2q[index]:
            layers[lvl - 1].append(index)
    layers = [sorted(layer) for layer in layers if layer]
    return LookaheadWindow(layers)


PROPERTY_DEVICE = grid_topology(3, 3)


@st.composite
def partially_executed_states(draw) -> RoutingState:
    """A random circuit on a random placement with a random executed prefix.

    Gates are retired in a random dependence-respecting order exactly as the
    engine retires them, so ``front``, ``executed`` and
    ``pending_predecessors`` stay mutually consistent.
    """
    num_qubits = draw(st.integers(3, PROPERTY_DEVICE.num_qubits))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("h", "cx", "cx", "cx", "cx", "ccx", "barrier")),
                st.permutations(range(num_qubits)),
            ),
            min_size=8,
            max_size=80,
        )
    )
    circuit = QuantumCircuit(num_qubits)
    for name, qubits in ops:
        if name == "h":
            circuit.h(qubits[0])
        elif name == "cx":
            circuit.cx(qubits[0], qubits[1])
        elif name == "ccx":
            circuit.add_gate("ccx", *qubits[:3])
        else:
            circuit.barrier(*qubits[:2])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    placement = rng.sample(range(PROPERTY_DEVICE.num_qubits), num_qubits)
    state = make_state(circuit, PROPERTY_DEVICE, placement)
    for _ in range(draw(st.integers(0, len(circuit) // 2))):
        if not state.front:
            break
        index = rng.choice(sorted(state.front))
        state.front.discard(index)
        state.executed.add(index)
        for successor in state.dag.successors(index):
            state.pending_predecessors[successor] -= 1
            if state.pending_predecessors[successor] == 0:
                state.front.add(successor)
    return state


class TestMatchesReference:
    @given(
        partially_executed_states(),
        st.integers(1, 24),
        st.one_of(st.integers(1, 30), st.just(512)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_layers_as_reference(self, state, lookahead_constant, cap, front_only):
        window = build_lookahead(state, lookahead_constant, cap=cap, front_only=front_only)
        expected = reference_build_lookahead(
            state, lookahead_constant, cap=cap, front_only=front_only
        )
        assert window.layers == expected.layers
