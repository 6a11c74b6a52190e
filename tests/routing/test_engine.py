"""Tests for the shared routing engine."""

import math

import pytest

from repro.baselines.greedy import GreedyDistanceRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.benchgen.qasmbench import qft_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.validation import verify_routing
from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology, line_topology
from repro.routing.engine import TIE_TOLERANCE, RoutingEngine, swapped_distance_sum
from repro.routing.layout import Layout

from tests.core.test_lookahead import make_state


class TestEngineBasics:
    def test_disconnected_device_rejected(self):
        disconnected = CouplingGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            GreedyDistanceRouter(disconnected)

    def test_circuit_larger_than_device_rejected(self, line5):
        router = GreedyDistanceRouter(line5)
        with pytest.raises(ValueError):
            router.run(QuantumCircuit(6))

    def test_abstract_candidate_costs(self, line5):
        engine = RoutingEngine(line5)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        with pytest.raises(NotImplementedError):
            engine.run(circuit)

    def test_already_routable_circuit_needs_no_swaps(self, line5):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.swaps_added == 0
        assert result.routed_depth == circuit.depth()

    def test_single_far_gate_uses_minimum_swaps(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.swaps_added == 3  # distance 4 -> 3 swaps to become adjacent
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)

    def test_initial_layout_is_respected(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        layout = Layout(2, 5, {0: 0, 1: 4})
        result = GreedyDistanceRouter(line5).run(circuit, layout)
        assert result.initial_layout == {0: 0, 1: 4}
        assert result.swaps_added == 3
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)

    def test_initial_layout_dict_accepted(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = GreedyDistanceRouter(line5).run(circuit, {0: 2, 1: 3})
        assert result.swaps_added == 0

    def test_single_qubit_gates_follow_layout(self, line5):
        circuit = QuantumCircuit(2)
        circuit.h(1)
        result = GreedyDistanceRouter(line5).run(circuit, {0: 0, 1: 3})
        assert result.routed_circuit.gates[0].qubits == (3,)

    def test_final_layout_reflects_swaps(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = GreedyDistanceRouter(line5).run(circuit, {0: 0, 1: 2})
        assert result.swaps_added >= 1
        assert result.final_layout != result.initial_layout


class TestStateQueries:
    def test_result_metadata(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.mapper_name == "greedy-distance"
        assert result.runtime_seconds >= 0
        assert result.cost_evaluations > 0
        assert result.original_depth == 1

    def test_result_summary_keys(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        summary = GreedyDistanceRouter(line5).run(circuit).summary()
        assert {"mapper", "swaps", "depth", "runtime_seconds"} <= set(summary)

    def test_depth_factor_uses_reference(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.depth_factor(reference_depth=1) == result.routed_depth
        with pytest.raises(ValueError):
            result.depth_factor(reference_depth=0)

    def test_barriers_pass_through(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.cx(1, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.swaps_added == 0


class FrontDistanceRouter(RoutingEngine):
    """A router that only prices candidates: summed front-layer distance."""

    name = "front-distance"

    def candidate_costs(self, state, candidates):
        distance = state.distance_rows()
        pairs = state.physical_pairs(state.unresolved_front())
        return [swapped_distance_sum(pairs, a, b, distance) for a, b in candidates]


class NearTieRouter(RoutingEngine):
    """Prices the two candidates of a far line CNOT within the tie tolerance."""

    name = "near-tie"

    def candidate_costs(self, state, candidates):
        assert candidates == [(0, 1), (3, 4)]
        return [1.0, 1.0 + TIE_TOLERANCE / 2]


class TestSharedSwapSelection:
    def test_router_defining_only_candidate_costs_routes(self):
        device = grid_topology(3, 3)
        circuit = qft_circuit(7)
        result = FrontDistanceRouter(device).run(circuit)
        assert result.swaps_added > 0
        assert result.cost_evaluations > 0
        verify_routing(circuit, result.routed_circuit, device.edges(), result.initial_layout)

    def test_near_ties_are_broken_by_the_seeded_rng(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        choices = {}
        for seed in range(16):
            picks = {
                NearTieRouter(line5, seed=seed).select_swap(make_state(circuit, line5))
                for _ in range(3)
            }
            assert len(picks) == 1  # same seed, same choice
            choices[seed] = picks.pop()
        assert set(choices.values()) == {(0, 1), (3, 4)}

    def test_costs_beyond_the_tolerance_are_not_ties(self, line5):
        class Apart(RoutingEngine):
            def candidate_costs(self, state, candidates):
                return [1.0 + 2 * TIE_TOLERANCE, 1.0]

        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        for seed in range(8):
            state = make_state(circuit, line5)
            assert Apart(line5, seed=seed).select_swap(state) == (3, 4)
            assert state.cost_evaluations == 2

    def test_swaps_and_executed_gates_keep_the_stall_facts(self, line5):
        events = []

        class Recording(GreedyDistanceRouter):
            def on_swap_applied(self, state, swap):
                events.append(("swap", swap, state.last_swap, state.swaps_since_progress))

            def on_gate_executed(self, state, index):
                events.append(("gate", index, state.last_swap, state.swaps_since_progress))

        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        circuit.cx(0, 1)
        Recording(line5).run(circuit)
        swaps = [event for event in events if event[0] == "swap"]
        assert [event[3] for event in swaps] == [1, 2, 3]
        assert all(event[1] == event[2] for event in swaps)
        assert events[3:] == [("gate", 0, None, 0), ("gate", 1, None, 0)]


class TestTketCosts:
    def test_smaller_longest_distance_beats_smaller_total(self):
        device = line_topology(13)
        circuit = QuantumCircuit(13)
        circuit.cx(3, 6)  # distance 3
        circuit.cx(4, 1)  # distance 3
        circuit.cx(7, 12)  # distance 5: the longest
        state = make_state(circuit, device)
        router = TketLikeRouter(device)
        candidates = state.candidate_swaps()
        costs = dict(zip(candidates, router.candidate_costs(state, candidates)))
        # (3, 4) shortens both distance-3 gates (total 9) but leaves the
        # longest at 5; only the SWAPs shortening the longest gate qualify.
        assert math.isinf(costs[(3, 4)])
        assert costs[(7, 8)] == costs[(11, 12)] == 10.0
        assert [c for c, cost in costs.items() if not math.isinf(cost)] == [(7, 8), (11, 12)]
        assert router.select_swap(state) in {(7, 8), (11, 12)}
