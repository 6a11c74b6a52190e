"""Tests for the Qlosure cost function M(s)."""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.config import QlosureConfig
from repro.core.cost import WindowScorer
from repro.core.lookahead import LookaheadWindow, build_lookahead
from repro.hardware.topologies import line_topology

from tests.core.test_lookahead import make_state


def blocked_cnot_state(num_qubits: int = 5):
    """A single CNOT between the two ends of a line (distance 4)."""
    device = line_topology(num_qubits)
    circuit = QuantumCircuit(num_qubits)
    circuit.cx(0, num_qubits - 1)
    return make_state(circuit, device)


class TestSwapCost:
    def test_helpful_swap_scores_lower(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        weights = {0: 5}
        helpful = WindowScorer(state, window, weights, {}, config).score((0, 1))
        useless = WindowScorer(state, window, weights, {}, config).score((1, 2))
        assert helpful < useless

    def test_weights_scale_contribution(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        low = WindowScorer(state, window, {0: 1}, {}, config).score((1, 2))
        high = WindowScorer(state, window, {0: 10}, {}, config).score((1, 2))
        assert high == pytest.approx(10 * low)

    def test_weights_ignored_when_disabled(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False, use_dependence_weights=False)
        a = WindowScorer(state, window, {0: 1}, {}, config).score((1, 2))
        b = WindowScorer(state, window, {0: 10}, {}, config).score((1, 2))
        assert a == pytest.approx(b)

    def test_decay_multiplies_score(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=True)
        without_decay = WindowScorer(
            state, window, {0: 1}, {0: 1.0, 1: 1.0}, config
        ).score((0, 1))
        with_decay = WindowScorer(
            state, window, {0: 1}, {0: 1.5, 1: 1.0}, config
        ).score((0, 1))
        assert with_decay == pytest.approx(1.5 * without_decay)

    def test_decay_of_unoccupied_location_defaults_to_one(self):
        device = line_topology(6)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=True)
        # Physical qubit 3 hosts no logical qubit.
        decay = {0: 2.0, 1: 2.0, 2: 2.0}
        cost = WindowScorer(state, window, {0: 1}, decay, config).score((2, 3))
        assert cost > 0


class TestLayerFactors:
    def _two_layer_state(self):
        device = line_topology(6)
        circuit = QuantumCircuit(6)
        circuit.cx(0, 3)  # front layer (blocked)
        circuit.cx(3, 5)  # second layer
        return make_state(circuit, device)

    def test_layer_discount_reduces_later_layer_influence(self):
        state = self._two_layer_state()
        window = build_lookahead(state, lookahead_constant=5)
        assert window.num_layers == 2
        config_with = QlosureConfig(use_decay=False, use_dependence_weights=False)
        config_without = QlosureConfig(
            use_decay=False, use_dependence_weights=False, use_layer_discount=False
        )
        scorer_with = WindowScorer(state, window, {}, {}, config_with)
        scorer_without = WindowScorer(state, window, {}, {}, config_without)
        # Discounting only shrinks the second layer's contribution.
        assert scorer_with.base_score() < scorer_without.base_score()

    def test_layer_normalization_divides_by_layer_size(self):
        device = line_topology(8)
        circuit = QuantumCircuit(8)
        circuit.cx(0, 4)
        circuit.cx(1, 5)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=5)
        config_norm = QlosureConfig(use_decay=False, use_dependence_weights=False)
        config_raw = QlosureConfig(
            use_decay=False, use_dependence_weights=False, use_layer_normalization=False
        )
        normalized = WindowScorer(state, window, {}, {}, config_norm).base_score()
        raw = WindowScorer(state, window, {}, {}, config_raw).base_score()
        assert normalized == pytest.approx(raw / 2)


class TestWindowScorer:
    def test_incremental_matches_direct_evaluation(self):
        device = line_topology(7)
        circuit = QuantumCircuit(7)
        circuit.cx(0, 6)
        circuit.cx(6, 3)
        circuit.cx(3, 1)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=4)
        weights = {0: 3, 1: 2, 2: 1}
        decay = {q: 1.0 + 0.01 * q for q in range(7)}
        config = QlosureConfig()
        scorer = WindowScorer(state, window, weights, decay, config)
        for candidate in state.candidate_swaps():
            direct = WindowScorer(state, window, weights, decay, config).score(candidate)
            assert scorer.score(candidate) == direct

    def test_apply_swap_matches_fresh_build(self):
        device = line_topology(7)
        circuit = QuantumCircuit(7)
        circuit.cx(0, 6)
        circuit.cx(6, 3)
        circuit.cx(3, 1)
        circuit.cx(1, 5)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=4)
        weights = {0: 3, 1: 2, 2: 1, 3: 4}
        decay = {q: 1.0 + 0.01 * q for q in range(7)}
        config = QlosureConfig()
        scorer = WindowScorer(state, window, weights, decay, config)
        for swap in [(0, 1), (5, 6), (1, 2), (0, 1), (3, 4)]:
            state.layout.swap_physical(*swap)
            state.mark_front_dirty()
            scorer.apply_swap(*swap)
            fresh = WindowScorer(state, window, weights, decay, config)
            assert scorer.base_score() == fresh.base_score()
            for candidate in device.edges():
                assert scorer.score(candidate) == fresh.score(candidate)

    def test_unrelated_swap_keeps_base_score(self):
        state = blocked_cnot_state(6)
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        scorer = WindowScorer(state, window, {0: 1}, {}, config)
        # A swap between empty far-away qubits leaves every window gate alone.
        assert scorer.score((2, 3)) == pytest.approx(scorer.base_score())
