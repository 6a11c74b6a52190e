"""SABRE-style routing (Li et al., ASPLOS'19) and its LightSABRE refinement.

SABRE splits the not-yet-executed circuit into a *front layer* ``F`` and a
fixed-size *extended layer* ``E`` of upcoming two-qubit gates and evaluates
candidate SWAPs with the cost::

    H(s) = max(decay_q1, decay_q2) * ( sum_{g in F} D[phi_s] / |F|
                                       + W * sum_{g in E} D[phi_s] / |E| )

where ``W < 1`` weighs the look-ahead contribution and the decay factor
discourages thrashing the same qubit.  ``LightSabreRouter`` uses the same
cost with the engine's release valve switched on, as in the Qiskit
implementation (after too many SWAPs without progress, SWAPs are forced
along the shortest path of the closest blocked front gate), which keeps
runtimes low on adversarial instances.

The cost loop works on per-stall precomputed physical operand pairs and the
flat distance table's row views; no tentative layout is materialised per
candidate, and decay resets are O(1) via the generation counter of
:class:`~repro.routing.decay.DecayTable`.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.hardware.coupling import CouplingGraph
from repro.routing.decay import DecayTable
from repro.routing.engine import RoutingEngine, RoutingState, swapped_distance_sum


@register_router(
    "sabre",
    description="SABRE front+extended-layer cost with qubit decay (Li et al.)",
)
class SabreRouter(RoutingEngine):
    """Front + extended layer SWAP selection with qubit decay."""

    name = "sabre"

    #: Number of two-qubit gates in the extended (look-ahead) layer.
    extended_set_size = 20
    #: Weight of the extended layer in the cost function.
    extended_set_weight = 0.5
    #: Additive decay penalty per SWAP on a qubit.
    decay_increment = 0.001

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        super().__init__(coupling, seed)
        self._decay = DecayTable(0, self.decay_increment)

    # -- hooks -------------------------------------------------------------

    def on_circuit_start(self, state: RoutingState) -> None:
        self._decay = DecayTable(state.circuit.num_qubits, self.decay_increment)

    def on_gate_executed(self, state: RoutingState, index: int) -> None:
        self._decay.reset_all()

    def on_swap_applied(self, state: RoutingState, swap: tuple[int, int]) -> None:
        logical_at = state.layout.logical_at
        for physical in swap:
            logical = logical_at[physical]
            if logical is not None:
                self._decay.bump(logical)

    # -- cost --------------------------------------------------------------

    def _extended_set(self, state: RoutingState) -> list[int]:
        """The next ``extended_set_size`` two-qubit gates after the front layer."""
        extended: list[int] = []
        visited: set[int] = set()
        is_2q = state.is_2q
        successors_of = state.dag.successors
        executed = state.executed
        frontier = sorted(state.front)
        while frontier and len(extended) < self.extended_set_size:
            next_frontier: list[int] = []
            for index in frontier:
                for successor in successors_of(index):
                    if successor in visited or successor in executed:
                        continue
                    visited.add(successor)
                    next_frontier.append(successor)
                    if is_2q[successor]:
                        extended.append(successor)
                        if len(extended) >= self.extended_set_size:
                            return extended
            frontier = next_frontier
        return extended

    def candidate_costs(
        self, state: RoutingState, candidates: list[tuple[int, int]]
    ) -> list[float]:
        front = state.unresolved_front()
        extended = self._extended_set(state)
        distance = state.distance_rows()
        logical_at = state.layout.logical_at
        front_pairs = state.physical_pairs(front)
        extended_pairs = state.physical_pairs(extended)
        front_size = len(front)
        extended_size = len(extended)
        weight = self.extended_set_weight
        decay_get = self._decay.get
        costs = []
        for a, b in candidates:
            front_cost = swapped_distance_sum(front_pairs, a, b, distance) / front_size
            extended_cost = 0.0
            if extended_size:
                extended_cost = (
                    weight
                    * swapped_distance_sum(extended_pairs, a, b, distance)
                    / extended_size
                )
            decay_a = decay_get(logical_at[a], 1.0)
            decay_b = decay_get(logical_at[b], 1.0)
            max_decay = decay_a if decay_a >= decay_b else decay_b
            costs.append(max_decay * (front_cost + extended_cost))
        return costs


@register_router(
    "lightsabre",
    description="LightSABRE refinement: SABRE cost plus release-valve escapes",
)
class LightSabreRouter(SabreRouter):
    """LightSABRE: SABRE with the release-valve forced-progress mechanism."""

    name = "lightsabre"
    release_valve_threshold = 12
