"""Cirq-style time-sliced greedy distance router.

Google Cirq's ``route_circuit`` pass works on time slices of the circuit and
greedily selects SWAPs that reduce the summed qubit distance of the current
slice, with a small look-ahead over the following slice.  This reimplements
that cost family on the shared routing engine: the current front layer plays
the role of the active time slice, and the immediately following slice is
considered with reduced weight.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.routing.engine import RoutingEngine, RoutingState, swapped_distance_sum


@register_router(
    "cirq",
    aliases=("cirq-like",),
    description="Cirq-style time-sliced greedy qubit-distance router",
)
class CirqLikeRouter(RoutingEngine):
    """Time-sliced greedy router using summed qubit distance."""

    name = "cirq-like"

    #: Relative weight of the next time slice in the cost.
    next_slice_weight = 0.4
    #: Maximum number of gates from the next slice taken into account.
    next_slice_size = 8

    def candidate_costs(
        self, state: RoutingState, candidates: list[tuple[int, int]]
    ) -> list[float]:
        distance = state.distance_rows()
        front_pairs = state.physical_pairs(state.unresolved_front())
        upcoming_pairs = state.physical_pairs(
            state.next_two_qubit_gates(self.next_slice_size)
        )
        weight = self.next_slice_weight
        last_swap = state.last_swap
        costs = []
        for candidate in candidates:
            a, b = candidate
            cost = float(swapped_distance_sum(front_pairs, a, b, distance))
            # Per-term weighted accumulation (not sum-then-scale) preserves
            # the float addition order of the cost definition.
            for p1, p2 in upcoming_pairs:
                if p1 == a:
                    p1 = b
                elif p1 == b:
                    p1 = a
                if p2 == a:
                    p2 = b
                elif p2 == b:
                    p2 = a
                cost += weight * distance[p1][p2]
            if candidate == last_swap:
                cost += 0.5
            costs.append(cost)
        return costs
