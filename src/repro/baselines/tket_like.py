"""tket-style router: bound the longest qubit distance of the active slice.

Quantinuum's tket routing pass evaluates SWAPs on time slices and prefers
moves that reduce (bound) the *maximum* distance between the qubit pairs of
the slice, falling back to the summed distance for tie-breaking.  This
reimplements that minimax cost family on the shared routing engine.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.routing.engine import RoutingEngine, RoutingState, swapped_distance_sum


@register_router(
    "tket",
    aliases=("tket-like", "pytket"),
    description="tket-style time-sliced router bounding the longest qubit distance",
)
class TketLikeRouter(RoutingEngine):
    """Minimax-distance SWAP selection over the current front layer."""

    name = "tket-like"

    #: Number of upcoming two-qubit gates included with reduced influence.
    lookahead_size = 4
    #: Weight of the look-ahead contribution in the tie-breaking sum.
    lookahead_weight = 0.25

    def candidate_costs(
        self, state: RoutingState, candidates: list[tuple[int, int]]
    ) -> list[float]:
        """The lexicographic rule (longest front distance, then total) as costs.

        Candidates reaching the smallest longest distance cost their total;
        the rest cost ``inf``.  Totals are sums of integers and multiples of
        0.25, exact in any summation order, so the engine's tie tolerance
        only ever merges equal totals.
        """
        distance = state.distance_rows()
        front_pairs = state.physical_pairs(state.unresolved_front())
        upcoming_pairs = state.physical_pairs(
            state.next_two_qubit_gates(self.lookahead_size)
        )
        weight = self.lookahead_weight
        last_swap = state.last_swap
        longests = []
        totals = []
        for candidate in candidates:
            a, b = candidate
            longest = 0
            total = 0.0
            # The minimax term needs each front distance, so this transposition
            # stays inline rather than using swapped_distance_sum.
            for p1, p2 in front_pairs:
                if p1 == a:
                    p1 = b
                elif p1 == b:
                    p1 = a
                if p2 == a:
                    p2 = b
                elif p2 == b:
                    p2 = a
                d = distance[p1][p2]
                if d > longest:
                    longest = d
                total += d
            total += weight * swapped_distance_sum(upcoming_pairs, a, b, distance)
            if candidate == last_swap:
                total += 0.5
            longests.append(longest)
            totals.append(total)
        bound = min(longests)
        return [
            total if longest == bound else float("inf")
            for longest, total in zip(longests, totals)
        ]
