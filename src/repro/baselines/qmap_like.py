"""QMAP-style heuristic router: layer-local A* search.

MQT QMAP's heuristic mode partitions the circuit into layers and, for each
layer, performs an A* search over SWAP sequences until the layer's gates are
executable, making locally (per-layer) optimal decisions without global
look-ahead.  This reimplementation keeps that structure: whenever routing
stalls, a bounded A* search over layouts finds the shortest SWAP sequence
that makes at least one unresolved front-layer gate executable, and the first
SWAP of that sequence is committed.  The search heuristic is the summed
remaining distance of the front-layer gates (admissible -- and exact -- for
single-gate fronts, a tie-breaking overestimate for wider fronts), and the
node budget keeps worst-case runtime bounded with a deterministic greedy
fallback.

The search is *incremental* on the PR-1 routing kernel:

* **Deferred materialisation.**  Heap entries carry ``(parent, swap)``
  instead of placement copies; a node's flat placement (logical index ->
  physical qubit) is materialised only when the node is popped, as one list
  copy plus an O(1) two-entry update through the parent's inverse map.
  Pushes outnumber pops ~16x on the QUEKO workload, so the per-push O(n)
  copy + O(n) swap scan of the naive formulation disappears from the
  profile.
* **Incremental heuristics.**  A child's heuristic is the parent's summed
  distance plus the delta of the pairs whose physical endpoints the SWAP
  touches (integer arithmetic on the flat distance table, so the values are
  bit-for-bit those of a fresh summation).  Goal detection rides along: an
  expanded node has every pair at distance >= 2, so a child reaches the goal
  exactly when a touched pair lands at distance 1.
* **Layer memoisation.**  The root of every search reuses the engine's
  cached :meth:`~repro.routing.engine.RoutingState.front_pairs` /
  :meth:`~repro.routing.engine.RoutingState.candidate_swaps` views, and
  candidate-SWAP expansions of interior nodes are memoised by front
  footprint (the set of physical qubits hosting front-layer operands),
  which repeats heavily across the searches of one layer.
* **Adaptive node budget.**  When the front layer is nearly routable --
  a single unresolved gate at distance 2 -- the summed-distance heuristic
  is consistent (a SWAP changes a single pair's distance by at most one)
  and a depth-1 goal child exists, so A* provably returns it on the second
  expansion; the budget tightens to :attr:`near_routable_budget` without
  any possibility of changing the committed SWAP.  Exhaustion of the
  budget in deeper searches falls back to the deterministic greedy rule.

The committed SWAP sequence is bit-for-bit identical to the naive
formulation: the heap ordering key ``(f, insertion counter)``, the visited
set keyed on placement signatures, and the expansion order of candidates are
all preserved exactly.
"""

from __future__ import annotations

import heapq

from repro.api.registry import register_router
from repro.hardware.coupling import CouplingGraph
from repro.routing.engine import (
    RouterError,
    RoutingEngine,
    RoutingState,
    swapped_distance_sum,
)


@register_router(
    "qmap",
    aliases=("qmap-like",),
    description="QMAP-style per-layer A* search (layer-local optimal decisions)",
)
class QmapLikeRouter(RoutingEngine):
    """Bounded per-layer incremental A* search over SWAP sequences."""

    name = "qmap-like"

    #: Maximum number of layouts expanded per A* invocation.
    node_budget = 80
    #: Maximum SWAP-sequence length explored before falling back to greedy.
    max_sequence_length = 3
    #: Budget when the front is nearly routable (provably >= the 2 expansions
    #: A* needs in that case; see the module docstring).
    near_routable_budget = 4
    #: When True, every search appends its expanded placement signatures to
    #: :attr:`last_expanded_keys` (property-test instrumentation; off on the
    #: hot path).
    record_expansions = False

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        super().__init__(coupling, seed)
        #: footprint (frozenset of physical qubits) -> sorted candidate SWAPs.
        self._candidate_memo: dict[frozenset[int], list[tuple[int, int]]] = {}
        #: Placement signatures expanded by the most recent search (only
        #: populated when :attr:`record_expansions` is set).
        self.last_expanded_keys: list[tuple[int, ...]] | None = None

    # -- engine hooks ---------------------------------------------------------

    def on_circuit_start(self, state: RoutingState) -> None:
        """Reset per-circuit memo tables (footprints are device-specific)."""
        self._candidate_memo.clear()

    # -- A* search ------------------------------------------------------------

    @staticmethod
    def _heuristic(
        distance, placement: list[int], pairs: list[tuple[int, int]]
    ) -> float:
        total = 0
        for q1, q2 in pairs:
            total += distance[placement[q1]][placement[q2]]
        return float(total - len(pairs))  # distance 1 per pair is the goal

    @staticmethod
    def _admissible_bound(
        distance, placement: list[int], pairs: list[tuple[int, int]]
    ) -> int:
        """Lower bound on the SWAPs needed to make *some* pair adjacent.

        ``min_pair d - 1`` never overestimates (each SWAP moves any pair's
        distance by at most one), so it is admissible for fronts of any
        width; for a single pair it coincides with :meth:`_heuristic` and is
        exact.
        """
        return min(distance[placement[q1]][placement[q2]] for q1, q2 in pairs) - 1

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        pairs = state.front_pairs()
        if not pairs:
            raise RouterError("qmap-like router stalled with no unresolved front gates")
        distance = state.distance_rows()
        layout = state.layout
        start = layout.phys_of  # read-only during the search (state contract)
        num_pairs = len(pairs)

        h_root = 0
        for q1, q2 in pairs:
            h_root += distance[start[q1]][start[q2]]

        budget = self.node_budget
        if num_pairs == 1 and h_root == 2:
            # Nearly routable: the search provably ends on expansion 2.
            budget = min(budget, self.near_routable_budget)

        # Materialised records of expanded nodes (index 0 = root, borrowing
        # the live layout views, which the search never mutates).
        placements: list[list[int]] = [start]
        inverses: list[list[int | None]] = [layout.logical_at]
        # Heap entries: (estimate, counter, cost, summed distance, parent
        # record, swap from parent, first swap of the sequence, goal flag).
        # Estimates are ints; they order the heap exactly like the equal-
        # valued floats of the naive formulation.
        frontier: list[tuple] = [
            (h_root - num_pairs, 0, 0, h_root, 0, None, None, False)
        ]
        counter = 1
        visited: set[tuple[int, ...]] = set()
        expanded = 0
        evaluations = 0
        max_length = self.max_sequence_length
        memo = self._candidate_memo
        neighbor_table = self.coupling.neighbor_table
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Estimate of the cheapest goal node sitting in the heap.  Any child
        # generated later with estimate >= this can never be popped before
        # that goal (insertion counters are monotonic), and the search
        # returns at the first goal pop, so pushing it would be dead work;
        # it is evaluated (the counter stays exact) but not enqueued.  On
        # budget exhaustion the skipped nodes were equally unreachable, so
        # the fallback decision is untouched.
        best_goal_f: int | None = None
        trace: list[tuple[int, ...]] | None = (
            [] if self.record_expansions else None
        )

        while frontier and expanded < budget:
            _, _, cost, h_int, parent, swap, first_swap, is_goal = heappop(
                frontier
            )
            if swap is None:
                placement = start
                parent_inverse = inverses[0]
                l1 = l2 = None
            else:
                parent_inverse = inverses[parent]
                a, b = swap
                l1 = parent_inverse[a]
                l2 = parent_inverse[b]
                placement = list(placements[parent])
                if l1 is not None:
                    placement[l1] = b
                if l2 is not None:
                    placement[l2] = a
            key = tuple(placement)
            if key in visited:
                continue
            visited.add(key)
            expanded += 1
            if trace is not None:
                trace.append(key)
            if cost and is_goal:
                state.cost_evaluations += evaluations
                self.last_expanded_keys = trace
                return first_swap
            if cost >= max_length:
                continue

            if swap is None:
                record = 0
            else:
                inverse = list(parent_inverse)
                inverse[a] = l2
                inverse[b] = l1
                record = len(placements)
                placements.append(placement)
                inverses.append(inverse)

            pair_phys = [(placement[q1], placement[q2]) for q1, q2 in pairs]
            touch: dict[int, list[int]] = {}
            for pair_index, (p1, p2) in enumerate(pair_phys):
                touch.setdefault(p1, []).append(pair_index)
                if p2 != p1:
                    touch.setdefault(p2, []).append(pair_index)

            if swap is None:
                candidates = state.candidate_swaps()
            else:
                footprint = frozenset(touch)
                candidates = memo.get(footprint)
                if candidates is None:
                    edges: set[tuple[int, int]] = set()
                    for p1 in footprint:
                        for p2 in neighbor_table[p1]:
                            edges.add((p1, p2) if p1 < p2 else (p2, p1))
                    candidates = sorted(edges)
                    memo[footprint] = candidates
                else:
                    state.heuristic_cache_hits += 1

            next_cost = cost + 1
            base = next_cost - num_pairs
            empty: tuple[int, ...] = ()
            touch_get = touch.get
            for candidate in candidates:
                a2, b2 = candidate
                touched_a = touch_get(a2, empty)
                touched_b = touch_get(b2, empty)
                delta = 0
                goal = False
                for pair_index in touched_a:
                    p1, p2 = pair_phys[pair_index]
                    n1 = b2 if p1 == a2 else a2 if p1 == b2 else p1
                    n2 = b2 if p2 == a2 else a2 if p2 == b2 else p2
                    new = distance[n1][n2]
                    if new == 1:
                        goal = True
                    delta += new - distance[p1][p2]
                for pair_index in touched_b:
                    if pair_index in touched_a:
                        continue
                    p1, p2 = pair_phys[pair_index]
                    n1 = b2 if p1 == a2 else a2 if p1 == b2 else p1
                    n2 = b2 if p2 == a2 else a2 if p2 == b2 else p2
                    new = distance[n1][n2]
                    if new == 1:
                        goal = True
                    delta += new - distance[p1][p2]
                evaluations += 1
                h_child = h_int + delta
                estimate = base + h_child
                if best_goal_f is not None and estimate >= best_goal_f:
                    continue
                if goal:
                    best_goal_f = estimate
                heappush(
                    frontier,
                    (
                        estimate,
                        counter,
                        next_cost,
                        h_child,
                        record,
                        candidate,
                        first_swap if first_swap is not None else candidate,
                        goal,
                    ),
                )
                counter += 1
        state.cost_evaluations += evaluations
        self.last_expanded_keys = trace
        return self._greedy_fallback(state)

    def _greedy_fallback(self, state: RoutingState) -> tuple[int, int]:
        """Fallback: the SWAP minimising the summed distance of the front pairs.

        Deterministic: ``min`` keeps the first of equal costs in the sorted
        candidate order, so ties resolve to the lexicographically first edge
        on every run.
        """
        candidates = state.candidate_swaps()
        if not candidates:
            raise RouterError("no candidate SWAPs available")
        distance = state.distance_rows()
        front_pairs = state.physical_pairs(state.unresolved_front())
        state.cost_evaluations += len(candidates)
        return min(
            candidates,
            key=lambda swap: swapped_distance_sum(front_pairs, swap[0], swap[1], distance),
        )
