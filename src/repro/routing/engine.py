"""The shared routing loop: execute ready gates, insert SWAPs when stuck.

Every router in this repository (Qlosure and the baselines) follows the same
outer loop, which matches Algorithm 1 of the paper:

1. gates whose dependences are satisfied and whose operands are adjacent
   under the current layout are executed immediately;
2. when no gate can be executed, one SWAP is selected, applied to the layout
   and appended to the output circuit;
3. repeat until every gate has been executed.

SWAP selection
--------------

:meth:`RoutingEngine.select_swap` is the one place a SWAP is chosen: it
prices every candidate with the router's
:meth:`RoutingEngine.candidate_costs`, commits the cheapest, breaks ties
(costs within :data:`TIE_TOLERANCE`) on the engine's seeded RNG and counts
the candidates in ``state.cost_evaluations``.  Routers implement
``candidate_costs``; search routers such as the QMAP-style A* override
``select_swap`` instead.  The engine keeps ``state.last_swap`` (the SWAP
committed last) and ``state.swaps_since_progress`` (SWAPs since the last
two-qubit gate executed); executing a two-qubit gate clears both.  Once
``swaps_since_progress`` reaches :attr:`RoutingEngine.release_valve_threshold`
(0 = off), LightSABRE's release valve (Zou et al., 2024) forces SWAPs along
the shortest path of the closest blocked front gate until a gate executes,
which breaks SWAP cycles a cost function cannot escape.

Incremental-state contract
--------------------------

:class:`RoutingState` is an *incremental* kernel: the unresolved front layer,
its physical-qubit footprint and the candidate-SWAP set are cached and kept
in sync with gate retirement and SWAP application instead of being recomputed
on every query.  Heuristics plugged into the engine must respect these rules:

* **Read-only views.**  :meth:`RoutingState.unresolved_front`,
  :meth:`RoutingState.front_physical_qubits` and
  :meth:`RoutingState.candidate_swaps` return internal caches; treat them as
  immutable snapshots valid until the next mutation and never modify them in
  place.
* **Mutate through the engine.**  The layout and the front set must only be
  changed through the engine loop (gate retirement, committed SWAPs), which
  routes every mutation through :meth:`RoutingState.note_gate_retired` /
  :meth:`RoutingState.note_swap_applied`.  A heuristic that speculatively
  mutates ``state.layout`` must call :meth:`RoutingState.mark_front_dirty`
  afterwards -- better, it should score tentative placements arithmetically
  (see :func:`swapped_distance_sum`) and never touch the shared layout at
  all.
* **Precomputed operand arrays.**  ``state.op_pairs[i]`` holds the two
  qubit operands of gate ``i`` (``None`` for single-qubit gates and
  barriers) and ``state.is_2q[i]`` flags exactly-two-qubit gates; cost loops
  should consume these instead of re-reading ``Gate`` objects.
* **Per-layer memoisation.**  :meth:`RoutingState.front_pairs` returns the
  *logical* operand pairs of the unresolved front gates as a cached list
  (same order as :meth:`RoutingState.unresolved_front`), and
  :meth:`RoutingState.front_signature` a hashable key identifying the
  current front layer.  Search-based heuristics should key any
  memoisation that must survive a committed SWAP (layouts change, the
  front layer does not) on the signature instead of recomputing
  per-layer tables from scratch.
* **Layout-dependent router state.**  A router that keeps per-window state
  derived from the layout (Qlosure's window scorer caches physical operand
  positions and distances) keeps it in step through
  :meth:`RoutingEngine.on_swap_applied`, which the engine calls after every
  committed SWAP -- release-valve SWAPs included -- once the layout and the
  cached front views have been updated.

Replaying the same seed against the same circuit and device reproduces the
emitted gate sequence bit for bit: caches only memoise what the non-cached
code would have computed at the same point, and tie-breaking still consumes
the engine RNG in the same order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from repro.hardware.coupling import CouplingGraph
from repro.obs.trace import current_tracer
from repro.routing.layout import Layout
from repro.routing.result import RoutingResult


#: Costs within this distance of the running best are ties (broken on the RNG).
TIE_TOLERANCE = 1e-12


class RouterError(RuntimeError):
    """Raised when a router cannot make progress (should never happen on connected devices)."""


def swapped_distance_sum(
    pairs: list[tuple[int, int]], a: int, b: int, distance
) -> int:
    """Summed pair distances under the layout with physical qubits a/b exchanged.

    ``pairs`` holds *current* physical operand pairs; the transposition
    ``(a b)`` is applied arithmetically per operand, so no tentative layout
    is materialised.  Only usable when the caller consumes the plain sum --
    costs that weight or compare individual terms must keep their own
    accumulation to preserve float ordering.
    """
    total = 0
    for p1, p2 in pairs:
        if p1 == a:
            p1 = b
        elif p1 == b:
            p1 = a
        if p2 == a:
            p2 = b
        elif p2 == b:
            p2 = a
        total += distance[p1][p2]
    return total


@dataclass
class RoutingState:
    """Mutable traversal state shared between the engine and the heuristics."""

    circuit: QuantumCircuit
    coupling: CouplingGraph
    dag: CircuitDAG
    layout: Layout
    distance: Sequence[Sequence[float]]
    pending_predecessors: dict[int, int]
    front: set[int] = field(default_factory=set)
    executed: set[int] = field(default_factory=set)
    emitted: list[Gate] = field(default_factory=list)
    #: The SWAP committed last; ``None`` once a two-qubit gate executes.
    last_swap: tuple[int, int] | None = None
    #: SWAPs committed since the last two-qubit gate executed.
    swaps_since_progress: int = 0
    cost_evaluations: int = 0

    def __post_init__(self):
        gates = self.circuit.gates
        #: Per-gate operand pair (first two qubits) or None for <2-qubit gates.
        self.op_pairs: list[tuple[int, int] | None] = [
            (gate.qubits[0], gate.qubits[1])
            if gate.num_qubits >= 2 and not gate.is_barrier
            else None
            for gate in gates
        ]
        #: Per-gate flag: acts on exactly two qubits (the routing-relevant set).
        self.is_2q: list[bool] = [gate.is_two_qubit for gate in gates]
        self._num_physical = self.coupling.num_qubits
        self._adjacency = self.coupling.adjacency
        self._neighbor_table = self.coupling.neighbor_table
        self._front_dirty = True
        self._unresolved: list[int] = []
        self._front_pairs: list[tuple[int, int]] = []
        self._front_physical: set[int] = set()
        self._candidates: list[tuple[int, int]] = []
        # Kernel telemetry (reported via the tracer only -- never serialized
        # into results, so traced and untraced payloads stay bit-identical).
        self.front_rebuilds = 0
        self.candidate_builds = 0
        self.candidate_total = 0
        self.heuristic_cache_hits = 0

    def gate(self, index: int) -> Gate:
        """The gate at circuit index ``index``."""
        return self.circuit.gates[index]

    def is_executable(self, index: int) -> bool:
        """True when the gate's operands are adjacent under the current layout."""
        pair = self.op_pairs[index]
        if pair is None:
            return True
        phys_of = self.layout.phys_of
        return (
            self._adjacency[phys_of[pair[0]] * self._num_physical + phys_of[pair[1]]]
            == 1
        )

    # -- cached front-layer views -------------------------------------------

    def mark_front_dirty(self) -> None:
        """Invalidate the cached front-layer views (rebuilt lazily on next read)."""
        self._front_dirty = True

    def note_gate_retired(self, index: int) -> None:
        """Record a front-set change: the cached views must be rebuilt."""
        self._front_dirty = True

    def note_swap_applied(self, p1: int, p2: int) -> None:
        """Fold a committed SWAP into the cached views.

        Front membership is untouched by a SWAP, so while no unresolved gate
        became executable the cached unresolved list stays valid verbatim and
        only the physical footprint (and with it the candidate set) needs
        refreshing.  As soon as a gate turns executable the engine is about to
        retire it, so the caches are simply invalidated.
        """
        if self._front_dirty:
            return
        phys_of = self.layout.phys_of
        adjacency = self._adjacency
        n = self._num_physical
        op_pairs = self.op_pairs
        for index in self._unresolved:
            q1, q2 = op_pairs[index]
            if adjacency[phys_of[q1] * n + phys_of[q2]]:
                self._front_dirty = True
                return
        front_physical: set[int] = set()
        for index in self._unresolved:
            q1, q2 = op_pairs[index]
            front_physical.add(phys_of[q1])
            front_physical.add(phys_of[q2])
        self._front_physical = front_physical
        self._candidates = self._build_candidates(front_physical)

    def _refresh_front(self) -> None:
        phys_of = self.layout.phys_of
        adjacency = self._adjacency
        n = self._num_physical
        op_pairs = self.op_pairs
        is_2q = self.is_2q
        unresolved: list[int] = []
        front_pairs: list[tuple[int, int]] = []
        front_physical: set[int] = set()
        for index in self.front:
            if not is_2q[index]:
                continue
            q1, q2 = op_pairs[index]
            p1 = phys_of[q1]
            p2 = phys_of[q2]
            if adjacency[p1 * n + p2]:
                continue
            unresolved.append(index)
            front_pairs.append((q1, q2))
            front_physical.add(p1)
            front_physical.add(p2)
        self._unresolved = unresolved
        self._front_pairs = front_pairs
        self._front_physical = front_physical
        self._candidates = self._build_candidates(front_physical)
        self._front_dirty = False
        self.front_rebuilds += 1

    def _build_candidates(self, front_physical: set[int]) -> list[tuple[int, int]]:
        neighbor_table = self._neighbor_table
        candidates: set[tuple[int, int]] = set()
        for p1 in front_physical:
            for p2 in neighbor_table[p1]:
                candidates.add((p1, p2) if p1 < p2 else (p2, p1))
        self.candidate_builds += 1
        self.candidate_total += len(candidates)
        return sorted(candidates)

    def kernel_counters(self) -> dict[str, int]:
        """The routing-kernel work counters accumulated during one run."""
        return {
            "cost_evaluations": self.cost_evaluations,
            "front_rebuilds": self.front_rebuilds,
            "candidate_builds": self.candidate_builds,
            "candidate_total": self.candidate_total,
            "heuristic_cache_hits": self.heuristic_cache_hits,
        }

    def unresolved_front(self) -> list[int]:
        """Front-layer two-qubit gates that are not executable yet (cached view)."""
        if self._front_dirty:
            self._refresh_front()
        return self._unresolved

    def front_physical_qubits(self) -> set[int]:
        """Physical qubits hosting operands of unresolved front-layer gates (``Pfront``)."""
        if self._front_dirty:
            self._refresh_front()
        return self._front_physical

    def candidate_swaps(self) -> list[tuple[int, int]]:
        """Candidate SWAPs: edges touching at least one front-layer physical qubit."""
        if self._front_dirty:
            self._refresh_front()
        return self._candidates

    def front_pairs(self) -> list[tuple[int, int]]:
        """Logical operand pairs of the unresolved front gates (cached view).

        Order matches :meth:`unresolved_front`.  Logical pairs are layout
        independent, so the list survives committed SWAPs verbatim until a
        gate retires.
        """
        if self._front_dirty:
            self._refresh_front()
        return self._front_pairs

    def front_signature(self) -> tuple[int, ...]:
        """Hashable identity of the current front layer (memoisation key).

        Two states with equal signatures have the same unresolved gates in
        the same order; per-layer tables (heuristic rows, candidate
        expansions) keyed on the signature stay valid across the SWAPs
        committed while the layer is being resolved.
        """
        if self._front_dirty:
            self._refresh_front()
        return tuple(self._unresolved)

    def distance_rows(self):
        """Row-view binding of the *current* distance table.

        Unwraps a :class:`~repro.hardware.distance.FlatDistanceTable` to its
        row lists and passes any other row-indexable matrix (e.g. the
        error-weighted float matrix) through unchanged.  Re-bind after
        replacing ``state.distance``.
        """
        distance = self.distance
        return getattr(distance, "rows", distance)

    def physical_pairs(self, indices) -> list[tuple[int, int]]:
        """Current physical operand pairs of the two-qubit gates ``indices``."""
        phys_of = self.layout.phys_of
        op_pairs = self.op_pairs
        return [(phys_of[q1], phys_of[q2]) for q1, q2 in (op_pairs[i] for i in indices)]

    def next_two_qubit_gates(self, limit: int) -> list[int]:
        """Up to ``limit`` unexecuted two-qubit successors of the front layer
        (the next time slice), front gates visited in index order."""
        upcoming: list[int] = []
        is_2q = self.is_2q
        executed = self.executed
        for index in sorted(self.front):
            for successor in self.dag.successors(index):
                if is_2q[successor] and successor not in executed and successor not in upcoming:
                    upcoming.append(successor)
                    if len(upcoming) >= limit:
                        return upcoming
        return upcoming

    def gate_distance(self, index: int) -> int:
        """Distance between the physical operands of a two-qubit gate."""
        q1, q2 = self.op_pairs[index]
        phys_of = self.layout.phys_of
        return self.distance[phys_of[q1]][phys_of[q2]]


class RoutingEngine:
    """Base class implementing the execute-or-swap routing loop."""

    #: Human-readable router name used in results and benchmark tables.
    name = "base-router"
    #: Consecutive SWAPs without a two-qubit gate executing before the release
    #: valve opens (0 = never).
    release_valve_threshold = 0

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        if not coupling.is_connected():
            raise ValueError("routing requires a connected coupling graph")
        self.coupling = coupling
        self.seed = seed
        self._rng = random.Random(seed)

    # -- router-specific policy ------------------------------------------------

    def candidate_costs(
        self, state: RoutingState, candidates: list[tuple[int, int]]
    ) -> Sequence[float]:
        """One cost per candidate SWAP (same order); the cheapest is committed."""
        raise NotImplementedError

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        """Pick the SWAP (physical qubit pair) to apply when no gate is executable."""
        if 0 < self.release_valve_threshold <= state.swaps_since_progress:
            return self._release_valve_swap(state)
        candidates = state.candidate_swaps()
        if not candidates:
            raise RouterError(f"{self.name}: no candidate SWAPs available")
        best_cost = float("inf")
        best: list[tuple[int, int]] = []
        for candidate, cost in zip(candidates, self.candidate_costs(state, candidates)):
            if cost < best_cost - TIE_TOLERANCE:
                best_cost = cost
                best = [candidate]
            elif abs(cost - best_cost) <= TIE_TOLERANCE:
                best.append(candidate)
        state.cost_evaluations += len(candidates)
        return best[0] if len(best) == 1 else self._rng.choice(best)

    def _release_valve_swap(self, state: RoutingState) -> tuple[int, int]:
        """Force a SWAP along the shortest path of the closest blocked front gate."""
        front = state.unresolved_front()
        if not front:
            raise RouterError(f"{self.name} stalled with no unresolved front gates")
        target = min(front, key=state.gate_distance)
        p1, p2 = state.physical_pairs((target,))[0]
        path = self.coupling.shortest_path(p1, p2)
        return (min(path[0], path[1]), max(path[0], path[1]))

    def on_circuit_start(self, state: RoutingState) -> None:
        """Hook called once before routing starts (pre-computation)."""

    def on_gate_executed(self, state: RoutingState, index: int) -> None:
        """Hook called after a two-qubit gate has been executed."""

    def on_swap_applied(self, state: RoutingState, swap: tuple[int, int]) -> None:
        """Hook called after a SWAP has been committed (layout already updated)."""

    # -- main loop ----------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout | dict[int, int] | Sequence[int] | None = None,
    ) -> RoutingResult:
        """Route ``circuit`` onto the engine's coupling graph.

        Returns a :class:`~repro.routing.result.RoutingResult` whose routed
        circuit uses physical qubit indices and contains the inserted SWAPs.
        """
        start_time = time.perf_counter()
        layout = self._coerce_layout(circuit, initial_layout)
        initial_placement = layout.as_dict()
        dag = CircuitDAG(circuit, include_single_qubit=True)
        pending = {index: len(dag.predecessors(index)) for index in dag.gate_indices}
        state = RoutingState(
            circuit=circuit,
            coupling=self.coupling,
            dag=dag,
            layout=layout,
            distance=self.coupling.distance_table(),
            pending_predecessors=pending,
            front={index for index, count in pending.items() if count == 0},
        )
        self._rng = random.Random(self.seed)
        self.on_circuit_start(state)

        total_gates = len(dag.gate_indices)
        swap_budget = max(10_000, 20 * total_gates + 50 * self.coupling.num_qubits)
        swaps_applied = 0

        while len(state.executed) < total_gates:
            progressed = self._execute_ready_gates(state)
            if len(state.executed) >= total_gates:
                break
            if progressed:
                continue
            swap = self.select_swap(state)
            self._apply_swap(state, swap)
            swaps_applied += 1
            if swaps_applied > swap_budget:
                raise RouterError(
                    f"{self.name} exceeded the SWAP budget ({swap_budget}); "
                    "the heuristic is not making progress"
                )

        routed = QuantumCircuit(
            self.coupling.num_qubits, state.emitted, name=f"{circuit.name}-{self.name}"
        )
        tracer = current_tracer()
        if tracer.enabled:
            span = tracer.current()
            counters = state.kernel_counters()
            counters["swaps_applied"] = swaps_applied
            for key, value in counters.items():
                tracer.count(f"kernel.{key}", value)
                if span is not None:
                    span.set(f"kernel.{key}", value)
        return RoutingResult(
            routed_circuit=routed,
            initial_layout=initial_placement,
            final_layout=state.layout.as_dict(),
            original_depth=circuit.depth(),
            mapper_name=self.name,
            runtime_seconds=time.perf_counter() - start_time,
            cost_evaluations=state.cost_evaluations,
        )

    # -- internals -------------------------------------------------------------------

    def _coerce_layout(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout | dict[int, int] | Sequence[int] | None,
    ) -> Layout:
        if circuit.num_qubits > self.coupling.num_qubits:
            raise ValueError(
                f"circuit uses {circuit.num_qubits} qubits but the device only has "
                f"{self.coupling.num_qubits}"
            )
        if initial_layout is None:
            return Layout.trivial(circuit.num_qubits, self.coupling.num_qubits)
        if isinstance(initial_layout, Layout):
            return initial_layout.copy()
        return Layout(circuit.num_qubits, self.coupling.num_qubits, initial_layout)

    def _execute_ready_gates(self, state: RoutingState) -> bool:
        """Execute every ready gate whose operands are adjacent; return True if any ran."""
        progressed = False
        ready = True
        op_pairs = state.op_pairs
        adjacency = state._adjacency
        n = state._num_physical
        while ready:
            ready = False
            phys_of = state.layout.phys_of
            for index in sorted(state.front):
                pair = op_pairs[index]
                if pair is not None and not adjacency[
                    phys_of[pair[0]] * n + phys_of[pair[1]]
                ]:
                    continue
                self._emit_gate(state, index)
                self._retire(state, index)
                if state.is_2q[index]:
                    state.last_swap = None
                    state.swaps_since_progress = 0
                    self.on_gate_executed(state, index)
                ready = True
                progressed = True
        return progressed

    def _emit_gate(self, state: RoutingState, index: int) -> None:
        gate = state.gate(index)
        phys_of = state.layout.phys_of
        physical = tuple(phys_of[q] for q in gate.qubits)
        state.emitted.append(Gate(gate.name, physical, gate.params, gate.label))

    def _retire(self, state: RoutingState, index: int) -> None:
        state.front.discard(index)
        state.executed.add(index)
        pending = state.pending_predecessors
        front = state.front
        for successor in state.dag.successors(index):
            pending[successor] -= 1
            if pending[successor] == 0:
                front.add(successor)
        state.note_gate_retired(index)

    def _apply_swap(self, state: RoutingState, swap: tuple[int, int]) -> None:
        p1, p2 = swap
        if not state._adjacency[p1 * state._num_physical + p2]:
            raise RouterError(f"{self.name} proposed a SWAP on non-adjacent qubits {swap}")
        state.layout.swap_physical(p1, p2)
        state.emitted.append(Gate("swap", (p1, p2)))
        state.note_swap_applied(p1, p2)
        state.last_swap = swap
        state.swaps_since_progress += 1
        self.on_swap_applied(state, swap)
