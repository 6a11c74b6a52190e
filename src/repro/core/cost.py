"""The Qlosure SWAP-cost heuristic ``M(s)`` (Eq. 2 of the paper).

For a candidate SWAP ``s = (p1, p2)`` and tentative mapping ``phi_s``::

    M(s) = max(delta_p1, delta_p2) * sum_l ( Gamma_l / |G_l| )
    Gamma_l = sum_{g in G_l} omega_g * D[phi_s(g.q1), phi_s(g.q2)] / l

where ``G_l`` is the set of two-qubit gates at dependence distance ``l`` from
the front layer, ``omega_g`` the transitive dependence weight, ``D`` the
physical distance matrix and ``delta`` the SABRE-style decay values of the
logical qubits the SWAP moves.  The ablation switches in
:class:`~repro.core.config.QlosureConfig` disable individual factors.

Scoring many candidate SWAPs against the same window repeats most of the
work, so :class:`WindowScorer` pre-computes per-layer base sums once per
window and evaluates each candidate by adjusting only the gates whose
physical operands are touched by that SWAP -- the asymptotic cost per
candidate drops from O(window) to O(gates on the two swapped qubits).  The
scorer lives as long as its window: every committed SWAP is folded in by
:meth:`WindowScorer.apply_swap`, which rewrites only the gates on the two
swapped qubits, so consecutive stalls on the same front layer never rebuild
it.  All lookups go through the precomputed per-gate operand arrays of the
routing state and the flat distance table's row views; no tentative layout
is ever materialised.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow
from repro.routing.engine import RoutingState

#: Touching set of a physical qubit that hosts no window gate.
_NO_ENTRIES: frozenset[int] = frozenset()


class WindowScorer:
    """Incremental evaluator of ``M(s)`` over one look-ahead window."""

    def __init__(
        self,
        state: RoutingState,
        window: LookaheadWindow,
        weights: Mapping[int, int],
        decay,
        config: QlosureConfig,
    ):
        self.window = window
        self._logical_at = state.layout.logical_at
        self._decay_get = decay.get
        self._use_decay = config.use_decay
        self._normalize = config.use_layer_normalization
        self._distance = state.distance_rows()
        # Per-window-gate records: (layer position, weight factor, phys1,
        # phys2, current distance), layer by layer.  Positions and distances
        # follow the layout: apply_swap rewrites the records of the gates on
        # the swapped qubits, so scoring a candidate only looks up the
        # *tentative* distance of each affected gate.
        self._entries: list[tuple[int, float, int, int, int]] = []
        self._layer_sizes: list[int] = []
        #: First entry of every layer, plus one past the last entry.
        self._layer_starts: list[int] = []
        self._base_gammas: list[float] = []
        #: Entries per physical qubit.  A set's iteration order depends only
        #: on the order its members were added, and every set is filled in
        #: entry order, so ``touching[p1] | touching[p2]`` -- and with it the
        #: order gamma deltas accumulate in -- is the same after apply_swap
        #: as in a fresh build.
        self._touching: defaultdict[int, set[int]] = defaultdict(set)

        phys_of = state.layout.phys_of
        op_pairs = state.op_pairs
        use_weights = config.use_dependence_weights
        use_discount = config.use_layer_discount
        distance = self._distance
        entries = self._entries
        touching = self._touching
        weights_get = weights.get
        for layer_index, layer in enumerate(window.layers, start=1):
            if not layer:
                continue
            gamma = 0.0
            layer_position = len(self._layer_sizes)
            self._layer_sizes.append(len(layer))
            self._layer_starts.append(len(entries))
            for gate_index in layer:
                q1, q2 = op_pairs[gate_index]
                p1 = phys_of[q1]
                p2 = phys_of[q2]
                omega = weights_get(gate_index, 0) if use_weights else 1
                factor = float(max(omega, 1))
                if use_discount:
                    factor /= layer_index
                entry_index = len(entries)
                base_distance = distance[p1][p2]
                entries.append((layer_position, factor, p1, p2, base_distance))
                touching[p1].add(entry_index)
                touching[p2].add(entry_index)
                gamma += factor * base_distance
            self._base_gammas.append(gamma)
        self._layer_starts.append(len(entries))

    def base_score(self) -> float:
        """The layer-sum part of the score under the *current* mapping (no SWAP)."""
        return self._layer_sum(self._base_gammas)

    def _layer_sum(self, gammas: list[float]) -> float:
        total = 0.0
        if self._normalize:
            for gamma, size in zip(gammas, self._layer_sizes):
                total += gamma / size
        else:
            for gamma in gammas:
                total += gamma
        return total

    def score(self, swap: tuple[int, int]) -> float:
        """Evaluate ``M(swap)`` against the window."""
        p1, p2 = swap
        gammas = self._base_gammas.copy()
        touching = self._touching
        affected = touching.get(p1, _NO_ENTRIES) | touching.get(p2, _NO_ENTRIES)
        entries = self._entries
        distance = self._distance
        for entry_index in affected:
            layer_position, factor, g1, g2, old = entries[entry_index]
            n1 = p2 if g1 == p1 else p1 if g1 == p2 else g1
            n2 = p2 if g2 == p1 else p1 if g2 == p2 else g2
            new = distance[n1][n2]
            if new != old:
                gammas[layer_position] += factor * (new - old)
        layer_sum = self._layer_sum(gammas)
        if not self._use_decay:
            return layer_sum
        logical_at = self._logical_at
        decay_get = self._decay_get
        d1 = decay_get(logical_at[p1], 1.0)
        d2 = decay_get(logical_at[p2], 1.0)
        return (d1 if d1 >= d2 else d2) * layer_sum

    def apply_swap(self, a: int, b: int) -> None:
        """Fold a committed SWAP of physical qubits ``a``/``b`` into the window.

        Rewrites the records of the gates on ``a`` or ``b``, exchanges the two
        touching sets and re-sums the base gamma of every affected layer in
        construction order, so the scorer holds exactly the floats a fresh
        build under the new layout would.
        """
        touching = self._touching
        on_a = touching.pop(a, None)
        on_b = touching.pop(b, None)
        if on_a is not None:
            touching[b] = on_a
        if on_b is not None:
            touching[a] = on_b
        entries = self._entries
        distance = self._distance
        layers: set[int] = set()
        for entry_index in (on_a or _NO_ENTRIES) | (on_b or _NO_ENTRIES):
            layer_position, factor, g1, g2, _ = entries[entry_index]
            n1 = b if g1 == a else a if g1 == b else g1
            n2 = b if g2 == a else a if g2 == b else g2
            entries[entry_index] = (layer_position, factor, n1, n2, distance[n1][n2])
            layers.add(layer_position)
        starts = self._layer_starts
        base_gammas = self._base_gammas
        for layer_position in layers:
            gamma = 0.0
            for entry_index in range(starts[layer_position], starts[layer_position + 1]):
                _, factor, _, _, base_distance = entries[entry_index]
                gamma += factor * base_distance
            base_gammas[layer_position] = gamma
