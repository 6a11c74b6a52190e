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
stall and evaluates each candidate by adjusting only the gates whose physical
operands are touched by that SWAP -- the asymptotic cost per candidate drops
from O(window) to O(gates on the two swapped qubits).  All lookups go through
the precomputed per-gate operand arrays of the routing state and the flat
distance table's row views; no tentative layout is ever materialised.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow
from repro.routing.engine import RoutingState


class WindowScorer:
    """Incremental evaluator of ``M(s)`` over a fixed look-ahead window."""

    def __init__(
        self,
        state: RoutingState,
        window: LookaheadWindow,
        weights: Mapping[int, int],
        decay,
        config: QlosureConfig,
    ):
        self._state = state
        self._config = config
        self._decay = decay
        self._distance = state.distance_rows()
        # Per-window-gate records: (layer position, weight factor, phys1,
        # phys2, current distance).  The distance is memoised at build time
        # -- the scorer lives for exactly one stall, during which the layout
        # is frozen -- so scoring a candidate only looks up the *tentative*
        # distance of each affected gate.
        self._entries: list[tuple[int, float, int, int, int]] = []
        self._layer_sizes: list[int] = []
        self._base_gammas: list[float] = []
        self._touching: dict[int, list[int]] = defaultdict(list)

        phys_of = state.layout.phys_of
        op_pairs = state.op_pairs
        use_weights = config.use_dependence_weights
        use_discount = config.use_layer_discount
        entries = self._entries
        touching = self._touching
        weights_get = weights.get
        for layer_index, layer in enumerate(window.layers, start=1):
            if not layer:
                continue
            gamma = 0.0
            layer_position = len(self._layer_sizes)
            self._layer_sizes.append(len(layer))
            for gate_index in layer:
                q1, q2 = op_pairs[gate_index]
                p1 = phys_of[q1]
                p2 = phys_of[q2]
                omega = weights_get(gate_index, 0) if use_weights else 1
                factor = float(max(omega, 1))
                if use_discount:
                    factor /= layer_index
                entry_index = len(entries)
                base_distance = self._distance[p1][p2]
                entries.append((layer_position, factor, p1, p2, base_distance))
                touching[p1].append(entry_index)
                if p2 != p1:
                    touching[p2].append(entry_index)
                gamma += factor * base_distance
            self._base_gammas.append(gamma)

    def base_score(self) -> float:
        """The layer-sum part of the score under the *current* mapping (no SWAP)."""
        return self._normalized(self._base_gammas)

    def _normalized(self, gammas: list[float]) -> float:
        total = 0.0
        for gamma, size in zip(gammas, self._layer_sizes):
            total += gamma / size if self._config.use_layer_normalization else gamma
        return total

    def score(self, swap: tuple[int, int]) -> float:
        """Evaluate ``M(swap)`` against the window."""
        p1, p2 = swap
        gammas = list(self._base_gammas)
        touching = self._touching
        affected = set(touching.get(p1, ())) | set(touching.get(p2, ()))
        entries = self._entries
        distance = self._distance
        for entry_index in affected:
            layer_position, factor, g1, g2, old = entries[entry_index]
            n1 = p2 if g1 == p1 else p1 if g1 == p2 else g1
            n2 = p2 if g2 == p1 else p1 if g2 == p2 else g2
            new = distance[n1][n2]
            if new != old:
                gammas[layer_position] += factor * (new - old)
        layer_sum = self._normalized(gammas)
        if not self._config.use_decay:
            return layer_sum
        logical_at = self._state.layout.logical_at
        decay_get = self._decay.get
        d1 = decay_get(logical_at[p1], 1.0)
        d2 = decay_get(logical_at[p2], 1.0)
        return (d1 if d1 >= d2 else d2) * layer_sum

