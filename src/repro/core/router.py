"""The Qlosure routing engine (Algorithm 1 of the paper).

The router plugs the dependence-driven cost function into the shared
execute-or-swap loop: whenever the front layer changes it builds the layered
look-ahead window and its scorer, and at every stall it prices every
candidate SWAP with ``M(s)``; the engine commits the cheapest one (ties
broken at random), and the router folds the SWAP into the scorer and updates
the SABRE-style decay values.
"""

from __future__ import annotations

from repro.affine.dependence import DependenceAnalysis
from repro.api.registry import register_router
from repro.core.config import QlosureConfig
from repro.core.cost import WindowScorer
from repro.core.lookahead import build_lookahead
from repro.hardware.coupling import CouplingGraph
from repro.routing.decay import DecayTable
from repro.routing.engine import RoutingEngine, RoutingState


@register_router(
    "qlosure",
    config_class=QlosureConfig,
    kind="qlosure",
    description="dependence-driven layered look-ahead cost M(s) (the paper's mapper)",
)
class QlosureRouter(RoutingEngine):
    """Dependence-driven SWAP insertion using the ``M(s)`` cost function."""

    name = "qlosure"

    #: Decay bumps both qubits of a SWAP equally, so it cannot break a
    #: SWAP cycle over several blocked front gates; the release valve does.
    #: Routes that terminate without it commit at most 135 SWAPs in a row
    #: without progress (QUEKO on sherbrooke-2x; 41 on the e2ebench sets).
    release_valve_threshold = 300

    def __init__(
        self,
        coupling: CouplingGraph,
        config: QlosureConfig | None = None,
    ):
        self.config = config or QlosureConfig()
        super().__init__(coupling, seed=self.config.seed)
        self._lookahead_constant = self.config.effective_lookahead_constant(
            coupling.max_degree()
        )
        self._weights: dict[int, int] = {}
        self._decay = DecayTable(0, self.config.decay_increment)
        # Window scorer memoised by front signature: the window is a function
        # of the front layer and the executed set alone (its size counts
        # distinct *logical* operands, and layering ignores connectivity),
        # both frozen while a stall episode commits SWAPs, so consecutive
        # stalls on the same front reuse the scorer, which follows the
        # layout through on_swap_applied.
        self._scorer_signature: tuple[int, ...] | None = None
        self._scorer: WindowScorer | None = None

    # -- engine hooks -----------------------------------------------------------

    def on_circuit_start(self, state: RoutingState) -> None:
        """Precompute the transitive dependence weights ``omega`` once per circuit."""
        analysis = DependenceAnalysis(state.circuit)
        self._weights = analysis.weights()
        self._decay = DecayTable(state.circuit.num_qubits, self.config.decay_increment)
        self._scorer_signature = None
        self._scorer = None

    def on_gate_executed(self, state: RoutingState, index: int) -> None:
        """Reset decay values after a successful two-qubit gate execution."""
        self._decay.reset_all()

    def on_swap_applied(self, state: RoutingState, swap: tuple[int, int]) -> None:
        """Penalise the logical qubits that were just moved and keep the scorer in step."""
        logical_at = state.layout.logical_at
        for physical in swap:
            logical = logical_at[physical]
            if logical is not None:
                self._decay.bump(logical)
        if self._scorer is not None:
            self._scorer.apply_swap(*swap)

    # -- SWAP pricing --------------------------------------------------------------

    def candidate_costs(
        self, state: RoutingState, candidates: list[tuple[int, int]]
    ) -> list[float]:
        """Score every candidate SWAP with ``M(s)``."""
        signature = state.front_signature()
        if signature != self._scorer_signature:
            window = build_lookahead(
                state,
                self._lookahead_constant,
                cap=self.config.max_lookahead_gates,
                front_only=self.config.lookahead_only_front,
            )
            self._scorer = WindowScorer(state, window, self._weights, self._decay, self.config)
            self._scorer_signature = signature
        else:
            state.heuristic_cache_hits += 1
        score = self._scorer.score
        return [score(candidate) for candidate in candidates]
