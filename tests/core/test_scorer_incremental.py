"""Differential oracle for the long-lived window scorer.

``QlosureRouter`` keeps one :class:`WindowScorer` per front layer and folds
every committed SWAP into it with ``apply_swap``.  At every stall of real
routes, the costs it returns must equal -- with ``==``, bit for bit -- the
costs of a scorer freshly built on the same window under the current layout.
"""

import pytest

from repro.benchgen.qasmbench import qasmbench_circuit
from repro.benchgen.queko import queko_dataset
from repro.core.config import QlosureConfig
from repro.core.cost import WindowScorer
from repro.core.error_aware import ErrorAwareQlosureRouter
from repro.core.router import QlosureRouter
from repro.hardware.backends import backend_by_name

BACKENDS = {name: backend_by_name(name) for name in ("sherbrooke", "ankaa3")}
CIRCUITS = {
    "queko": queko_dataset("54qbt", depths=[15], circuits_per_depth=1, seed=3)[0].circuit,
    "qft": qasmbench_circuit("qft", 16),
    "adder": qasmbench_circuit("adder", 16),
}
ABLATIONS = {
    "full": QlosureConfig.full(),
    "distance_only": QlosureConfig.distance_only(),
    "layer_adjusted": QlosureConfig.layer_adjusted(),
    "dependency_weighted": QlosureConfig.dependency_weighted(seed=4),
    "no_decay": QlosureConfig(use_decay=False),
    "no_normalization": QlosureConfig(use_layer_normalization=False),
    "no_discount": QlosureConfig(use_layer_discount=False),
    "front_only": QlosureConfig(lookahead_only_front=True),
    "small_window": QlosureConfig(max_lookahead_gates=6, lookahead_constant=2, seed=1),
}


def checked(router_class):
    """``router_class`` with every stall's costs checked against a fresh scorer."""

    class Checked(router_class):
        def on_circuit_start(self, state):
            super().on_circuit_start(state)
            self.stalls = 0
            self.reused = 0
            self._previous = None

        def candidate_costs(self, state, candidates):
            costs = super().candidate_costs(state, candidates)
            scorer = self._scorer
            fresh = WindowScorer(state, scorer.window, self._weights, self._decay, self.config)
            assert costs == [fresh.score(candidate) for candidate in candidates]
            assert scorer.base_score() == fresh.base_score()
            self.stalls += 1
            self.reused += scorer is self._previous
            self._previous = scorer
            return costs

    return Checked


def route_checked(router_class, backend, circuit, **kwargs):
    router = checked(router_class)(BACKENDS[backend], **kwargs)
    result = router.run(circuit)
    plain = router_class(BACKENDS[backend], **kwargs).run(circuit)
    assert result.routed_circuit.gates == plain.routed_circuit.gates
    return router


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_scorer_matches_fresh_build_at_every_stall(backend, circuit):
    router = route_checked(QlosureRouter, backend, CIRCUITS[circuit])
    assert router.stalls > 0
    assert router.reused > 0


@pytest.mark.parametrize("variant", sorted(ABLATIONS))
def test_every_ablation_variant(variant):
    backend = "ankaa3" if variant.startswith(("no_", "small")) else "sherbrooke"
    router = route_checked(
        QlosureRouter, backend, CIRCUITS["queko"], config=ABLATIONS[variant]
    )
    assert router.stalls > 0


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_error_aware_float_distances(backend):
    router = route_checked(ErrorAwareQlosureRouter, backend, CIRCUITS["queko"])
    assert router.reused > 0
